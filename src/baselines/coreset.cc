#include "baselines/coreset.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "core/selection_util.h"

namespace freehgc::baselines {

const char* CoresetKindName(CoresetKind kind) {
  switch (kind) {
    case CoresetKind::kRandom:
      return "Random-HG";
    case CoresetKind::kHerding:
      return "Herding-HG";
    case CoresetKind::kKCenter:
      return "K-Center-HG";
  }
  return "?";
}

namespace {

int32_t Budget(double ratio, int32_t count) {
  if (count == 0) return 0;
  return std::max<int32_t>(
      1, static_cast<int32_t>(std::lround(ratio * count)));
}

std::vector<int32_t> SelectFrom(CoresetKind kind, const Matrix& features,
                                const std::vector<int32_t>& pool,
                                int32_t budget, uint64_t seed) {
  switch (kind) {
    case CoresetKind::kRandom:
      return core::RandomSelect(pool, budget, seed);
    case CoresetKind::kHerding:
      return core::HerdingSelect(features, pool, budget);
    case CoresetKind::kKCenter:
      return core::KCenterSelect(features, pool, budget, seed);
  }
  return {};
}

}  // namespace

Result<BaselineResult> CoresetCondense(const hgnn::EvalContext& ctx,
                                       CoresetKind kind, double ratio,
                                       uint64_t seed, exec::ExecContext* ex) {
  (void)ex;  // selection is sequential; parameter keeps entry points uniform
  if (ctx.full == nullptr) {
    return Status::InvalidArgument("context has no graph");
  }
  const HeteroGraph& g = *ctx.full;
  Timer timer;

  // Embedding space for the target type: concatenation of the propagated
  // meta-path blocks.
  Matrix embedding = ctx.full_features->blocks.front();
  for (size_t b = 1; b < ctx.full_features->blocks.size(); ++b) {
    embedding = embedding.ConcatCols(ctx.full_features->blocks[b]);
  }

  const TypeId target = g.target_type();
  std::vector<std::vector<int32_t>> keep(
      static_cast<size_t>(g.NumNodeTypes()));

  // Target type: class-proportional selection from the training pool.
  const int32_t target_budget = Budget(ratio, g.NodeCount(target));
  const auto budgets = core::PerClassBudget(g.labels(), g.train_index(),
                                            g.num_classes(), target_budget);
  auto& target_keep = keep[static_cast<size_t>(target)];
  for (int32_t c = 0; c < g.num_classes(); ++c) {
    const auto pool = core::PoolOfClass(g.labels(), g.train_index(), c);
    const auto picked = SelectFrom(kind, embedding, pool,
                                   budgets[static_cast<size_t>(c)],
                                   seed ^ static_cast<uint64_t>(c + 1));
    target_keep.insert(target_keep.end(), picked.begin(), picked.end());
  }
  std::sort(target_keep.begin(), target_keep.end());

  // Other types: raw-feature selection over all nodes.
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    if (t == target) continue;
    std::vector<int32_t> pool(static_cast<size_t>(g.NodeCount(t)));
    for (int32_t i = 0; i < g.NodeCount(t); ++i) {
      pool[static_cast<size_t>(i)] = i;
    }
    auto picked = SelectFrom(kind, g.Features(t), pool,
                             Budget(ratio, g.NodeCount(t)),
                             seed ^ (0xc0ffeeULL + static_cast<uint64_t>(t)));
    std::sort(picked.begin(), picked.end());
    keep[static_cast<size_t>(t)] = std::move(picked);
  }

  FREEHGC_ASSIGN_OR_RETURN(HeteroGraph sub, g.InducedSubgraph(keep));
  BaselineResult out;
  out.graph = std::move(sub);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace freehgc::baselines
