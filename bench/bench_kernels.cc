// Sparse-kernel microbenchmark: times every hot kernel in sparse/ops.h
// against its single-threaded reference (sparse/reference.h), times
// meta-path composition (ComposeAdjacency over every multi-hop path), and
// times the stages built on those kernels that have no reference: greedy
// coverage selection, feature propagation and one HGNN training epoch.
// Writes BENCH_kernels.json.
//
// Gates (FREEHGC_CHECK; a violation exits non-zero):
//  - Bit identity, both modes: every composed adjacency of the workload
//    equals the reference chain RowNormalizeRef + SpGemmRef bit for bit.
//  - Speed, full mode only: spgemm runs at >= 0.9x its reference's
//    speed — no slower than the naive code, less a 10% margin for
//    best-of-N timing noise. `--smoke` (CI, on shared and noisy runners,
//    at a scaled-down workload) skips it. The other rows are not gated.
//
// All timed kernels are bit-identical to their references (enforced per
// kernel by tests/sparse_reference_test.cc and per path by the gate
// above), so the comparison is pure speed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/target_selection.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "metapath/metapath.h"
#include "nn/nn.h"
#include "obs/trace.h"
#include "sparse/ops.h"
#include "sparse/reference.h"

namespace freehgc::bench {
namespace {

template <typename Fn>
int64_t BestOfNs(int reps, Fn&& fn) {
  int64_t best = INT64_MAX;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = obs::NowNs();
    fn();
    const int64_t dt = obs::NowNs() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

struct KernelRow {
  std::string name;
  int64_t reference_ns = 0;  ///< 0 for a timed row with no reference
  int64_t optimized_ns = 0;
};

double Speedup(int64_t reference_ns, int64_t optimized_ns) {
  return optimized_ns > 0 ? static_cast<double>(reference_ns) /
                                static_cast<double>(optimized_ns)
                          : 0.0;
}

/// Keeps results observable so the timed calls cannot be elided.
int64_t g_sink = 0;
void Consume(const CsrMatrix& m) { g_sink += m.nnz(); }
void Consume(const Matrix& m) {
  g_sink += static_cast<int64_t>(m.size() > 0 ? m.data()[0] : 0);
}
void Consume(const std::vector<float>& v) {
  g_sink += static_cast<int64_t>(v.size());
}

int Run(bool smoke) {
  const int reps = smoke ? 2 : 5;
  const double scale = smoke ? 0.25 : 1.0;
  const int threads = BenchThreads();
  exec::ExecContext& ex = exec::DefaultExec();
  PrintHeader(smoke ? "Sparse kernels (smoke)" : "Sparse kernels");
  std::printf("threads=%d scale=%.2f reps(best-of)=%d\n", threads, scale,
              reps);

  auto graph_res = datasets::MakeByName("acm", 1, scale, &ex);
  FREEHGC_CHECK(graph_res.ok());
  const HeteroGraph g = std::move(graph_res).value();

  // --- Meta-path composition workload -----------------------------------
  // Every SpGEMM operand pair of the >=2-hop paths, exactly as
  // ComposeAdjacency chains them (row-normalized relation adjacencies).
  MetaPathOptions mp;
  mp.max_hops = smoke ? 2 : 3;
  const auto all_paths = EnumerateMetaPaths(g, g.target_type(), mp);
  std::vector<MetaPath> paths;
  for (const auto& p : all_paths) {
    if (p.hops() >= 2) paths.push_back(p);
  }
  FREEHGC_CHECK(!paths.empty()) << "workload needs multi-hop paths";
  const int64_t budget = 512;  // pipeline-default row budget

  const int64_t compose_ns = BestOfNs(reps, [&] {
    for (const auto& p : paths) {
      Consume(ComposeAdjacency(g, p, budget, &ex));
    }
  });
  std::printf("compose %zu paths: %.3f ms\n", paths.size(),
              static_cast<double>(compose_ns) * 1e-6);

  // The gate: each composed path equals the naive reference chain.
  for (const auto& p : paths) {
    CsrMatrix want =
        sparse::reference::RowNormalizeRef(g.relation(p.relations[0]).adj);
    for (size_t i = 1; i < p.relations.size(); ++i) {
      want = sparse::reference::SpGemmRef(
          want,
          sparse::reference::RowNormalizeRef(g.relation(p.relations[i]).adj),
          budget);
    }
    FREEHGC_CHECK(ComposeAdjacency(g, p, budget, &ex) == want)
        << "ComposeAdjacency differs from the reference chain on "
        << p.Name(g);
  }

  // --- Per-kernel reference vs optimized --------------------------------
  // Operands: the largest relation adjacency (rectangular) and one
  // composed square adjacency (power-law-ish after composition).
  const CsrMatrix* rect = &g.relation(0).adj;
  for (RelationId r = 1; r < g.NumRelations(); ++r) {
    if (g.relation(r).adj.nnz() > rect->nnz()) rect = &g.relation(r).adj;
  }
  const MetaPath* round_trip = nullptr;
  for (const auto& p : paths) {
    if (p.start_type() == p.end_type()) {
      round_trip = &p;
      break;
    }
  }
  FREEHGC_CHECK(round_trip != nullptr) << "no round-trip meta-path";
  const CsrMatrix square =
      ComposeAdjacency(g, *round_trip, /*max_row_nnz=*/0, &ex);
  FREEHGC_CHECK(square.rows() == square.cols());
  const CsrMatrix square_t = sparse::Transpose(square, &ex);
  const CsrMatrix sym = sparse::SymNormalize(
      sparse::reference::SpGemmRef(square, square_t, budget), &ex);
  // The budgeted product is not bit-symmetric, so PprScores is handed its
  // transpose, built once outside the timed calls.
  const CsrMatrix sym_t = sparse::Transpose(sym, &ex);

  Rng rng(7);
  Matrix feats(rect->cols(), 64);
  for (int64_t i = 0; i < feats.size(); ++i) {
    feats.data()[i] = rng.NextUniform(-1.0f, 1.0f);
  }
  std::vector<float> vec(static_cast<size_t>(rect->cols()));
  for (auto& v : vec) v = rng.NextUniform(-1.0f, 1.0f);
  std::vector<float> teleport(static_cast<size_t>(sym.rows()),
                              1.0f / static_cast<float>(sym.rows()));
  const int ppr_iters = smoke ? 5 : 15;

  std::vector<KernelRow> rows;
  // A sample is a batch of calls lasting at least ~10 ms (sized from one
  // warm-up call), so a kernel of tens of microseconds is not timed
  // against scheduler jitter of the same size.
  auto batch_for = [&](auto&& fn) {
    constexpr int64_t kMinSampleNs = 10'000'000;
    return std::clamp<int64_t>(
        kMinSampleNs / std::max<int64_t>(1, BestOfNs(1, fn)), 1, 1000);
  };
  auto per_call_ns = [&](int64_t batch, auto&& fn) {
    return BestOfNs(1, [&] {
             for (int64_t b = 0; b < batch; ++b) fn();
           }) /
           batch;
  };
  // Reference and optimized calls alternate rep by rep, each taking the
  // lead in turn, so drift in machine or heap state during the run lands
  // on both sides of a speedup rather than on one.
  auto add = [&](const std::string& name, auto&& ref_fn, auto&& opt_fn) {
    const int64_t batch = batch_for(opt_fn);
    int64_t ref_ns = INT64_MAX, opt_ns = INT64_MAX;
    for (int i = 0; i < reps; ++i) {
      if (i % 2 == 0) {
        ref_ns = std::min(ref_ns, per_call_ns(batch, ref_fn));
        opt_ns = std::min(opt_ns, per_call_ns(batch, opt_fn));
      } else {
        opt_ns = std::min(opt_ns, per_call_ns(batch, opt_fn));
        ref_ns = std::min(ref_ns, per_call_ns(batch, ref_fn));
      }
    }
    rows.push_back({name, ref_ns, opt_ns});
    std::printf("%-15s reference %10.3f ms  optimized %10.3f ms  %6.2fx\n",
                name.c_str(), static_cast<double>(ref_ns) * 1e-6,
                static_cast<double>(opt_ns) * 1e-6,
                Speedup(ref_ns, opt_ns));
  };
  auto add_timed = [&](const std::string& name, auto&& fn) {
    const int64_t batch = batch_for(fn);
    int64_t ns = INT64_MAX;
    for (int i = 0; i < reps; ++i) ns = std::min(ns, per_call_ns(batch, fn));
    rows.push_back({name, 0, ns});
    std::printf("%-15s %24s  optimized %10.3f ms\n", name.c_str(), "",
                static_cast<double>(ns) * 1e-6);
  };

  add("transpose", [&] { Consume(sparse::reference::TransposeRef(*rect)); },
      [&] { Consume(sparse::Transpose(*rect, &ex)); });
  add("row_normalize",
      [&] { Consume(sparse::reference::RowNormalizeRef(*rect)); },
      [&] { Consume(sparse::RowNormalize(*rect, &ex)); });
  add("sym_normalize", [&] { Consume(sparse::reference::SymNormalizeRef(sym)); },
      [&] { Consume(sparse::SymNormalize(sym, &ex)); });
  add("spgemm",
      [&] { Consume(sparse::reference::SpGemmRef(square, square_t, budget)); },
      [&] { Consume(sparse::SpGemm(square, square_t, budget, &ex)); });
  add("spmm_dense",
      [&] { Consume(sparse::reference::SpMmDenseRef(*rect, feats)); },
      [&] { Consume(sparse::SpMmDense(*rect, feats, &ex)); });
  add("spmv", [&] { Consume(sparse::reference::SpMvRef(*rect, vec)); },
      [&] { Consume(sparse::SpMv(*rect, vec, &ex)); });
  add("ppr",
      [&] {
        Consume(sparse::reference::PprScoresRef(sym, teleport, 0.15f,
                                                ppr_iters, 0.0f));
      },
      [&] {
        Consume(
            sparse::PprScores(sym_t, teleport, 0.15f, ppr_iters, 0.0f, &ex));
      });

  // --- Stages with no reference -----------------------------------------
  // Lazy-greedy coverage selection over one composed multi-hop adjacency.
  const CsrMatrix cover_adj = ComposeAdjacency(g, paths[0], budget, &ex);
  std::vector<int32_t> pool(static_cast<size_t>(cover_adj.rows()));
  for (int32_t v = 0; v < cover_adj.rows(); ++v) {
    pool[static_cast<size_t>(v)] = v;
  }
  add_timed("greedy_coverage", [&] {
    g_sink += static_cast<int64_t>(
        core::GreedyCoverageSelect(cover_adj, pool, 64, nullptr, true,
                                   nullptr, &ex)
            .size());
  });
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  popts.max_paths = 8;
  add_timed("propagate", [&] {
    g_sink += static_cast<int64_t>(
        hgnn::PropagateFeatures(g, popts, &ex).blocks.size());
  });
  // One SeHGNN epoch (forward, loss, backward, Adam step) on those blocks.
  const hgnn::PropagatedFeatures prop = hgnn::PropagateFeatures(g, popts, &ex);
  std::vector<int64_t> dims;
  for (const auto& blk : prop.blocks) dims.push_back(blk.cols());
  hgnn::HgnnConfig cfg;
  cfg.hidden = 32;
  hgnn::HgnnModel model(cfg, dims, prop.end_types, g.num_classes());
  nn::Adam opt(1e-3f);
  auto params = model.Params();
  add_timed("train_epoch", [&] {
    model.ZeroGrad();
    Matrix logits = model.Forward(prop.blocks, true);
    Matrix dlogits;
    nn::SoftmaxCrossEntropy(logits, g.labels(), g.train_index(), &dlogits);
    model.Backward(dlogits);
    opt.Step(params);
    Consume(logits);
  });

  std::fflush(stdout);  // keep the table if a gate below aborts
  if (!smoke) {
    constexpr double kMinSpeedup = 0.9;  // 1.0x less the noise margin
    for (const auto& row : rows) {
      if (row.name != "spgemm") continue;
      const double speedup = Speedup(row.reference_ns, row.optimized_ns);
      FREEHGC_CHECK(speedup >= kMinSpeedup)
          << row.name << " runs at " << speedup
          << "x its reference, below the " << kMinSpeedup << "x gate";
    }
  }

  // --- JSON -------------------------------------------------------------
  std::string json = "{\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"dataset\": \"acm\",\n  \"scale\": %.2f,\n", scale);
  json += StrFormat("  \"threads\": %d,\n  \"reps\": %d,\n", threads, reps);
  json += StrFormat(
      "  \"compose\": {\"paths\": %zu, \"row_budget\": %lld, "
      "\"ns\": %lld},\n",
      paths.size(), static_cast<long long>(budget),
      static_cast<long long>(compose_ns));
  json += "  \"kernels\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    json += StrFormat("    {\"name\": \"%s\", ", row.name.c_str());
    if (row.reference_ns > 0) {
      json += StrFormat(
          "\"reference_ns\": %lld, \"speedup\": %.4f, ",
          static_cast<long long>(row.reference_ns),
          Speedup(row.reference_ns, row.optimized_ns));
    }
    json += StrFormat("\"optimized_ns\": %lld}%s\n",
                      static_cast<long long>(row.optimized_ns),
                      i + 1 < rows.size() ? "," : "");
  }
  json += "  ],\n";
  json += StrFormat("  \"sink\": %lld,\n", static_cast<long long>(g_sink));
  json += "  \"metrics\": " + MetricsSnapshotJson() + "\n";
  json += "}\n";
  WriteTextFile("BENCH_kernels.json", json);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}

}  // namespace
}  // namespace freehgc::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return freehgc::bench::Run(smoke);
}
