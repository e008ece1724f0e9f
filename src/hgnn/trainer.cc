#include "hgnn/trainer.h"

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::hgnn {

EvalContext BuildEvalContext(const HeteroGraph& full,
                             const PropagateOptions& opts,
                             exec::ExecContext* ctx_exec,
                             AdjacencyCache* cache) {
  EvalContext ctx;
  ctx.full = &full;
  ctx.options = opts;
  ctx.paths = PropagationPaths(full, opts);
  ctx.full_features = std::make_shared<const PropagatedFeatures>(
      PropagateAlongPaths(full, ctx.paths, opts.max_row_nnz, ctx_exec, cache));
  return ctx;
}

namespace {

EvalMetrics RunTraining(const EvalContext& ctx,
                        const std::vector<Matrix>& train_blocks,
                        const std::vector<int32_t>& train_labels,
                        const std::vector<int32_t>& train_idx,
                        const HgnnConfig& config) {
  FREEHGC_CHECK(ctx.full != nullptr);
  const HeteroGraph& full = *ctx.full;
  FREEHGC_CHECK(train_blocks.size() == ctx.full_features->blocks.size());

  std::vector<int64_t> block_dims;
  for (const auto& b : ctx.full_features->blocks) {
    block_dims.push_back(b.cols());
  }
  HgnnModel model(config, block_dims, ctx.full_features->end_types,
                  full.num_classes());
  nn::Adam opt(config.lr);
  auto params = model.Params();

  const std::vector<int32_t>& val_idx = full.val_index();
  const std::vector<int32_t>& test_idx = full.test_index();

  FREEHGC_TRACE_SPAN("hgnn.train");
  static obs::Counter& epochs_ctr =
      obs::MetricsRegistry::Global().GetCounter("hgnn.epochs");

  EvalMetrics out;
  float best_val = -1.0f;
  int since_best = 0;
  double train_time = 0.0;

  const int eval_every = 10;
  for (int epoch = 1; epoch <= config.epochs; ++epoch) {
    {
      ScopedTimer step_timer(train_time);
      FREEHGC_TRACE_SPAN("hgnn.train_epoch");
      model.ZeroGrad();
      Matrix logits = model.Forward(train_blocks, /*train=*/true);
      Matrix dlogits;
      nn::SoftmaxCrossEntropy(logits, train_labels, train_idx, &dlogits);
      model.Backward(dlogits);
      opt.Step(params);
    }
    epochs_ctr.Increment();
    out.epochs_run = epoch;

    if (epoch % eval_every == 0 || epoch == config.epochs) {
      Matrix full_logits =
          model.Forward(ctx.full_features->blocks, /*train=*/false);
      const float val_acc =
          val_idx.empty()
              ? nn::Accuracy(full_logits, full.labels(), test_idx)
              : nn::Accuracy(full_logits, full.labels(), val_idx);
      if (val_acc > best_val) {
        best_val = val_acc;
        out.test_accuracy =
            nn::Accuracy(full_logits, full.labels(), test_idx);
        out.macro_f1 = nn::MacroF1(full_logits, full.labels(), test_idx,
                                   full.num_classes());
        since_best = 0;
      } else if (config.patience > 0) {
        since_best += eval_every;
        if (since_best >= config.patience) break;
      }
    }
  }
  out.train_seconds = train_time;
  return out;
}

}  // namespace

EvalMetrics TrainAndEvaluate(const EvalContext& ctx,
                             const HeteroGraph& train_graph,
                             const HgnnConfig& config,
                             exec::ExecContext* ex) {
  // Propagate the training graph's features along the shared path list so
  // block layouts line up. (When training on the full graph itself, reuse
  // the context's blocks.)
  const bool self_train = (&train_graph == ctx.full);
  PropagatedFeatures train_features =
      self_train ? PropagatedFeatures{}
                 : PropagateAlongPaths(train_graph, ctx.paths,
                                       ctx.options.max_row_nnz, ex);
  const PropagatedFeatures& train_feats =
      self_train ? *ctx.full_features : train_features;
  return RunTraining(ctx, train_feats.blocks, train_graph.labels(),
                     train_graph.train_index(), config);
}

EvalMetrics WholeGraphBaseline(const EvalContext& ctx,
                               const HgnnConfig& config,
                               exec::ExecContext* ex) {
  return TrainAndEvaluate(ctx, *ctx.full, config, ex);
}

EvalMetrics TrainOnBlocks(const EvalContext& ctx,
                          const std::vector<Matrix>& blocks,
                          const std::vector<int32_t>& labels,
                          const HgnnConfig& config) {
  std::vector<int32_t> all(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    all[i] = static_cast<int32_t>(i);
  }
  return RunTraining(ctx, blocks, labels, all, config);
}

}  // namespace freehgc::hgnn
