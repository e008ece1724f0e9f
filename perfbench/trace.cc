#include "trace.h"

#include "common.h"

namespace freehgc::perfbench {

std::shared_ptr<const CsrMatrix> TimingComposer::Composed(
    const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
    exec::ExecContext* ctx) {
  const int64_t begin = NowNs();
  std::shared_ptr<const CsrMatrix> out =
      inner_ != nullptr
          ? inner_->Composed(g, p, max_row_nnz, ctx)
          : std::make_shared<const CsrMatrix>(
                ComposeAdjacency(g, p, max_row_nnz, ctx));
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Interval{begin, end});
  return out;
}

std::vector<Interval> TimingComposer::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

CondenseBreakdown BreakDown(int64_t call_end_ns, const core::StageSeconds& s,
                            const std::vector<Interval>& compose_spans) {
  CondenseBreakdown out;
  for (const Interval& span : compose_spans) {
    out.compose_ms += NsToMs(span.end_ns - span.begin_ns);
  }
  // Lay the stages out backwards from the end of the call.
  const double stage_s[] = {s.assemble, s.leaf, s.father, s.target};
  double* self_ms[] = {&out.assemble_ms, &out.leaf_ms, &out.father_self_ms,
                       &out.target_self_ms};
  int64_t end = call_end_ns;
  for (int i = 0; i < 4; ++i) {
    const Interval stage{end - static_cast<int64_t>(stage_s[i] * 1e9), end};
    *self_ms[i] = NsToMs(SelfTimeNs(stage, compose_spans));
    end = stage.begin_ns;
  }
  return out;
}

void SetBreakdownLayers(const std::vector<CondenseBreakdown>& breakdowns,
                        Report& report) {
  auto median = [&](double CondenseBreakdown::*field) {
    std::vector<double> xs;
    for (const CondenseBreakdown& b : breakdowns) xs.push_back(b.*field);
    return Median(xs);
  };
  report.Set("metapath.compose_ms", median(&CondenseBreakdown::compose_ms),
             "ms");
  report.Set("core.target_self_ms",
             median(&CondenseBreakdown::target_self_ms), "ms");
  report.Set("core.father_self_ms",
             median(&CondenseBreakdown::father_self_ms), "ms");
  report.Set("core.leaf_ms", median(&CondenseBreakdown::leaf_ms), "ms");
  report.Set("core.assemble_ms", median(&CondenseBreakdown::assemble_ms),
             "ms");
}

}  // namespace freehgc::perfbench
