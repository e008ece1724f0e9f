// Benchmark-side tracing: spans recorded in perfbench's own code around
// each call into a FreeHGC layer. Nothing here is compiled into the
// program under test.
#ifndef FREEHGC_PERFBENCH_TRACE_H_
#define FREEHGC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/freehgc.h"
#include "metapath/metapath.h"
#include "stats.h"

namespace freehgc::perfbench {

/// An AdjacencyCache that records one span per meta-path composition.
/// With no inner cache it memoizes nothing, so core::Condense composes
/// exactly as it does with a null cache; with an inner cache it forwards
/// every lookup there (the span then covers a hit or a miss).
class TimingComposer final : public AdjacencyCache {
 public:
  explicit TimingComposer(AdjacencyCache* inner = nullptr) : inner_(inner) {}

  std::shared_ptr<const CsrMatrix> Composed(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx) override;

  /// Moves out the spans recorded since the last call.
  std::vector<Interval> TakeSpans();

 private:
  AdjacencyCache* inner_;
  std::mutex mu_;
  std::vector<Interval> spans_;
};

/// Where one Condense call spent its time, in milliseconds.
struct CondenseBreakdown {
  double compose_ms = 0.0;
  /// Stage times minus the compose spans inside each stage.
  double target_self_ms = 0.0;
  double father_self_ms = 0.0;
  double leaf_ms = 0.0;
  double assemble_ms = 0.0;
};

/// Splits one Condense call into stage self times. The five stages of
/// core::StageSeconds run back to back, so they are laid end to end
/// ending at `call_end_ns` (the stopwatch stops right after assembly);
/// each compose span is charged to the stage intervals it overlaps.
CondenseBreakdown BreakDown(int64_t call_end_ns, const core::StageSeconds& s,
                            const std::vector<Interval>& compose_spans);

struct Report;

/// Sets metapath.compose_ms and the core.* stage metrics to the medians
/// over `breakdowns`.
void SetBreakdownLayers(const std::vector<CondenseBreakdown>& breakdowns,
                        Report& report);

}  // namespace freehgc::perfbench

#endif  // FREEHGC_PERFBENCH_TRACE_H_
