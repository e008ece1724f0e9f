// Order statistics and span arithmetic used by perfbench.
// Kept free of any FreeHGC dependency so perfbench_selftest can check them
// in isolation.
#ifndef FREEHGC_PERFBENCH_STATS_H_
#define FREEHGC_PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace freehgc::perfbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (rank ceil(q·n), 1-based, clamped to [1, n]).
/// q in [0, 1]; 0 for an empty sample.
double NearestRank(std::vector<double> samples, double q);

/// Median by nearest rank (the lower middle for an even count).
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// The reported tail of a latency sample: the highest nearest-rank
/// percentile that still has at least `beyond` samples above it, i.e. the
/// value at rank n - beyond. It never drops below the median: a sample too
/// small to have `beyond` samples past its median reports the median.
struct Tail {
  double value = 0.0;
  /// The percentile `value` sits at (rank / n · 100); 0 when empty.
  double percentile = 0.0;
};
Tail TailPercentile(std::vector<double> samples, int beyond = 10);

/// One fixed-rate step of an open-loop run.
struct RateStep {
  double rate_rps = 0.0;
  int64_t sent = 0;
  /// Requests that finished OK within the latency limit.
  int64_t ok_within_limit = 0;
  /// Worst send lateness behind the schedule in this step.
  double max_lag_ms = 0.0;
};

/// Index of the highest-rate step at which at least `min_ok_frac` of the
/// requests sent finished OK within the latency limit and the generator
/// lagged by no more than `max_lag_ms`; -1 when no step qualifies.
int SelectGoodputStep(const std::vector<RateStep>& steps, double min_ok_frac,
                      double max_lag_ms);

/// A closed time interval [begin_ns, end_ns] of one span.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of `parent`: its duration minus the part of it covered by the
/// union of `children` (children may overlap one another and stick out of
/// the parent; only the covered part of the parent counts).
int64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children);

}  // namespace freehgc::perfbench

#endif  // FREEHGC_PERFBENCH_STATS_H_
