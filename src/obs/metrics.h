#ifndef FREEHGC_OBS_METRICS_H_
#define FREEHGC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace freehgc::obs {

/// Always-on metrics registry: named counters, gauges and histograms the
/// kernels bump as they run, snapshotted as JSON by the bench harnesses
/// (and by FREEHGC_METRICS=<path> at process exit).
///
/// Determinism note: *value* metrics (flop counts, output nnz, chunks
/// executed, rows truncated, epochs run) are integer sums of per-chunk
/// contributions whose chunk layout is thread-count independent, so they
/// are bit-identical at every worker count — tests/obs_test.cc enforces
/// this. *Timing* metrics (names ending in `_ns`) measure the schedule
/// itself and naturally vary run to run.
///
/// Instrumentation sites should cache the reference once:
///   static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
///       "spgemm.flops");
/// after which each update is a single relaxed atomic add.

namespace internal {
extern std::atomic<bool> g_detailed_metrics;
}  // namespace internal

/// Whether per-invoke execution metrics (the whole exec.* family:
/// parallel-for calls/chunks, worker busy/idle `_ns` counters, workspace
/// high-water-mark) are being collected. Kernel-level value metrics
/// (flops, nnz, epochs, ...) are always on — they amortize over real
/// work — but the exec.* ones cost a clock read and a counter call per
/// ParallelFor invoke, which tight iterative kernels (e.g. PPR's
/// per-iteration SpMV) can feel, so they are armed only when
/// observability is requested: FREEHGC_TRACE / FREEHGC_METRICS in the
/// environment, or an explicit SetDetailedMetricsEnabled(true).
inline bool DetailedMetricsEnabled() {
  return internal::g_detailed_metrics.load(std::memory_order_relaxed);
}

/// Turns detailed (timing) metric collection on/off, process-global.
void SetDetailedMetricsEnabled(bool enabled);

/// Monotonic additive counter.
class Counter {
 public:
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-value / high-water-mark gauge.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if larger (lock-free max).
  void UpdateMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Power-of-two-bucketed histogram of non-negative int64 samples: bucket
/// b counts values v with 2^(b-1) <= v < 2^b (bucket 0 counts v <= 0...1
/// boundary, see BucketIndex). Tracks count and sum exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 63;

  void Observe(int64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[static_cast<size_t>(BucketIndex(v))].fetch_add(
        1, std::memory_order_relaxed);
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// Approximate q-quantile (q in [0, 1]) from the bucket counts:
  /// QuantileFromCumulativeBuckets over the buckets a Prometheus scrape
  /// exposes, truncated to an integer — so a scraped estimate and the
  /// server's agree up to that truncation. The error is bounded by the
  /// bucket width (a factor of two). Returns 0 for an empty histogram.
  /// Serving-layer latency summaries (p50/p95/p99 at shutdown) are the
  /// primary consumer; exact percentiles, where needed, come from raw
  /// samples (bench_serve_load).
  int64_t ApproxQuantile(double q) const;

  /// Upper bound (inclusive) of bucket b: 1 for b = 0, else 2^b.
  static int64_t BucketUpper(int b) {
    return b == 0 ? 1 : (int64_t{1} << b);
  }

  /// Bucket for value v: 0 for v <= 1, otherwise floor(log2(v - 1)) + 1,
  /// clamped to the last bucket.
  static int BucketIndex(int64_t v) {
    if (v <= 1) return 0;
    int b = 1;
    uint64_t x = static_cast<uint64_t>(v - 1);
    while (x >>= 1) ++b;
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Adds a pre-aggregated batch (used by LocalHistogram::FlushTo so hot
  /// loops pay one set of atomic adds per chunk, not per sample).
  void AddBatch(int64_t count, int64_t sum,
                const std::array<int64_t, kBuckets>& buckets) {
    if (count == 0) return;
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b) {
      if (buckets[static_cast<size_t>(b)] != 0) {
        buckets_[static_cast<size_t>(b)].fetch_add(
            buckets[static_cast<size_t>(b)], std::memory_order_relaxed);
      }
    }
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
};

/// q-quantile (q in [0, 1]) from cumulative (upper_bound,
/// cumulative_count) buckets sorted by bound — a scraped snapshot
/// (obs::PromBuckets) or a Histogram's own. The q-th sample's bucket is
/// interpolated linearly from its lower edge (bound / 2, or 0 for the
/// first bucket) to its bound. Returns 0 for an empty histogram.
double QuantileFromCumulativeBuckets(
    const std::vector<std::pair<double, double>>& buckets, double q);

/// Chunk-local histogram accumulator: plain integer bumps per sample,
/// one batched atomic flush at chunk end. Per-chunk-then-flush keeps the
/// shared Histogram's totals deterministic (integer sums) and removes
/// per-sample cache-line traffic from hot loops:
///   obs::LocalHistogram local;
///   for (...) local.Observe(v);
///   local.FlushTo(shared_hist);
class LocalHistogram {
 public:
  void Observe(int64_t v) {
    ++count_;
    sum_ += v;
    ++buckets_[static_cast<size_t>(Histogram::BucketIndex(v))];
  }

  void FlushTo(Histogram& h) const { h.AddBatch(count_, sum_, buckets_); }

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  std::array<int64_t, Histogram::kBuckets> buckets_{};
};

/// Name -> metric map. Lookup takes a mutex; the returned references are
/// stable for the registry's lifetime, so call sites cache them in
/// function-local statics. Names are dot-separated (`layer.metric`, e.g.
/// "spgemm.flops", "exec.chunks").
class MetricsRegistry {
 public:
  /// Process-wide registry (leaked singleton; safe in at-exit hooks).
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// JSON snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {"count": c, "sum": s,
  ///                          "buckets": [[upper_bound, count], ...]}}}
  /// Keys are sorted (std::map), so the output is stable. Histograms list
  /// only non-empty buckets.
  std::string DumpJson() const;

  /// Zeroes every registered metric (registrations persist). Tests and
  /// repeated bench sections use this to scope snapshots.
  void ResetAll();

  /// Visits every registered metric in name order, holding the registry
  /// mutex (callbacks must not call back into the registry). The
  /// Prometheus exposition writer (obs/exposition.h) is the consumer.
  void Visit(
      const std::function<void(const std::string&, const Counter&)>& counter,
      const std::function<void(const std::string&, const Gauge&)>& gauge,
      const std::function<void(const std::string&, const Histogram&)>&
          histogram) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace freehgc::obs

#endif  // FREEHGC_OBS_METRICS_H_
