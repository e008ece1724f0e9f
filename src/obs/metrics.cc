#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace freehgc::obs {

namespace internal {
std::atomic<bool> g_detailed_metrics{false};
}  // namespace internal

void SetDetailedMetricsEnabled(bool enabled) {
  internal::g_detailed_metrics.store(enabled, std::memory_order_relaxed);
}

namespace {

void AppendKey(std::string& out, const std::string& name, bool& first) {
  if (!first) out += ", ";
  first = false;
  out += '"';
  out += name;  // metric names are identifier-like; no escaping needed
  out += "\": ";
}

std::string I64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

}  // namespace

int64_t Histogram::ApproxQuantile(double q) const {
  // The buckets exactly as PrometheusText lists them (one load per
  // bucket, empty ones skipped), so scrape and server share one estimate.
  std::vector<std::pair<double, double>> buckets;
  int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = BucketCount(b);
    if (n == 0) continue;
    cum += n;
    buckets.emplace_back(static_cast<double>(BucketUpper(b)),
                         static_cast<double>(cum));
  }
  return static_cast<int64_t>(QuantileFromCumulativeBuckets(buckets, q));
}

double QuantileFromCumulativeBuckets(
    const std::vector<std::pair<double, double>>& buckets, double q) {
  if (buckets.empty()) return 0.0;
  const double total = buckets.back().second;
  if (total <= 0.0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * total;
  if (rank < 1.0) rank = 1.0;
  double prev_bound = 0.0;
  double prev_cum = 0.0;
  for (const auto& [bound, cum] : buckets) {
    if (cum >= rank) {
      const double in_bucket = cum - prev_cum;
      if (in_bucket <= 0.0) return bound;
      if (std::isinf(bound)) return prev_bound;  // overflow bucket
      // Empty buckets are omitted, so the previous listed bound can sit
      // well below this bucket's true lower edge — e.g. an overload tail
      // whose observations all land in one high bucket. Bounds are powers
      // of two: the edge is bound/2 (0 for the first bucket).
      const double lower =
          std::max(prev_bound, bound > 1.0 ? bound / 2.0 : 0.0);
      const double frac = (rank - prev_cum) / in_bucket;
      return lower + frac * (bound - lower);
    }
    prev_bound = bound;
    prev_cum = cum;
  }
  return prev_bound;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    AppendKey(out, name, first);
    out += I64(c->Value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    AppendKey(out, name, first);
    out += I64(g->Value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    AppendKey(out, name, first);
    out += "{\"count\": " + I64(h->Count()) + ", \"sum\": " + I64(h->Sum()) +
           ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t n = h->BucketCount(b);
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      // Upper bound of bucket b (inclusive): 2^(b-1) ... see BucketIndex.
      const int64_t upper = b == 0 ? 1 : (int64_t{1} << b);
      out += "[" + I64(upper) + ", " + I64(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Visit(
    const std::function<void(const std::string&, const Counter&)>& counter,
    const std::function<void(const std::string&, const Gauge&)>& gauge,
    const std::function<void(const std::string&, const Histogram&)>& histogram)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) counter(name, *c);
  for (const auto& [name, g] : gauges_) gauge(name, *g);
  for (const auto& [name, h] : histograms_) histogram(name, *h);
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace freehgc::obs
