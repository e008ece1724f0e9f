#include "stats.h"

#include <algorithm>
#include <cmath>

namespace freehgc::perfbench {

namespace {

// 1-based nearest rank of quantile q over n samples.
size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  if (r < 1.0) return 1;
  if (r > static_cast<double>(n)) return n;
  return static_cast<size_t>(r);
}

}  // namespace

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[Rank(samples.size(), q) - 1];
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

Tail TailPercentile(std::vector<double> samples, int beyond) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t median_rank = Rank(n, 0.5);
  const size_t want = static_cast<size_t>(beyond < 0 ? 0 : beyond);
  size_t rank = n > want ? n - want : 0;
  if (rank < median_rank) rank = median_rank;
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

int SelectGoodputStep(const std::vector<RateStep>& steps, double min_ok_frac,
                      double max_lag_ms) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    const RateStep& s = steps[i];
    if (s.sent <= 0 || s.max_lag_ms > max_lag_ms) continue;
    const double frac =
        static_cast<double>(s.ok_within_limit) / static_cast<double>(s.sent);
    if (frac < min_ok_frac) continue;
    if (best < 0 || s.rate_rps > steps[static_cast<size_t>(best)].rate_rps) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children) {
  const int64_t total = parent.end_ns - parent.begin_ns;
  if (total <= 0) return 0;
  // Clip to the parent, then sweep the union in begin order.
  for (Interval& c : children) {
    c.begin_ns = std::max(c.begin_ns, parent.begin_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_ns < b.begin_ns;
            });
  int64_t covered = 0;
  int64_t reach = parent.begin_ns;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end_ns <= c.begin_ns) continue;
    const int64_t from = std::max(c.begin_ns, reach);
    if (c.end_ns > from) {
      covered += c.end_ns - from;
      reach = c.end_ns;
    }
  }
  return total - covered;
}

}  // namespace freehgc::perfbench
