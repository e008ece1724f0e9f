// Self-test of the benchmark statistics (stats.h). Exits non-zero on the
// first failed check. Run by `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

using namespace freehgc::perfbench;

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestNearestRank() {
  CHECK(NearestRank({}, 0.5) == 0.0);
  CHECK(NearestRank({7.0}, 0.0) == 7.0);
  CHECK(NearestRank({7.0}, 1.0) == 7.0);
  // Rank ceil(q n): q=0.5 over 1..10 is rank 5, q=0.51 rank 6.
  CHECK(NearestRank(Iota(10), 0.5) == 5.0);
  CHECK(NearestRank(Iota(10), 0.51) == 6.0);
  CHECK(NearestRank(Iota(100), 0.99) == 99.0);
  CHECK(NearestRank(Iota(100), 1.0) == 100.0);
  // Order of the input does not matter.
  CHECK(NearestRank({5, 1, 4, 2, 3}, 0.5) == 3.0);
  CHECK(Median({5, 1, 4, 2}) == 2.0);
  CHECK(Mean({}) == 0.0);
  CHECK(Near(Mean({1, 2, 6}), 3.0));
}

void TestTailRule() {
  // 100 samples: rank 90 has exactly 10 samples beyond it -> p90.
  Tail t = TailPercentile(Iota(100));
  CHECK(t.value == 90.0);
  CHECK(Near(t.percentile, 90.0));
  // 1000 samples -> p99.
  t = TailPercentile(Iota(1000));
  CHECK(t.value == 990.0);
  CHECK(Near(t.percentile, 99.0));
  // 25 samples -> rank 15 (p60): 10 beyond it.
  t = TailPercentile(Iota(25));
  CHECK(t.value == 15.0);
  CHECK(Near(t.percentile, 60.0));
  // Too few samples for 10 beyond the median: the tail is the median.
  t = TailPercentile(Iota(12));
  CHECK(t.value == 6.0);
  CHECK(Near(t.percentile, 50.0));
  t = TailPercentile(Iota(3));
  CHECK(t.value == 2.0);
  // A custom "beyond" count.
  t = TailPercentile(Iota(100), 1);
  CHECK(t.value == 99.0);
  t = TailPercentile({});
  CHECK(t.value == 0.0 && t.percentile == 0.0);
}

void TestGoodputStep() {
  std::vector<RateStep> steps = {
      {10, 100, 100, 1.0},  // passes
      {20, 200, 199, 2.0},  // 99.5% -> passes
      {30, 300, 290, 3.0},  // 96.7% -> fails
      {40, 400, 150, 900},  // fails both
  };
  CHECK(SelectGoodputStep(steps, 0.99, 100.0) == 1);
  // Lag bound disqualifies an otherwise passing step.
  steps[1].max_lag_ms = 500.0;
  CHECK(SelectGoodputStep(steps, 0.99, 100.0) == 0);
  // Highest passing rate wins even when a lower rate fails.
  steps[0].ok_within_limit = 50;
  steps[1].max_lag_ms = 2.0;
  CHECK(SelectGoodputStep(steps, 0.99, 100.0) == 1);
  // Steps need not be sorted.
  std::vector<RateStep> shuffled = {steps[3], steps[1], steps[2], steps[0]};
  CHECK(SelectGoodputStep(shuffled, 0.99, 100.0) == 1);
  // Nothing qualifies; an empty step never qualifies.
  CHECK(SelectGoodputStep({{10, 0, 0, 0.0}, {20, 10, 5, 0.0}}, 0.99, 1.0) ==
        -1);
}

void TestSelfTime() {
  const Interval parent{100, 200};
  CHECK(SelfTimeNs(parent, {}) == 100);
  // Disjoint children subtract their lengths.
  CHECK(SelfTimeNs(parent, {{110, 120}, {150, 170}}) == 70);
  // Overlapping children count their union once.
  CHECK(SelfTimeNs(parent, {{110, 140}, {130, 150}}) == 60);
  // A child nested inside another adds nothing.
  CHECK(SelfTimeNs(parent, {{110, 160}, {120, 130}}) == 50);
  // Children are clipped to the parent.
  CHECK(SelfTimeNs(parent, {{50, 120}, {190, 260}}) == 70);
  CHECK(SelfTimeNs(parent, {{0, 90}, {210, 300}}) == 100);
  // Full coverage leaves no self time; order does not matter.
  CHECK(SelfTimeNs(parent, {{150, 200}, {100, 150}}) == 0);
  CHECK(SelfTimeNs({5, 5}, {{0, 10}}) == 0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailRule();
  TestGoodputStep();
  TestSelfTime();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
