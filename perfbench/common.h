// Shared plumbing of the perfbench workloads: command-line options, the
// result line, seed derivation, a scratch directory inside the checkout,
// and small measurement helpers.
#ifndef FREEHGC_PERFBENCH_COMMON_H_
#define FREEHGC_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/hetero_graph.h"

namespace freehgc::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the freehgc_server binary.
  std::string bin_dir;
  /// Scratch directory (inside the working directory) for containers and
  /// server side files; removed when the run ends.
  std::string tmp_dir;
};

/// Wall clock in nanoseconds (steady).
int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// SplitMix64 step: the one way every workload input is derived from the
/// workload seed (`Derive(seed, k)` for the k-th input).
uint64_t Derive(uint64_t seed, uint64_t k);

/// The result of one workload run. Printed as the last stdout line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Names of the checks that failed (printed to stderr, not the JSON).
  std::vector<std::string> mismatches;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; a failed check marks it failed.
  void Op(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && attempted > 0; }
  /// Human-readable table on stdout, then the JSON line. Dies unless the
  /// metrics are exactly the end-to-end set (trace off) or the per-layer
  /// set (trace on) that BENCHMARK.json declares.
  void Print(const std::string& workload, bool trace) const;
};

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double PeakRssMb(pid_t pid = 0);

/// Writes `g` as a v3 container file under `dir` and returns its bytes:
/// the form every workload hands its generated graphs to the program in.
std::string ContainerBytes(const HeteroGraph& g, const std::string& dir,
                           const std::string& name);

/// Counters and gauges of one metrics registry, read back from its
/// Prometheus exposition: in-process (obs::PrometheusText) or from a
/// server over the METRICS wire op. Lookups take registry names
/// ("spgemm.flops"); an absent metric reads 0.
struct Snapshot {
  std::map<std::string, double> values;

  static Snapshot FromText(const std::string& exposition);
  static Snapshot Local();
  double Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
};

/// Sets the per-layer metrics read from registry counters between two
/// snapshots: counts are per operation (`ops` condense operations ran in
/// between), fractions are ratios of the deltas, byte gauges are read
/// from `after`.
void SetCounterLayers(Report& report, const Snapshot& before,
                      const Snapshot& after, double ops);

/// Sets every per-layer metric to 0; workloads then overwrite the layers
/// they exercise (a layer a workload never enters reads 0).
void ZeroPerLayer(Report& report);

/// Registers a child process, so Die() can stop it before exiting.
void TrackChild(pid_t pid);
void UntrackChild(pid_t pid);

/// Stops every tracked child, prints `message` to stderr and exits 1
/// without printing a result line.
[[noreturn]] void Die(const std::string& message);

/// The workload entry points.
Report RunOneshotAminer(const Options& opts);
/// `perfbench --probe <container> --seed <n>`: ingest the container and
/// time the first condense of this process (oneshot_aminer's
/// first_condense_s); prints "<seconds> <fingerprint hex>".
int ProbeFirstCondense(const std::string& container, uint64_t seed);
Report RunServeWarm(const Options& opts);
Report RunServeChurn(const Options& opts);

}  // namespace freehgc::perfbench

#endif  // FREEHGC_PERFBENCH_COMMON_H_
