#include "common.h"

#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "graph/serialize.h"
#include "obs/exposition.h"

namespace freehgc::perfbench {

namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;

// The metric sets declared in BENCHMARK.json ("end_to_end" and
// "per_layer"), with their units.
const MetricList& EndToEndMetrics() {
  static const MetricList kList = {
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"condense_s", "s"},        {"first_condense_s", "s"},
      {"latency_p50_ms", "ms"},   {"latency_tail_ms", "ms"},
      {"goodput_rps", "1/s"},     {"throughput_rps", "1/s"},
      {"upload_p50_ms", "ms"},
  };
  return kList;
}

const MetricList& PerLayerMetrics() {
  static const MetricList kList = {
      {"metapath.compose_ms", "ms"},
      {"metapath.compose_calls", "count"},
      {"sparse.spgemm_flops", "count"},
      {"sparse.spgemm_output_nnz", "count"},
      {"sparse.spgemm_entries_dropped", "count"},
      {"sparse.spgemm_symbolic_calls", "count"},
      {"core.target_self_ms", "ms"},
      {"core.father_self_ms", "ms"},
      {"core.leaf_ms", "ms"},
      {"core.assemble_ms", "ms"},
      {"core.condense_ms", "ms"},
      {"sparse.ppr_iterations", "count"},
      {"exec.busy_frac", "fraction"},
      {"serve.queue_ms", "ms"},
      {"serve.exec_ms", "ms"},
      {"wire.client_overhead_ms", "ms"},
      {"wire.reply_bytes", "bytes"},
      {"serve.coalesced_frac", "fraction"},
      {"serve.evalctx_builds", "count"},
      {"serve.evalctx_build_ms", "ms"},
      {"hgnn.blocks_propagated", "count"},
      {"pipeline.cache_hit_frac", "fraction"},
      {"pipeline.plan_hit_frac", "fraction"},
      {"pipeline.cache_bytes", "bytes"},
      {"serve.store_bytes", "bytes"},
      {"graph.upload_ms", "ms"},
      {"loadgen.max_lag_ms", "ms"},
      {"loadgen.late_sends", "count"},
      {"loadgen.generator_bound", "count"},
      {"trace.overhead_frac", "fraction"},
  };
  return kList;
}

std::mutex g_children_mu;
std::set<pid_t>& Children() {
  static std::set<pid_t> children;
  return children;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Derive(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
}

void Report::Print(const std::string& workload, bool trace) const {
  const MetricList& expected = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, unit] : expected) {
    const auto it = metrics.find(name);
    if (it == metrics.end() || it->second.unit != unit) {
      Die(std::string("workload did not report metric ") + name);
    }
  }
  if (metrics.size() != expected.size()) {
    Die("workload reported metrics outside the declared set");
  }
  std::printf("workload %s: attempted %lld, failed %lld\n", workload.c_str(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& what : mismatches) {
    std::fprintf(stderr, "mismatch: %s\n", what.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string ContainerBytes(const HeteroGraph& g, const std::string& dir,
                           const std::string& name) {
  const std::string path = dir + "/" + name + ".v3";
  const auto summary = SaveHeteroGraphV3(g, path);
  if (!summary.ok()) Die("cannot write " + path + ": " +
                         summary.status().ToString());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  if (bytes.size() != summary->file_bytes) Die("short read of " + path);
  return bytes;
}

Snapshot Snapshot::FromText(const std::string& exposition) {
  Snapshot snap;
  for (const obs::PromSample& s : obs::ParsePrometheusText(exposition)) {
    if (s.labels.empty()) snap.values[s.name] = s.value;
  }
  return snap;
}

Snapshot Snapshot::Local() {
  return FromText(obs::PrometheusText(obs::MetricsRegistry::Global()));
}

double Snapshot::Counter(const std::string& name) const {
  const auto it = values.find(obs::PrometheusName(name) + "_total");
  return it == values.end() ? 0.0 : it->second;
}

double Snapshot::Gauge(const std::string& name) const {
  const auto it = values.find(obs::PrometheusName(name));
  return it == values.end() ? 0.0 : it->second;
}

void SetCounterLayers(Report& report, const Snapshot& before,
                      const Snapshot& after, double ops) {
  auto delta = [&](const char* name) {
    return after.Counter(name) - before.Counter(name);
  };
  auto per_op = [&](const char* metric, const char* counter) {
    report.Set(metric, Ratio(delta(counter), ops), "count");
  };
  per_op("metapath.compose_calls", "metapath.compose_calls");
  per_op("sparse.spgemm_flops", "spgemm.flops");
  per_op("sparse.spgemm_output_nnz", "spgemm.output_nnz");
  per_op("sparse.spgemm_entries_dropped", "spgemm.entries_dropped");
  per_op("sparse.spgemm_symbolic_calls", "spgemm.symbolic_calls");
  per_op("sparse.ppr_iterations", "ppr.iterations");
  per_op("serve.evalctx_builds", "serve.evalctx.builds");
  per_op("hgnn.blocks_propagated", "hgnn.blocks_propagated");
  const double busy = delta("exec.worker_busy_ns");
  report.Set("exec.busy_frac", Ratio(busy, busy + delta("exec.worker_idle_ns")),
             "fraction");
  report.Set("serve.coalesced_frac",
             Ratio(delta("serve.coalesced"), delta("serve.requests.completed")),
             "fraction");
  const double hits = delta("pipeline.cache.hits");
  report.Set("pipeline.cache_hit_frac",
             Ratio(hits, hits + delta("pipeline.cache.misses")), "fraction");
  const double plan_hits = delta("pipeline.cache.plan_hits");
  report.Set("pipeline.plan_hit_frac",
             Ratio(plan_hits, plan_hits + delta("pipeline.cache.plan_misses")),
             "fraction");
  report.Set("pipeline.cache_bytes", after.Gauge("pipeline.cache.bytes"),
             "bytes");
  report.Set("serve.store_bytes", after.Gauge("serve.store.bytes"), "bytes");
}

void ZeroPerLayer(Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) report.Set(name, 0.0, unit);
}

void TrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  Children().insert(pid);
}

void UntrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  Children().erase(pid);
}

void Die(const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    for (pid_t pid : Children()) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    Children().clear();
  }
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::exit(1);
}

}  // namespace freehgc::perfbench
