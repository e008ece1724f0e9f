// oneshot_aminer: the offline user of the paper's Fig. 8 configuration.
// One cold, uncached core::Condense after another on the default pool,
// over an AMiner-preset graph the program ingests from a v3 container.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "graph/serialize.h"
#include "obs/metrics.h"
#include "trace.h"

namespace freehgc::perfbench {

namespace {

constexpr double kScale = 0.5;
// The graph is the same for every workload seed: the condensation cost
// of an AMiner-preset graph swings by +-25% with its generator seed (a
// few hubs dominate the SpGEMM work), which would drown any change in
// run-to-run spread. The workload seed drives the selection seed.
constexpr uint64_t kGraphSeed = 1;
// Set-up is cheap here (~0.2 s); ten repetitions give setup_s and
// upload_p50_ms ten samples each.
constexpr int kSetupReps = 10;
// Fresh processes timed for first_condense_s.
constexpr int kFirstProbes = 5;
// A cold AMiner condense takes ~0.8 s on 4 cores; a pass runs at least
// this many calls however short --seconds is.
constexpr int kMinCalls = 5;
// Latency limit of the goodput count: calls that finish within it.
constexpr double kLatencyLimitMs = 2000.0;

core::FreeHgcOptions CondenseOptions(uint64_t seed) {
  core::FreeHgcOptions o;
  o.ratio = 0.002;
  o.max_hops = 2;
  o.max_paths = 12;
  o.max_row_nnz = 512;
  o.seed = Derive(seed, 1);
  return o;
}

// Runs `perfbench --probe <container> --seed <seed>` and parses its
// "<seconds> <fingerprint>" line.
bool RunProbe(const Options& opts, const std::string& container,
              double* seconds, uint64_t* fingerprint) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  const std::string exe = opts.bin_dir + "/perfbench";
  const std::string seed = std::to_string(opts.seed);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(exe.c_str(), exe.c_str(), "--probe", container.c_str(), "--seed",
            seed.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  TrackChild(pid);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  UntrackChild(pid);
  unsigned long long fp = 0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         std::sscanf(out.c_str(), "%lf %llx", seconds, &fp) == 2 &&
         (*fingerprint = fp, true);
}

struct Expected {
  uint64_t fingerprint = 0;
  std::vector<int32_t> selected;
};

bool Matches(const Result<core::CondensedResult>& r, const Expected& want) {
  return r.ok() && r->graph.ContentFingerprint() == want.fingerprint &&
         r->selected_target == want.selected;
}

struct Pass {
  std::vector<double> latency_ms;   // wall clock around each call
  std::vector<double> condense_s;   // CondensedResult::seconds
  double wall_s = 0.0;
  int within_limit = 0;
  // Traced passes only.
  std::vector<CondenseBreakdown> breakdowns;
  Snapshot before, after;
};

// Condenses back to back for `seconds` (and at least kMinCalls calls).
Pass RunPass(const HeteroGraph& g, const core::FreeHgcOptions& copts,
             const Expected& want, double seconds, bool traced, Report& rep) {
  Pass pass;
  obs::SetDetailedMetricsEnabled(traced);
  TimingComposer composer;
  if (traced) pass.before = Snapshot::Local();
  const int64_t start = NowNs();
  while (static_cast<int>(pass.latency_ms.size()) < kMinCalls ||
         NsToS(NowNs() - start) < seconds) {
    const int64_t t0 = NowNs();
    auto r = core::Condense(g, copts, nullptr, traced ? &composer : nullptr);
    const int64_t t1 = NowNs();
    rep.Op(Matches(r, want), "oneshot condense output differs from the "
                             "1-thread reference");
    if (!r.ok()) continue;
    pass.latency_ms.push_back(NsToMs(t1 - t0));
    pass.condense_s.push_back(r->seconds);
    if (NsToMs(t1 - t0) <= kLatencyLimitMs) ++pass.within_limit;
    if (traced) {
      pass.breakdowns.push_back(
          BreakDown(t1, r->stage_seconds, composer.TakeSpans()));
    }
  }
  pass.wall_s = NsToS(NowNs() - start);
  if (traced) pass.after = Snapshot::Local();
  obs::SetDetailedMetricsEnabled(false);
  return pass;
}

}  // namespace

Report RunOneshotAminer(const Options& opts) {
  Report rep;
  const core::FreeHgcOptions copts = CondenseOptions(opts.seed);

  // Set-up: generate the input, write it as a container, let the program
  // ingest it. Repeated; the median is setup_s.
  std::vector<double> setup_s, ingest_ms;
  HeteroGraph g;
  std::string bytes;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = NowNs();
    const HeteroGraph generated = datasets::MakeAminer(kGraphSeed, kScale);
    bytes = ContainerBytes(generated, opts.tmp_dir, "aminer");
    const int64_t t1 = NowNs();
    auto loaded = DeserializeHeteroGraph(bytes);
    const int64_t t2 = NowNs();
    if (!loaded.ok()) Die("ingest failed: " + loaded.status().ToString());
    rep.Op(loaded->ContentFingerprint() == generated.ContentFingerprint(),
           "ingested graph differs from the generated one");
    setup_s.push_back(NsToS(t2 - t0));
    ingest_ms.push_back(NsToMs(t2 - t1));
    g = std::move(*loaded);
  }

  // The 1-thread reference.
  Expected want;
  {
    exec::ExecContext one(1);
    auto ref = core::Condense(g, copts, &one);
    if (!ref.ok()) Die("reference condense failed: " + ref.status().ToString());
    want.fingerprint = ref->graph.ContentFingerprint();
    want.selected = ref->selected_target;
  }

  if (!opts.trace) {
    // The first condense of a process: what a command-line user pays.
    // Each probe is a fresh process that ingests the container and
    // condenses once.
    const std::string container = opts.tmp_dir + "/aminer.v3";
    std::ofstream(container, std::ios::binary) << bytes;
    std::vector<double> first_s;
    for (int i = 0; i < kFirstProbes; ++i) {
      double seconds = 0.0;
      uint64_t fp = 0;
      const bool ran = RunProbe(opts, container, &seconds, &fp);
      rep.Op(ran && fp == want.fingerprint,
             ran ? "first condense differs from the 1-thread reference"
                 : "first-condense probe failed");
      if (ran) first_s.push_back(seconds);
    }

    const Pass p = RunPass(g, copts, want, opts.seconds, false, rep);
    const Tail tail = TailPercentile(p.latency_ms);
    rep.Set("setup_s", Median(setup_s), "s");
    rep.Set("upload_p50_ms", Median(ingest_ms), "ms");
    rep.Set("first_condense_s", Median(first_s), "s");
    rep.Set("condense_s", Median(p.condense_s), "s");
    rep.Set("latency_p50_ms", Median(p.latency_ms), "ms");
    rep.Set("latency_tail_ms", tail.value, "ms");
    rep.Set("throughput_rps", p.latency_ms.size() / p.wall_s, "1/s");
    rep.Set("goodput_rps", p.within_limit / p.wall_s, "1/s");
    rep.Set("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("latency tail at p%.1f of %zu calls\n", tail.percentile,
                p.latency_ms.size());
    return rep;
  }

  // Traced run: an untraced half, then a traced half.
  const Pass plain = RunPass(g, copts, want, opts.seconds / 2, false, rep);
  const Pass p = RunPass(g, copts, want, opts.seconds / 2, true, rep);
  ZeroPerLayer(rep);
  SetCounterLayers(rep, p.before, p.after,
                   static_cast<double>(p.latency_ms.size()));
  SetBreakdownLayers(p.breakdowns, rep);
  rep.Set("core.condense_ms", Median(p.condense_s) * 1e3, "ms");
  rep.Set("graph.upload_ms", Median(ingest_ms), "ms");
  rep.Set("trace.overhead_frac",
          Median(p.latency_ms) / Median(plain.latency_ms) - 1.0, "fraction");
  return rep;
}

int ProbeFirstCondense(const std::string& container, uint64_t seed) {
  std::ifstream in(container, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  auto g = DeserializeHeteroGraph(bytes);
  if (!g.ok()) return 1;
  const int64_t t0 = NowNs();
  auto r = core::Condense(*g, CondenseOptions(seed));
  const double seconds = NsToS(NowNs() - t0);
  if (!r.ok()) return 1;
  std::printf("%.9f %llx\n", seconds,
              static_cast<unsigned long long>(r->graph.ContentFingerprint()));
  return 0;
}

}  // namespace freehgc::perfbench
