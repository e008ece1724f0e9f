// serve_warm and serve_churn: a forked freehgc_server driven over loopback
// through serve::ServeClient, from at most four client connections.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datasets/generator.h"
#include "graph/serialize.h"
#include "hgnn/trainer.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "trace.h"

extern char** environ;

namespace freehgc::perfbench {

namespace {

// ---------------------------------------------------------------------------
// Constants shared by both serve workloads.

struct PathConfig {
  int max_paths;
  int64_t max_row_nnz;
};
constexpr PathConfig kPathConfigs[] = {{8, 512}, {12, 512}, {8, 256}};
constexpr int kNumPathConfigs = 3;
constexpr int kMaxHops = 2;
constexpr int kSlots = 2;
constexpr int kSetupReps = 5;
// A request later than this behind its schedule is not sent at all; it
// counts as missing the latency limit. Bounds the length of an
// overloaded step.
constexpr double kAbortLagMs = 1000.0;
// A send later than this behind its schedule counts as a late send.
constexpr double kLateSendMs = 1.0;

// ---------------------------------------------------------------------------
// The server under test.

class ServerProcess {
 public:
  ServerProcess(const Options& opts, int index, bool detailed_metrics) {
    const std::string base = StrFormat("%s/server%d", opts.tmp_dir.c_str(),
                                       index);
    const std::string port_file = base + ".port";
    const std::string log_file = base + ".log";
    ::unlink(port_file.c_str());
    std::vector<std::string> args = {
        opts.bin_dir + "/freehgc_server", "--port=0",
        "--port-file=" + port_file, StrFormat("--slots=%d", kSlots),
        "--queue-capacity=64"};
    // The child's environment: ours, minus observability switches, plus
    // FREEHGC_METRICS when detailed (timing) metrics are wanted.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("FREEHGC_TRACE=", 0) == 0) continue;
      if (kv.rfind("FREEHGC_METRICS=", 0) == 0) continue;
      env.push_back(kv);
    }
    if (detailed_metrics) env.push_back("FREEHGC_METRICS=" + base + ".json");
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd =
          ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    TrackChild(pid_);
    for (int i = 0; i < 2000 && port_ <= 0; ++i) {
      if (FILE* f = std::fopen(port_file.c_str(), "r")) {
        if (std::fscanf(f, "%d", &port_) != 1) port_ = 0;
        std::fclose(f);
      }
      if (port_ > 0) break;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        UntrackChild(pid_);
        pid_ = -1;
        Die("freehgc_server exited during start-up; see " + log_file);
      }
      ::usleep(5000);
    }
    if (port_ <= 0) Die("freehgc_server never wrote its port file");
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  double PeakRssMb() const { return perfbench::PeakRssMb(pid_); }

  /// SIGTERM (the server drains, then exits) and wait.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    UntrackChild(pid_);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

std::unique_ptr<serve::ServeClient> Connect(int port) {
  auto client = std::make_unique<serve::ServeClient>();
  const Status st = client->Connect(port);
  if (!st.ok()) Die("cannot connect to freehgc_server: " + st.ToString());
  return client;
}

std::vector<std::unique_ptr<serve::ServeClient>> ConnectAll(int port, int n) {
  std::vector<std::unique_ptr<serve::ServeClient>> out;
  for (int i = 0; i < n; ++i) out.push_back(Connect(port));
  return out;
}

// ---------------------------------------------------------------------------
// Inputs, references and checks.

/// A generated graph as the program receives it: v3 container bytes.
struct GraphInput {
  std::string name;
  std::string bytes;
  uint64_t fingerprint = 0;
};

HeteroGraph Generate(const std::string& preset, uint64_t seed, double scale) {
  auto g = datasets::MakeByName(preset, seed, scale);
  if (!g.ok()) Die("cannot generate " + preset + ": " + g.status().ToString());
  return std::move(*g);
}

GraphInput MakeInput(const std::string& name, const std::string& preset,
                     uint64_t seed, double scale, const std::string& tmp) {
  const HeteroGraph g = Generate(preset, seed, scale);
  GraphInput in;
  in.name = name;
  in.bytes = ContainerBytes(g, tmp, name);
  in.fingerprint = g.ContentFingerprint();
  return in;
}

/// Uploads `in`; returns the client-observed milliseconds.
double Upload(serve::ServeClient& client, const GraphInput& in, Report& rep) {
  const int64_t t0 = NowNs();
  auto info = client.UploadGraph(in.name, in.bytes);
  const int64_t t1 = NowNs();
  rep.Op(info.ok() && info->fingerprint == in.fingerprint,
         "upload of " + in.name +
             (info.ok() ? " returned another fingerprint"
                        : " failed: " + info.status().ToString()));
  return NsToMs(t1 - t0);
}

serve::CondenseRequest MakeRequest(const std::string& graph, double ratio,
                                   uint64_t seed, const PathConfig& cfg,
                                   bool return_graph) {
  serve::CondenseRequest req;
  req.graph = graph;
  req.method = "freehgc";
  req.ratio = ratio;
  req.seed = seed;
  req.max_hops = kMaxHops;
  req.max_paths = cfg.max_paths;
  req.max_row_nnz = cfg.max_row_nnz;
  req.return_graph = return_graph;
  return req;
}

/// What a correct reply to one request carries.
struct Reference {
  int64_t nodes = 0;
  int64_t edges = 0;
  size_t storage_bytes = 0;
  uint64_t graph_fingerprint = 0;      // the full graph
  uint64_t condensed_fingerprint = 0;  // checked for return_graph
};

hgnn::PropagateOptions PropagateFor(const serve::CondenseRequest& req) {
  hgnn::PropagateOptions p;
  p.max_hops = req.max_hops;
  p.max_paths = req.max_paths;
  p.max_row_nnz = req.max_row_nnz;
  return p;
}

/// The in-process answer to `req` from pipeline::MethodRegistry.
Reference ComputeReference(const hgnn::EvalContext& ctx,
                           const serve::CondenseRequest& req,
                           pipeline::ArtifactCache* cache) {
  const pipeline::CondensationMethod* method =
      pipeline::MethodRegistry::Global().Find(req.method);
  if (method == nullptr) Die("method " + req.method + " is not registered");
  pipeline::RunSpec spec;
  spec.ratio = req.ratio;
  spec.seed = req.seed;
  pipeline::PipelineEnv env;
  env.cache = cache;
  auto data = method->Condense(ctx, spec, env);
  if (!data.ok()) Die("reference condense failed: " + data.status().ToString());
  Reference ref;
  ref.nodes = data->graph.TotalNodes();
  ref.edges = data->graph.TotalEdges();
  ref.storage_bytes = data->storage_bytes;
  ref.graph_fingerprint = ctx.full->ContentFingerprint();
  ref.condensed_fingerprint = data->graph.ContentFingerprint();
  return ref;
}

/// Replays `req` in process through core::Condense with a timing shim
/// over `cache` (the server's own cache layout), for the per-layer
/// breakdown the server does not export. With `build_context` the
/// request's EvalContext is built first, through the shim, as the server
/// does for a request whose context is not resident yet.
CondenseBreakdown Replica(const HeteroGraph& g,
                          const serve::CondenseRequest& req,
                          pipeline::ArtifactCache* cache, bool build_context) {
  TimingComposer composer(cache);
  if (build_context) {
    hgnn::BuildEvalContext(g, PropagateFor(req), nullptr, &composer);
  }
  core::FreeHgcOptions o = pipeline::RunSpec().freehgc;
  o.ratio = req.ratio;
  o.seed = req.seed;
  o.max_hops = req.max_hops;
  o.max_paths = req.max_paths;
  o.max_row_nnz = req.max_row_nnz;
  auto r = core::Condense(g, o, nullptr, &composer);
  const int64_t end = NowNs();
  if (!r.ok()) Die("replica condense failed: " + r.status().ToString());
  return BreakDown(end, r->stage_seconds, composer.TakeSpans());
}

/// One condense request as the client saw it.
struct Record {
  /// The request's class: its index in the workload's class list (warm)
  /// or in its job (churn).
  uint32_t class_index = 0;
  bool sent = false;
  bool ok = false;
  bool match = false;
  int64_t sched_ns = 0;  // when it was due (open loop) or sent (closed)
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  double queue_s = 0.0;
  double total_s = 0.0;
  double condense_s = 0.0;
  bool evalctx_hit = true;
  size_t reply_bytes = 0;

  double LatencyMs() const { return NsToMs(done_ns - sched_ns); }
};

bool ReplyMatches(const serve::CondenseReply& reply, const Reference& ref,
                  bool return_graph) {
  if (reply.nodes != ref.nodes || reply.edges != ref.edges ||
      reply.storage_bytes != ref.storage_bytes ||
      reply.graph_fingerprint != ref.graph_fingerprint) {
    return false;
  }
  if (!return_graph) return true;
  auto g = DeserializeHeteroGraph(reply.graph_bytes);
  return g.ok() && g->ContentFingerprint() == ref.condensed_fingerprint;
}

/// Sends `req` and checks the reply against `ref`.
Record Send(serve::ServeClient& client, const serve::CondenseRequest& req,
             const Reference& ref) {
  Record r;
  r.sent = true;
  r.send_ns = NowNs();
  r.sched_ns = r.send_ns;
  auto reply = client.Condense(req);
  r.done_ns = NowNs();
  if (!reply.ok()) return r;
  r.ok = true;
  r.queue_s = reply->queue_seconds;
  r.total_s = reply->total_seconds;
  r.condense_s = reply->condense_seconds;
  r.evalctx_hit = reply->evalctx_hit;
  serve::WireWriter w;
  serve::EncodeCondenseReply(w, *reply);
  r.reply_bytes = w.payload().size();
  r.match = ReplyMatches(*reply, ref, req.return_graph);
  return r;
}

void CountRecords(const std::vector<Record>& records, Report& rep,
                  const char* what) {
  for (const Record& r : records) {
    if (!r.sent) continue;
    rep.Op(r.ok && r.match,
           StrFormat("%s: %s", what,
                     r.ok ? "reply differs from the MethodRegistry reference"
                          : "request failed"));
  }
}

// Per-layer metrics read from the replies of a pass.
void SetReplyLayers(const std::vector<Record>& records, Report& rep) {
  std::vector<double> condense_ms, queue_ms, exec_ms, overhead_ms, bytes,
      build_ms;
  for (const Record& r : records) {
    if (!r.ok) continue;
    condense_ms.push_back(r.condense_s * 1e3);
    queue_ms.push_back(r.queue_s * 1e3);
    exec_ms.push_back((r.total_s - r.queue_s) * 1e3);
    overhead_ms.push_back(NsToMs(r.done_ns - r.send_ns) - r.total_s * 1e3);
    bytes.push_back(static_cast<double>(r.reply_bytes));
    if (!r.evalctx_hit) {
      build_ms.push_back((r.total_s - r.queue_s - r.condense_s) * 1e3);
    }
  }
  rep.Set("core.condense_ms", Median(condense_ms), "ms");
  rep.Set("serve.queue_ms", Median(queue_ms), "ms");
  rep.Set("serve.exec_ms", Median(exec_ms), "ms");
  rep.Set("wire.client_overhead_ms", Median(overhead_ms), "ms");
  rep.Set("wire.reply_bytes", Mean(bytes), "bytes");
  rep.Set("serve.evalctx_build_ms", Median(build_ms), "ms");
}

// ---------------------------------------------------------------------------
// Open-loop load generator.

// The loadgen's Pareto-80/20 picker runs over this many request keys per
// class, folded onto the classes. Over 120 items its binomial group table
// sends 90% of picks to a single item; over 100x as many keys the hottest
// group spans 18 classes, which keeps one class's request seed from
// setting the whole run's median.
constexpr uint32_t kKeysPerClass = 100;
// Class weights are estimated once from this many picks of a fixed seed.
constexpr int kWeightPicks = 1 << 20;
constexpr uint64_t kWeightSeed = 0x5eed;

/// Popularity of each class under the folded Pareto picker.
std::vector<double> ClassWeights(uint32_t classes) {
  const loadgen::ParetoPicker picker(classes * kKeysPerClass);
  Rng rng(kWeightSeed);
  std::vector<double> w(classes, 0.0);
  for (int i = 0; i < kWeightPicks; ++i) {
    const uint32_t key = picker.Pick(static_cast<uint32_t>(rng.NextU64()),
                                     static_cast<uint32_t>(rng.NextU64()));
    w[key % classes] += 1.0 / kWeightPicks;
  }
  return w;
}

/// rate x seconds arrivals. Every seed sends the same multiset of classes
/// (each class's share of the count is its Pareto weight, rounded by
/// largest remainder), so the class mix cannot move a run's medians; the
/// seed shuffles their order and draws the arrival times as sorted
/// uniforms (a Poisson process conditioned on its count).
std::vector<loadgen::Arrival> Schedule(uint64_t seed, double rate_rps,
                                       double seconds,
                                       const std::vector<double>& weights) {
  const int64_t count = static_cast<int64_t>(rate_rps * seconds + 0.5);
  std::vector<int64_t> per_class(weights.size());
  std::vector<std::pair<double, uint32_t>> remainders;
  int64_t assigned = 0;
  for (uint32_t c = 0; c < weights.size(); ++c) {
    const double exact = weights[c] * static_cast<double>(count);
    per_class[c] = static_cast<int64_t>(exact);
    assigned += per_class[c];
    remainders.emplace_back(exact - static_cast<double>(per_class[c]), c);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < count; ++i, ++assigned) {
    ++per_class[remainders[i % remainders.size()].second];
  }
  std::vector<loadgen::Arrival> out;
  for (uint32_t c = 0; c < weights.size(); ++c) {
    for (int64_t k = 0; k < per_class[c]; ++k) {
      loadgen::Arrival a;
      a.class_index = c;
      out.push_back(a);
    }
  }
  Rng rng(seed);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  std::vector<int64_t> offsets;
  for (size_t i = 0; i < out.size(); ++i) {
    offsets.push_back(static_cast<int64_t>(rng.NextDouble() * seconds * 1e9));
  }
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 0; i < out.size(); ++i) out[i].offset_ns = offsets[i];
  return out;
}

struct OpenLoopResult {
  std::vector<Record> records;  // one per arrival, in schedule order
  int64_t start_ns = 0;
  double seconds = 0.0;  // scheduled length
  double max_lag_ms = 0.0;
  int64_t late_sends = 0;

  /// From the start of the schedule to the last reply: the interval the
  /// replies arrived in (the scheduled length when nothing was sent).
  double SpanSeconds() const {
    int64_t end = 0;
    for (const Record& r : records) end = std::max(end, r.done_ns);
    return end > start_ns ? NsToS(end - start_ns) : seconds;
  }
};

/// Replays `schedule` open loop: each connection takes the next unsent
/// arrival as soon as it is free, sleeps until it is due and sends it.
/// Latency runs from the due time, so time spent waiting for a free
/// connection counts.
OpenLoopResult RunOpenLoop(
    std::vector<std::unique_ptr<serve::ServeClient>>& conns,
    const std::vector<loadgen::Arrival>& schedule, double seconds,
    const std::function<Record(serve::ServeClient&, uint32_t)>& send) {
  OpenLoopResult out;
  out.records.resize(schedule.size());
  out.seconds = seconds;
  out.start_ns = NowNs() + 2'000'000;  // let the threads start first
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back([&, client = conn.get()] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const int64_t due = out.start_ns + schedule[i].offset_ns;
        const int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        Record& rec = out.records[i];
        rec.class_index = schedule[i].class_index;
        rec.sched_ns = due;
        if (NsToMs(NowNs() - due) > kAbortLagMs) continue;  // never sent
        Record r = send(*client, schedule[i].class_index);
        r.class_index = schedule[i].class_index;
        r.sched_ns = due;
        rec = r;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Record& r : out.records) {
    // An arrival dropped for lateness was at least kAbortLagMs late.
    const double lag = r.sent ? NsToMs(r.send_ns - r.sched_ns) : kAbortLagMs;
    out.max_lag_ms = std::max(out.max_lag_ms, lag);
    if (lag > kLateSendMs) ++out.late_sends;
  }
  return out;
}

/// The fixed-rate step summary of an open-loop pass (stats.h).
RateStep Summarize(const OpenLoopResult& r, double rate_rps,
                   double limit_ms) {
  RateStep s;
  s.rate_rps = rate_rps;
  s.sent = static_cast<int64_t>(r.records.size());
  for (const Record& rec : r.records) {
    if (rec.sent && rec.ok && rec.match && rec.LatencyMs() <= limit_ms) {
      ++s.ok_within_limit;
    }
  }
  s.max_lag_ms = r.max_lag_ms;
  return s;
}

/// Server-side condensation seconds of a request: per class with at
/// least `min_replies` OK replies, the fastest reply's condense_seconds;
/// averaged over those classes. The fastest of a class is its cost with
/// the least interference from other work on the machine, and averaging
/// per class keeps clusters of classes with different costs from moving
/// the figure. Every seed sends the same classes equally often, so the
/// set of classes averaged is fixed too.
double FastestPerClassSeconds(const std::vector<Record>& records,
                              size_t min_replies) {
  std::map<uint32_t, std::vector<double>> by_class;
  for (const Record& r : records) {
    if (r.ok) by_class[r.class_index].push_back(r.condense_s);
  }
  std::vector<double> fastest;
  for (const auto& [cls, xs] : by_class) {
    if (xs.size() >= min_replies) {
      fastest.push_back(*std::min_element(xs.begin(), xs.end()));
    }
  }
  return Mean(fastest);
}

std::vector<double> OkLatenciesMs(const std::vector<Record>& records) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (r.ok) out.push_back(r.LatencyMs());
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve_warm

const char* const kWarmGraphs[] = {"freebase", "dblp"};
constexpr int kNumWarmGraphs = 2;
constexpr double kWarmScale = 1.0;
// As in oneshot_aminer, the resident graphs do not change with the
// workload seed (their cost swings with the generator seed); the seed
// drives the request seeds and the arrival schedule.
constexpr uint64_t kWarmGraphSeeds[] = {1, 2};
constexpr double kWarmRatios[] = {0.01, 0.05};
constexpr int kSeedsPerKind = 10;
// 2 graphs x 2 ratios x 3 path configs = 12 kinds; x 10 seeds.
constexpr int kNumKinds = kNumWarmGraphs * 2 * kNumPathConfigs;
constexpr int kWarmClasses = kNumKinds * kSeedsPerKind;
constexpr int kWarmConnections = 4;
// Fixed offered rates (requests/s). The first is the nominal rate the
// latency metrics are taken at; goodput is the highest that meets the
// limit.
constexpr double kWarmRates[] = {10.0, 24.0, 60.0};
constexpr int kNumWarmRates = 3;
// Share of --seconds spent at the nominal rate; the rest is split
// evenly between the higher steps.
constexpr double kNominalShare = 0.6;
constexpr double kWarmLimitMs = 500.0;
constexpr double kGoodputOkFrac = 0.99;

struct WarmClass {
  int graph = 0;
  serve::CondenseRequest request;
};

// Class i has kind i % 12 and seed slot i / 12, so the loadgen's hottest
// classes (the lowest indices) span both graphs and every kind; one class
// in eight returns its condensed graph.
std::vector<WarmClass> WarmClasses(uint64_t seed) {
  std::vector<WarmClass> out;
  for (int i = 0; i < kWarmClasses; ++i) {
    const int kind = i % kNumKinds;
    const int slot = i / kNumKinds;
    WarmClass c;
    c.graph = kind % kNumWarmGraphs;
    const double ratio = kWarmRatios[(kind / kNumWarmGraphs) % 2];
    const PathConfig& cfg = kPathConfigs[kind / (kNumWarmGraphs * 2)];
    c.request = MakeRequest(kWarmGraphs[c.graph], ratio,
                            Derive(seed, 300 + static_cast<uint64_t>(slot)),
                            cfg, i % 8 == 7);
    out.push_back(c);
  }
  return out;
}

struct WarmServer {
  std::unique_ptr<ServerProcess> process;
  std::vector<std::unique_ptr<serve::ServeClient>> conns;
};

// Starts a server, uploads both graphs and builds every EvalContext (one
// request per graph and path config). Adds one sample each to `upload_ms`
// (both uploads) and `first_s` (mean of the first request per graph).
WarmServer StartWarm(const Options& opts, int index, bool detailed,
                     const std::vector<WarmClass>& classes,
                     const std::vector<Reference>& refs, Report& rep,
                     std::vector<double>* upload_ms,
                     std::vector<double>* first_s) {
  WarmServer ws;
  std::vector<GraphInput> inputs;
  for (int gi = 0; gi < kNumWarmGraphs; ++gi) {
    inputs.push_back(MakeInput(kWarmGraphs[gi], kWarmGraphs[gi],
                               kWarmGraphSeeds[gi], kWarmScale,
                               opts.tmp_dir));
  }
  ws.process = std::make_unique<ServerProcess>(opts, index, detailed);
  ws.conns = ConnectAll(ws.process->port(), kWarmConnections);
  serve::ServeClient& admin = *ws.conns[0];
  double upload = 0.0;
  for (const GraphInput& in : inputs) upload += Upload(admin, in, rep);
  upload_ms->push_back(upload);
  // Classes 0..11 are the twelve kinds at seed slot 0; those at the
  // first ratio cover every (graph, path config).
  double first = 0.0;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    if ((kind / kNumWarmGraphs) % 2 != 0) continue;
    const Record r = Send(admin, classes[kind].request, refs[kind]);
    CountRecords({r}, rep, "serve_warm warm-up");
    if (kind < kNumWarmGraphs) first += NsToS(r.done_ns - r.send_ns);
  }
  first_s->push_back(first / kNumWarmGraphs);
  return ws;
}

std::vector<loadgen::Arrival> WarmSchedule(uint64_t seed, double rate,
                                           double seconds) {
  static const std::vector<double> weights = ClassWeights(kWarmClasses);
  return Schedule(seed, rate, seconds, weights);
}

OpenLoopResult RunWarmStep(WarmServer& ws, const std::vector<WarmClass>& classes,
                           const std::vector<Reference>& refs, uint64_t seed,
                           double rate, double seconds) {
  const auto schedule = WarmSchedule(seed, rate, seconds);
  return RunOpenLoop(ws.conns, schedule, seconds,
                     [&](serve::ServeClient& c, uint32_t cls) {
                       return Send(c, classes[cls].request, refs[cls]);
                     });
}

}  // namespace

Report RunServeWarm(const Options& opts) {
  Report rep;
  const std::vector<WarmClass> classes = WarmClasses(opts.seed);

  // References for every class (in process, outside the timed set-up).
  std::vector<Reference> refs(classes.size());
  {
    pipeline::ArtifactCache cache;
    for (int gi = 0; gi < kNumWarmGraphs; ++gi) {
      const HeteroGraph g =
          Generate(kWarmGraphs[gi], kWarmGraphSeeds[gi], kWarmScale);
      for (const PathConfig& cfg : kPathConfigs) {
        const serve::CondenseRequest probe =
            MakeRequest(kWarmGraphs[gi], kWarmRatios[0], 0, cfg, false);
        const hgnn::EvalContext ctx =
            hgnn::BuildEvalContext(g, PropagateFor(probe), nullptr, &cache);
        for (size_t i = 0; i < classes.size(); ++i) {
          const serve::CondenseRequest& req = classes[i].request;
          if (classes[i].graph != gi || req.max_paths != cfg.max_paths ||
              req.max_row_nnz != cfg.max_row_nnz) {
            continue;
          }
          refs[i] = ComputeReference(ctx, req, &cache);
        }
      }
    }
  }

  std::vector<double> setup_s, upload_ms, first_s;
  WarmServer ws;
  for (int i = 0; i < kSetupReps; ++i) {
    ws = WarmServer();  // stops the previous server
    const int64_t t0 = NowNs();
    ws = StartWarm(opts, i, false, classes, refs, rep, &upload_ms, &first_s);
    setup_s.push_back(NsToS(NowNs() - t0));
  }

  const double nominal_s = opts.seconds * (opts.trace ? 0.5 : kNominalShare);
  const OpenLoopResult nominal = RunWarmStep(
      ws, classes, refs, Derive(opts.seed, 500), kWarmRates[0], nominal_s);
  CountRecords(nominal.records, rep, "serve_warm");

  if (!opts.trace) {
    std::vector<RateStep> steps = {
        Summarize(nominal, kWarmRates[0], kWarmLimitMs)};
    std::vector<double> spans = {nominal.SpanSeconds()};
    const double step_s =
        opts.seconds * (1.0 - kNominalShare) / (kNumWarmRates - 1);
    for (int k = 1; k < kNumWarmRates; ++k) {
      const OpenLoopResult r =
          RunWarmStep(ws, classes, refs, Derive(opts.seed, 500 + k),
                      kWarmRates[k], step_s);
      CountRecords(r.records, rep, "serve_warm");
      steps.push_back(Summarize(r, kWarmRates[k], kWarmLimitMs));
      spans.push_back(r.SpanSeconds());
    }
    int best = SelectGoodputStep(steps, kGoodputOkFrac, kWarmLimitMs);
    if (best < 0) {
      std::printf("no rate met the latency limit; goodput is the nominal "
                  "step's\n");
      best = 0;
    }
    const std::vector<double> lat = OkLatenciesMs(nominal.records);
    const Tail tail = TailPercentile(lat);
    rep.Set("setup_s", Median(setup_s), "s");
    rep.Set("upload_p50_ms", Median(upload_ms), "ms");
    rep.Set("first_condense_s", Median(first_s), "s");
    rep.Set("condense_s", FastestPerClassSeconds(nominal.records, 3), "s");
    rep.Set("latency_p50_ms", Median(lat), "ms");
    rep.Set("latency_tail_ms", tail.value, "ms");
    rep.Set("throughput_rps", lat.size() / nominal.SpanSeconds(), "1/s");
    rep.Set("goodput_rps",
            steps[static_cast<size_t>(best)].ok_within_limit /
                spans[static_cast<size_t>(best)],
            "1/s");
    rep.Set("peak_rss_mb", ws.process->PeakRssMb(), "MB");
    std::printf("latency tail at p%.1f of %zu replies; goodput step %.0f "
                "rps; nominal max lag %.2f ms\n",
                tail.percentile, lat.size(), steps[best].rate_rps,
                nominal.max_lag_ms);
    if (nominal.max_lag_ms > kWarmLimitMs) {
      std::printf("generator-bound: the nominal step lagged %.1f ms behind "
                  "its schedule, past the %.0f ms limit\n",
                  nominal.max_lag_ms, kWarmLimitMs);
    }
    for (const RateStep& s : steps) {
      std::printf("  step %5.1f rps: %lld sent, %lld ok within %.0f ms, "
                  "max lag %.1f ms\n",
                  s.rate_rps, static_cast<long long>(s.sent),
                  static_cast<long long>(s.ok_within_limit), kWarmLimitMs,
                  s.max_lag_ms);
    }
    return rep;
  }

  // Traced run: the nominal pass above was untraced; repeat it against a
  // fresh server with detailed metrics armed, scraping METRICS around it.
  ws = WarmServer();
  std::vector<double> ignored_upload, ignored_first;
  ws = StartWarm(opts, kSetupReps, true, classes, refs, rep, &ignored_upload,
                 &ignored_first);
  const Snapshot before = Snapshot::FromText(*ws.conns[0]->Metrics());
  const OpenLoopResult traced = RunWarmStep(
      ws, classes, refs, Derive(opts.seed, 500), kWarmRates[0], nominal_s);
  const Snapshot after = Snapshot::FromText(*ws.conns[0]->Metrics());
  CountRecords(traced.records, rep, "serve_warm traced");

  ZeroPerLayer(rep);
  int64_t ops = 0;
  for (const Record& r : traced.records) ops += r.sent ? 1 : 0;
  SetCounterLayers(rep, before, after, static_cast<double>(ops));
  SetReplyLayers(traced.records, rep);
  {
    // Replicas of each class the traced pass sent, against a cache warmed
    // the way the server's was.
    pipeline::ArtifactCache cache;
    std::vector<CondenseBreakdown> breakdowns;
    for (int gi = 0; gi < kNumWarmGraphs; ++gi) {
      const HeteroGraph g =
          Generate(kWarmGraphs[gi], kWarmGraphSeeds[gi], kWarmScale);
      for (const PathConfig& cfg : kPathConfigs) {
        hgnn::BuildEvalContext(
            g, PropagateFor(MakeRequest("", kWarmRatios[0], 0, cfg, false)),
            nullptr, &cache);
      }
      const auto schedule =
          WarmSchedule(Derive(opts.seed, 500), kWarmRates[0], nominal_s);
      for (const loadgen::Arrival& a : schedule) {
        const WarmClass& c = classes[a.class_index];
        if (c.graph == gi) {
          breakdowns.push_back(Replica(g, c.request, &cache, false));
        }
      }
    }
    SetBreakdownLayers(breakdowns, rep);
  }
  rep.Set("graph.upload_ms", Median(upload_ms), "ms");
  rep.Set("loadgen.max_lag_ms", traced.max_lag_ms, "ms");
  rep.Set("loadgen.late_sends", static_cast<double>(traced.late_sends),
          "count");
  rep.Set("loadgen.generator_bound",
          traced.max_lag_ms > kWarmLimitMs ? 1.0 : 0.0, "count");
  rep.Set("trace.overhead_frac",
          Median(OkLatenciesMs(traced.records)) /
                  Median(OkLatenciesMs(nominal.records)) -
              1.0,
          "fraction");
  return rep;
}

// ---------------------------------------------------------------------------
// serve_churn

namespace {

const char* const kChurnPresets[] = {"dblp", "imdb", "acm"};
constexpr double kChurnScale = 0.35;
constexpr double kChurnRatio = 0.05;
constexpr int kChurnConnections = 2;
// Jobs per second of --seconds: the job list is fixed for a given
// --seconds, so peak memory does not depend on how fast the program is.
constexpr double kChurnJobsPerSecond = 3.0;
constexpr double kChurnLimitMs = 2000.0;
// Requests of one job: the three configs cold, then the first again warm
// (request k >= kNumPathConfigs repeats request k - kNumPathConfigs).
constexpr int kJobConfigs[] = {0, 1, 2, 0};

struct ChurnJob {
  GraphInput input;
  std::vector<serve::CondenseRequest> requests;
  std::vector<Reference> refs;
};

struct JobRecord {
  double upload_ms = 0.0;
  std::vector<Record> requests;
};

ChurnJob MakeJob(const Options& opts, int j) {
  ChurnJob job;
  job.input = MakeInput(StrFormat("v%d", j), kChurnPresets[j % 3],
                        Derive(opts.seed, 1000 + static_cast<uint64_t>(j)),
                        kChurnScale, opts.tmp_dir);
  const uint64_t seed = Derive(opts.seed, 2000 + static_cast<uint64_t>(j));
  for (int c : kJobConfigs) {
    job.requests.push_back(MakeRequest(job.input.name, kChurnRatio, seed,
                                       kPathConfigs[c], false));
  }
  return job;
}

// Runs jobs [0, jobs.size()) closed loop over the connections: each
// connection uploads its next job's graph, then sends the job's requests
// one after another.
std::vector<JobRecord> RunJobs(
    std::vector<std::unique_ptr<serve::ServeClient>>& conns,
    const std::vector<ChurnJob>& jobs, Report& rep, double* wall_s) {
  std::vector<JobRecord> out(jobs.size());
  std::vector<Report> reps(conns.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t t = 0; t < conns.size(); ++t) {
    threads.emplace_back([&, t] {
      serve::ServeClient& client = *conns[t];
      for (;;) {
        const size_t j = next.fetch_add(1);
        if (j >= jobs.size()) return;
        out[j].upload_ms = Upload(client, jobs[j].input, reps[t]);
        for (size_t k = 0; k < jobs[j].requests.size(); ++k) {
          Record r = Send(client, jobs[j].requests[k], jobs[j].refs[k]);
          // Class: the job's preset and the request's place in the job.
          r.class_index = static_cast<uint32_t>(
              (j % std::size(kChurnPresets)) * jobs[j].requests.size() + k);
          out[j].requests.push_back(r);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  *wall_s = NsToS(NowNs() - start);
  for (const Report& r : reps) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    rep.mismatches.insert(rep.mismatches.end(), r.mismatches.begin(),
                          r.mismatches.end());
  }
  for (const JobRecord& jr : out) CountRecords(jr.requests, rep, "serve_churn");
  return out;
}

std::vector<Record> AllRequests(const std::vector<JobRecord>& jobs) {
  std::vector<Record> out;
  for (const JobRecord& j : jobs) {
    out.insert(out.end(), j.requests.begin(), j.requests.end());
  }
  return out;
}

}  // namespace

Report RunServeChurn(const Options& opts) {
  Report rep;
  const int num_jobs =
      std::max(4, static_cast<int>(opts.seconds * kChurnJobsPerSecond + 0.5));
  const int run_jobs = opts.trace ? std::max(2, num_jobs / 2) : num_jobs;

  // Set-up: generate every graph version, start the server, connect.
  std::vector<double> setup_s;
  std::vector<ChurnJob> jobs;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<serve::ServeClient>> conns;
  for (int i = 0; i < kSetupReps; ++i) {
    conns.clear();
    server.reset();
    jobs.clear();
    const int64_t t0 = NowNs();
    for (int j = 0; j < run_jobs; ++j) jobs.push_back(MakeJob(opts, j));
    server = std::make_unique<ServerProcess>(opts, i, false);
    conns = ConnectAll(server->port(), kChurnConnections);
    setup_s.push_back(NsToS(NowNs() - t0));
  }

  // References (and, traced, replicas) per job, each version on its own
  // cache as the server sees it: cold.
  std::vector<CondenseBreakdown> replicas;
  for (int j = 0; j < run_jobs; ++j) {
    auto g = DeserializeHeteroGraph(jobs[j].input.bytes);
    if (!g.ok()) Die("cannot read back " + jobs[j].input.name);
    pipeline::ArtifactCache cache;
    for (size_t k = 0; k < jobs[j].requests.size(); ++k) {
      const serve::CondenseRequest& req = jobs[j].requests[k];
      if (k >= static_cast<size_t>(kNumPathConfigs)) {  // a warm repeat
        jobs[j].refs.push_back(jobs[j].refs[k - kNumPathConfigs]);
        continue;
      }
      const hgnn::EvalContext ctx =
          hgnn::BuildEvalContext(*g, PropagateFor(req), nullptr, &cache);
      jobs[j].refs.push_back(ComputeReference(ctx, req, &cache));
    }
    if (opts.trace) {
      // The server builds one EvalContext per config; the warm repeat
      // finds its context resident.
      pipeline::ArtifactCache replica_cache;
      for (size_t k = 0; k < jobs[j].requests.size(); ++k) {
        replicas.push_back(Replica(*g, jobs[j].requests[k], &replica_cache,
                                   k < static_cast<size_t>(kNumPathConfigs)));
      }
    }
  }

  double wall_s = 0.0;
  const std::vector<JobRecord> done = RunJobs(conns, jobs, rep, &wall_s);
  const std::vector<Record> all = AllRequests(done);
  std::vector<double> upload_ms, first_s;
  for (const JobRecord& jr : done) {
    upload_ms.push_back(jr.upload_ms);
    if (!jr.requests.empty() && jr.requests[0].ok) {
      first_s.push_back(NsToS(jr.requests[0].done_ns - jr.requests[0].send_ns));
    }
  }
  std::vector<double> lat = OkLatenciesMs(all);

  if (!opts.trace) {
    int64_t within = 0;
    for (const Record& r : all) {
      if (r.ok && r.match && r.LatencyMs() <= kChurnLimitMs) ++within;
    }
    const Tail tail = TailPercentile(lat);
    rep.Set("setup_s", Median(setup_s), "s");
    rep.Set("upload_p50_ms", Median(upload_ms), "ms");
    rep.Set("first_condense_s", Median(first_s), "s");
    rep.Set("condense_s", FastestPerClassSeconds(all, 3), "s");
    rep.Set("latency_p50_ms", Median(lat), "ms");
    rep.Set("latency_tail_ms", tail.value, "ms");
    rep.Set("throughput_rps", lat.size() / wall_s, "1/s");
    rep.Set("goodput_rps", within / wall_s, "1/s");
    rep.Set("peak_rss_mb", server->PeakRssMb(), "MB");
    std::printf("%d jobs, %zu condense requests in %.2f s; latency tail at "
                "p%.1f\n",
                run_jobs, all.size(), wall_s, tail.percentile);
    return rep;
  }

  // Traced run: the pass above was untraced; rerun the same job list on a
  // fresh server with detailed metrics armed, scraping METRICS around it.
  conns.clear();
  server.reset();
  server = std::make_unique<ServerProcess>(opts, kSetupReps, true);
  conns = ConnectAll(server->port(), kChurnConnections);
  const Snapshot before = Snapshot::FromText(*conns[0]->Metrics());
  double traced_wall_s = 0.0;
  const std::vector<JobRecord> traced_jobs =
      RunJobs(conns, jobs, rep, &traced_wall_s);
  const Snapshot after = Snapshot::FromText(*conns[0]->Metrics());
  const std::vector<Record> traced = AllRequests(traced_jobs);
  std::vector<double> traced_upload;
  for (const JobRecord& jr : traced_jobs) traced_upload.push_back(jr.upload_ms);

  ZeroPerLayer(rep);
  SetCounterLayers(rep, before, after, static_cast<double>(traced.size()));
  SetReplyLayers(traced, rep);
  SetBreakdownLayers(replicas, rep);
  rep.Set("graph.upload_ms", Median(traced_upload), "ms");
  rep.Set("trace.overhead_frac",
          Median(OkLatenciesMs(traced)) / Median(lat) - 1.0, "fraction");
  return rep;
}

}  // namespace freehgc::perfbench
