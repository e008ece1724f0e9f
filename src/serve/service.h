#ifndef FREEHGC_SERVE_SERVICE_H_
#define FREEHGC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "hgnn/models.h"
#include "hgnn/trainer.h"
#include "obs/access_log.h"
#include "pipeline/artifact_cache.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"

namespace freehgc::serve {

/// Service configuration.
struct ServeOptions {
  /// Concurrent worker slots (each runs one request on its own
  /// ExecContext; see RequestScheduler).
  int slots = 2;
  /// Bounded admission queue; submissions beyond it are shed with
  /// kResourceExhausted.
  int queue_capacity = 32;
  /// Threads per slot ExecContext; 0 = exec::ThreadsPerSlot(slots).
  int threads_per_slot = 0;
  /// Max requests executing at once (see SchedulerOptions). 0 resolves to
  /// exec::ConcurrentSlotBudget(slots) — on a machine with fewer cores
  /// than slots, surplus slots park instead of time-slicing.
  int max_concurrent = 0;
  /// Priority aging quantum in milliseconds (see SchedulerOptions);
  /// 0 disables. The serving default keeps low-priority work from
  /// starving under a sustained high-priority stream.
  int64_t aging_quantum_ms = 250;
  /// Admission-time SLO in milliseconds (see SchedulerOptions); a
  /// submission predicted to finish past it is shed immediately.
  /// 0 (default) disables.
  int64_t slo_ms = 0;
  /// Coalesce identical in-flight requests: duplicates of a queued or
  /// executing (graph, method, ratio, seed, meta-path config, evaluate,
  /// return_graph) request ride its execution and receive a copy of its
  /// reply. Priority/deadline are excluded from the identity — a
  /// follower's fate is its leader's.
  bool coalesce_requests = true;
  /// When non-empty, every terminal request appends one JSONL line here
  /// (see obs::AccessLog). Open failure logs a warning and disables the
  /// log; it never fails service construction.
  std::string access_log_path;
  /// Evaluator config for CondenseRequest::evaluate. Serving default is
  /// smaller than the research default (hidden 32, 60 epochs, no early
  /// stopping) so evaluated requests have bounded latency.
  hgnn::HgnnConfig eval;
  /// Heap bytes the ArtifactCache's evictable tiers may keep resident
  /// once requests release their pins; SIZE_MAX = unlimited. Over it,
  /// cold entries spill to spill_dir, or are dropped without one. The
  /// default is more than 5x the whole artifact set of a warm
  /// freebase+dblp mix (perfbench serve_warm, 49.4 MB), yet below what an
  /// upload-churning server accumulates (serve_churn, 287 MB and rising).
  size_t artifact_budget_bytes = size_t{256} << 20;
  /// Bytes of mapped graphs the GraphStore may keep resident (see
  /// GraphStore::SetResidentBudget). SIZE_MAX = unlimited.
  size_t store_resident_budget_bytes = SIZE_MAX;
  /// Directory for artifact spool files. Non-empty makes the
  /// ArtifactCache spill its evictions there instead of dropping them
  /// (under a finite budget, EvalContext feature blocks then stream
  /// through spool files).
  std::string spill_dir;
  /// Spill-aware admission: when > 0 and a budget is configured, new
  /// submissions are shed with kResourceExhausted while a budgeted tier
  /// sits past `factor ×` its budget — the ArtifactCache resident tier
  /// (artifact_budget_bytes) or the GraphStore
  /// mapped-resident set (store_resident_budget_bytes). Shedding before
  /// the spill tier thrashes; counted in serve.shed.budget. 0 disables.
  double budget_shed_factor = 2.0;

  ServeOptions() {
    eval.kind = hgnn::HgnnKind::kSeHGNN;
    eval.hidden = 32;
    eval.epochs = 60;
    eval.patience = 0;
  }
};

/// The condensation service: a GraphStore of resident graphs, one shared
/// ArtifactCache, and a RequestScheduler whose work body runs
/// MethodRegistry condensers against the shared state.
///
/// Evaluation contexts: each request builds a cheap hgnn::EvalContext
/// over ArtifactCache::EvalContextFor — the path list plus a pin on the
/// cached propagated blocks. Requests whose graph and options select the
/// same path list share one cache entry: the first builds it (the
/// expensive SpGEMM + propagate step), concurrent duplicates wait on the
/// cache's single-flight build, later ones hit. The request's GraphRef
/// and the feature pin are released when it finishes, so a served graph
/// stays evictable and removable. Determinism: all shared artifacts are
/// outputs of deterministic kernels, so concurrent requests return
/// results bit-identical to sequential execution (tests/serve_test.cc).
class ServeService {
 public:
  explicit ServeService(ServeOptions options = {});
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  GraphStore& store() { return store_; }
  pipeline::ArtifactCache& cache() { return cache_; }
  const ServeOptions& options() const { return options_; }

  /// Asynchronous submission (validated first: unknown graph names and
  /// out-of-range ratios fail here, before occupying a queue slot).
  Result<TicketPtr> Submit(CondenseRequest request);

  /// Synchronous convenience: Submit + Wait.
  Result<CondenseReply> Condense(CondenseRequest request);

  /// Cancels a still-queued request (see RequestScheduler::Cancel).
  bool Cancel(uint64_t id);

  /// Stops admission and drains (or cancels queued) requests. Idempotent;
  /// the destructor drains if never called.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  SchedulerStats scheduler_stats() const { return scheduler_->stats(); }

  /// How many requests built their EvalContext's propagated blocks (a
  /// Propagated miss) — the coalescing test asserts this stays at 1 for
  /// K same-config requests.
  int64_t eval_context_builds() const {
    return eval_context_builds_.load(std::memory_order_relaxed);
  }

  /// One-line-per-field JSON summary (request counters, store and cache
  /// occupancy, latency quantiles) — what the server dumps on shutdown.
  std::string StatsJson() const;

  /// Liveness summary for the HEALTH wire op: status, uptime, slot and
  /// queue occupancy, resident graph count.
  std::string HealthJson() const;

  /// The access log wired into the scheduler (enabled() is false unless
  /// ServeOptions::access_log_path was set and opened).
  const obs::AccessLog& access_log() const { return access_log_; }

 private:
  /// The scheduler work body (runs on a slot thread).
  Result<CondenseReply> Execute(const CondenseRequest& request,
                                const RequestContext& rctx);

  const ServeOptions options_;
  GraphStore store_;
  pipeline::ArtifactCache cache_;
  obs::AccessLog access_log_;  // before scheduler_: outlives its writers
  const int64_t start_ns_;

  std::atomic<int64_t> eval_context_builds_{0};

  std::unique_ptr<RequestScheduler> scheduler_;  // last: uses the above
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_SERVICE_H_
