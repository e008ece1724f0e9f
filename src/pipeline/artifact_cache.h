#ifndef FREEHGC_PIPELINE_ARTIFACT_CACHE_H_
#define FREEHGC_PIPELINE_ARTIFACT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"

namespace freehgc::pipeline {

/// Tiered cache of the deterministic, seed/ratio-independent artifacts a
/// sweep (or a serving process) recomputes per cell today: composed
/// meta-path adjacencies (the dominant SpGEMM cost of both condensation
/// and evaluation-context building), whole-graph pre-propagated feature
/// blocks, and whole-graph training baselines.
///
/// Keying: every entry is keyed by the graph's 64-bit ContentFingerprint
/// (memoized by the graph itself) plus the computation's parameters (path
/// signature + max_row_nnz for adjacencies; path-list signature for
/// propagation; HgnnConfig signature for baselines). A changed graph
/// changes its fingerprint, so stale entries are unreachable rather than
/// invalidated. Entries never pin a graph. Determinism
/// invariant: every cached value is the exact output of a deterministic
/// computation, so cached and uncached runs are bit-identical
/// (tests/pipeline_test.cc) — and so are spilled-and-restored runs
/// (tests/spill_test.cc).
///
/// Budget: the evictable tiers (adjacencies + propagated features) keep
/// at most `resident_bytes_budget` heap bytes resident once their pins are
/// released. Over budget, cold unpinned entries are evicted LRU first.
/// Where a victim goes is the only thing `spill_dir` decides: with one,
/// it is written to a section spool file (graph/section_io.h) there and a
/// later lookup restores it as a zero-copy mapped view — bit-identical,
/// and costing ~0 heap, so restored entries never need evicting again;
/// without one, it is dropped and its next lookup is an ordinary miss that
/// rebuilds it. With a spill dir and a finite budget, propagated-feature
/// misses are *streamed*: each block is spooled to disk as it is computed,
/// so the whole PropagatedFeatures never materializes on the heap at once.
/// The default (unlimited budget, no spill dir) is a grow-only memo.
///
/// Pinning: Composed/Propagated return shared_ptr pins. A pinned entry
/// (use_count > 1) is never evicted; eviction considers it once every
/// outside pin is released. Callers hold the pin across every use of the
/// value and drop it when done (see metapath::AdjacencyCache).
///
/// Single flight: concurrent misses on one Composed or Propagated key
/// wait for the first caller's build (or restore) instead of repeating
/// it, so a key misses once until it is dropped. Waits cannot cycle:
/// adjacency builds never call the cache, and propagated builds wait only
/// on adjacencies.
/// A build that throws keeps its claim; no caller in this library catches
/// such an exception, so it ends the process before anyone could wait.
///
/// Thread-safe. Hit/miss/bytes are mirrored into the obs registry as
/// pipeline.cache.{hits,misses,spills,restores,spill_bytes} counters and
/// the pipeline.cache.{bytes,resident_bytes,budget_bytes} gauges.
class ArtifactCache final : public AdjacencyCache {
 public:
  /// `resident_bytes_budget`: SIZE_MAX = unlimited. `spill_dir` is
  /// created if missing; if that fails, the cache logs a warning and runs
  /// without a spill tier.
  explicit ArtifactCache(size_t resident_bytes_budget = SIZE_MAX,
                         std::string spill_dir = {});
  ~ArtifactCache() override;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Where evicted entries are spooled; empty = they are dropped.
  const std::string& spill_dir() const { return spill_dir_; }

  // AdjacencyCache:
  std::shared_ptr<const CsrMatrix> Composed(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx) override;

  /// Whole-graph propagated feature blocks for (g, paths, max_row_nnz)
  /// (what hgnn::BuildEvalContext computes). The path compositions inside
  /// a miss also route through this cache. With a spill dir and a finite
  /// budget, a miss streams blocks through a spool file instead of
  /// materializing them.
  /// `built` (optional) reports whether this call computed the blocks.
  std::shared_ptr<const hgnn::PropagatedFeatures> Propagated(
      const HeteroGraph& g, const std::vector<MetaPath>& paths,
      int64_t max_row_nnz, exec::ExecContext* ctx, bool* built = nullptr);

  /// hgnn::BuildEvalContext over this cache: the path list `opts`
  /// selects and Propagated's shared blocks for it. The context borrows
  /// `g` and pins the blocks, so hold it only while `g` is alive and
  /// drop it when done; requests whose options select the same path
  /// list share one entry. `built` as for Propagated.
  hgnn::EvalContext EvalContextFor(const HeteroGraph& g,
                                   const hgnn::PropagateOptions& opts,
                                   exec::ExecContext* ctx,
                                   bool* built = nullptr);

  /// Whole-graph train-and-evaluate baseline for (ctx.full, config).
  /// Training is deterministic given config, so the metrics are exact.
  hgnn::EvalMetrics WholeGraphBaseline(const hgnn::EvalContext& ctx,
                                       const hgnn::HgnnConfig& config,
                                       exec::ExecContext* ex);

  /// Evicts cold unpinned entries until the resident tier fits the
  /// budget. Runs automatically after inserts/restores; exposed so a
  /// caller can trim after releasing pins (inserts made while their
  /// entries were pinned could not evict them).
  void TrimToBudget();

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Resident heap bytes of cached artifacts.
    size_t bytes = 0;
    /// Resident heap bytes of the evictable tiers only (what the budget
    /// constrains; mapped restored views count ~0).
    size_t resident_bytes = 0;
    /// High-water mark of resident_bytes.
    size_t peak_resident_bytes = 0;
    /// Entries written to the spill tier / restored from it.
    int64_t spills = 0;
    int64_t restores = 0;
    /// Cumulative bytes written to spool files.
    size_t spill_bytes = 0;
  };
  Stats stats() const;

  /// Drops every entry, unlinks every spool file this cache wrote; stats
  /// reset too.
  void Clear();

 private:
  /// (graph fp, path signature for an adjacency or path-list signature
  /// for propagated features, max_row_nnz).
  using Key = std::tuple<uint64_t, uint64_t, int64_t>;
  /// (graph fp, config signature).
  using BaselineKey = std::pair<uint64_t, uint64_t>;

  /// One evictable entry: resident (value set), spilled (value null,
  /// spill_path set), dropped (both empty), or both during restore.
  /// `owned_bytes` is the heap cost charged against the budget (0 for
  /// restored mapped views).
  template <typename T>
  struct Entry {
    std::shared_ptr<const T> value;
    std::string spill_path;
    size_t owned_bytes = 0;
    uint64_t tick = 0;    ///< LRU stamp (monotonic touch counter)
    bool spilling = false;  ///< eviction in flight; skip re-planning
    bool filling = false;   ///< a caller is building/restoring the value
  };
  template <typename T>
  using Tier = std::map<Key, Entry<T>>;

  /// A planned eviction of one entry of either tier (exactly one of
  /// adj/prop is set): the value pointer is copied out under the lock so
  /// the spool write and the final release run without it.
  struct SpillJob {
    Key key{};
    std::shared_ptr<const CsrMatrix> adj;
    std::shared_ptr<const hgnn::PropagatedFeatures> prop;
    std::string path;  ///< spool file; empty = drop the value
  };

  /// Single-flight lookup (mu_ held via `lock`): a resident value is a
  /// hit; otherwise the first caller claims the entry and gets null (and
  /// the spool file to restore from, if any, in `spill_path`) while later
  /// callers wait for the claimant's Publish.
  template <typename T>
  std::shared_ptr<const T> FindOrClaim(std::unique_lock<std::mutex>& lock,
                                       Tier<T>& tier, const Key& key,
                                       std::string* spill_path);
  /// Stores a claimed entry's value (a restore counts as a hit, a build
  /// as a miss; `spool_path` names a streamed build's spill copy), wakes
  /// the waiters and trims to budget.
  template <typename T>
  std::shared_ptr<const T> Publish(Tier<T>& tier, const Key& key,
                                   std::shared_ptr<const T> value,
                                   bool restored,
                                   const std::string& spool_path = {},
                                   uint64_t spool_bytes = 0);

  void RecordHit();
  void RecordMiss();
  void UpdateByteGauges();
  void AddResident(size_t bytes);

  /// Collects LRU victims until the projected resident size fits the
  /// budget (lock held); marks them `spilling`.
  std::vector<SpillJob> PlanEvictions();
  /// Writes the spool files, if any (no lock), and releases the values.
  void ExecuteEvictions(std::vector<SpillJob> jobs);
  /// Marks a planned victim of `tier` settled (lock held); `evicted`
  /// releases its value, leaving `spill_path` to restore it from.
  template <typename T>
  void CommitEviction(Tier<T>& tier, const Key& key,
                      const std::string& spill_path, bool evicted);

  mutable std::mutex mu_;
  std::condition_variable filled_;  ///< signalled by every Publish
  const size_t budget_;
  const std::string spill_dir_;
  Tier<CsrMatrix> adjacencies_;
  Tier<hgnn::PropagatedFeatures> propagated_;
  std::map<BaselineKey, hgnn::EvalMetrics> baselines_;
  Stats stats_;
  uint64_t tick_ = 0;
};

/// Order-sensitive 64-bit signature of a meta-path (relation id sequence).
uint64_t PathSignature(const MetaPath& p);

/// Signature of an ordered path list.
uint64_t PathListSignature(const std::vector<MetaPath>& paths);

/// Signature of every HgnnConfig field that affects training results.
uint64_t ConfigSignature(const hgnn::HgnnConfig& config);

}  // namespace freehgc::pipeline

#endif  // FREEHGC_PIPELINE_ARTIFACT_CACHE_H_
