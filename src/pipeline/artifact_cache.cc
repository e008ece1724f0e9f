#include "pipeline/artifact_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "graph/section_io.h"
#include "hgnn/feature_spill.h"
#include "obs/metrics.h"

namespace freehgc::pipeline {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

/// Hash of an entry key, stored in the spool-file header so a file can be
/// matched back to its slot (and recognized by the orphan GC) without
/// payload IO.
uint64_t KeyHash(const std::tuple<uint64_t, uint64_t, int64_t>& key) {
  uint64_t h = kFnvOffset;
  h = Mix(h, std::get<0>(key));
  h = Mix(h, std::get<1>(key));
  h = Mix(h, static_cast<uint64_t>(std::get<2>(key)));
  return h;
}

size_t OwnedBytes(const CsrMatrix& m) { return m.OwnedBytes(); }

size_t OwnedBytes(const hgnn::PropagatedFeatures& f) {
  size_t bytes = 0;
  for (const auto& b : f.blocks) bytes += b.OwnedBytes();
  return bytes;
}

obs::Counter& HitCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.hits");
  return c;
}

obs::Counter& MissCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.misses");
  return c;
}

obs::Counter& SpillCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.spills");
  return c;
}

obs::Counter& RestoreCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.restores");
  return c;
}

obs::Counter& SpillBytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.spill_bytes");
  return c;
}

obs::Gauge& BytesGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cache.bytes");
  return g;
}

obs::Gauge& ResidentGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "pipeline.cache.resident_bytes");
  return g;
}

obs::Gauge& BudgetGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cache.budget_bytes");
  return g;
}

/// `dir` once it exists, or "" (no spill tier) when it cannot be made.
std::string UsableSpillDir(std::string dir) {
  if (dir.empty() || ::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return dir;
  }
  FREEHGC_LOG(Warning) << "artifact spill disabled: mkdir(" << dir
                       << "): " << std::strerror(errno);
  return {};
}

std::string HexKeyPath(const std::string& dir, const char* prefix,
                       const std::tuple<uint64_t, uint64_t, int64_t>& key) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/%s-%016llx-%016llx-%lld.spill", prefix,
                static_cast<unsigned long long>(std::get<0>(key)),
                static_cast<unsigned long long>(std::get<1>(key)),
                static_cast<long long>(std::get<2>(key)));
  return dir + buf;
}

}  // namespace

uint64_t PathSignature(const MetaPath& p) {
  uint64_t h = kFnvOffset;
  for (RelationId r : p.relations) {
    h = Mix(h, static_cast<uint64_t>(r) + 1);
  }
  return h;
}

uint64_t PathListSignature(const std::vector<MetaPath>& paths) {
  uint64_t h = kFnvOffset;
  h = Mix(h, static_cast<uint64_t>(paths.size()));
  for (const MetaPath& p : paths) {
    h = Mix(h, PathSignature(p));
  }
  return h;
}

uint64_t ConfigSignature(const hgnn::HgnnConfig& config) {
  uint64_t h = kFnvOffset;
  h = Mix(h, static_cast<uint64_t>(config.kind));
  h = Mix(h, static_cast<uint64_t>(config.hidden));
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(config.dropout));
  std::memcpy(&bits, &config.dropout, sizeof(bits));
  h = Mix(h, bits);
  std::memcpy(&bits, &config.lr, sizeof(bits));
  h = Mix(h, bits);
  h = Mix(h, static_cast<uint64_t>(config.epochs));
  h = Mix(h, static_cast<uint64_t>(config.patience));
  h = Mix(h, config.seed);
  return h;
}

ArtifactCache::~ArtifactCache() { Clear(); }

ArtifactCache::ArtifactCache(size_t resident_bytes_budget,
                             std::string spill_dir)
    : budget_(resident_bytes_budget),
      spill_dir_(UsableSpillDir(std::move(spill_dir))) {
  BudgetGauge().Set(budget_ == SIZE_MAX ? 0 : static_cast<int64_t>(budget_));
}

template <typename T>
std::shared_ptr<const T> ArtifactCache::FindOrClaim(
    std::unique_lock<std::mutex>& lock, Tier<T>& tier, const Key& key,
    std::string* spill_path) {
  for (;;) {
    // Re-find after every wait: a Clear() may have dropped the entry.
    Entry<T>& e = tier[key];
    if (e.value != nullptr) {
      RecordHit();
      e.tick = ++tick_;
      return e.value;
    }
    if (!e.filling) {
      e.filling = true;
      *spill_path = e.spill_path;
      return nullptr;
    }
    filled_.wait(lock);
  }
}

template <typename T>
std::shared_ptr<const T> ArtifactCache::Publish(
    Tier<T>& tier, const Key& key, std::shared_ptr<const T> value,
    bool restored, const std::string& spool_path, uint64_t spool_bytes) {
  std::shared_ptr<const T> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry<T>& e = tier[key];
    e.filling = false;
    e.value = std::move(value);
    e.owned_bytes = OwnedBytes(*e.value);
    AddResident(e.owned_bytes);
    e.tick = ++tick_;
    if (restored) {
      ++stats_.restores;
      RestoreCounter().Increment();
      RecordHit();
    } else {
      RecordMiss();
    }
    if (!spool_path.empty()) {
      // Spool-through build: the file already is this entry's spill copy.
      e.spill_path = spool_path;
      ++stats_.spills;
      stats_.spill_bytes += spool_bytes;
      SpillCounter().Increment();
      SpillBytesCounter().Add(static_cast<int64_t>(spool_bytes));
    }
    out = e.value;
  }
  filled_.notify_all();
  TrimToBudget();
  return out;
}

std::shared_ptr<const CsrMatrix> ArtifactCache::Composed(
    const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
    exec::ExecContext* ctx) {
  const Key key{g.ContentFingerprint(), PathSignature(p), max_row_nnz};
  std::string spilled_path;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto hit = FindOrClaim(lock, adjacencies_, key, &spilled_path);
    if (hit != nullptr) return hit;
  }
  if (!spilled_path.empty()) {
    // Spill-tier hit: restore as a zero-copy mapped view (bit-identical
    // to the owned entry, ~0 heap — it never needs evicting again).
    Result<CsrMatrix> restored = section_io::MapCsrSpill(spilled_path);
    if (restored.ok()) {
      return Publish(adjacencies_, key,
                     std::make_shared<const CsrMatrix>(std::move(*restored)),
                     /*restored=*/true);
    }
    FREEHGC_LOG(Warning) << "adjacency restore failed (" << spilled_path
                         << "): " << restored.status().message()
                         << "; recomputing";
  }
  // Compose outside the lock: the SpGEMM chain is the expensive part and
  // must not serialize unrelated lookups.
  return Publish(adjacencies_, key,
                 std::make_shared<const CsrMatrix>(
                     ComposeAdjacency(g, p, max_row_nnz, ctx)),
                 /*restored=*/false);
}

std::shared_ptr<const hgnn::PropagatedFeatures> ArtifactCache::Propagated(
    const HeteroGraph& g, const std::vector<MetaPath>& paths,
    int64_t max_row_nnz, exec::ExecContext* ctx, bool* built) {
  if (built != nullptr) *built = false;
  const Key key{g.ContentFingerprint(), PathListSignature(paths),
                max_row_nnz};
  std::string spilled_path;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto hit = FindOrClaim(lock, propagated_, key, &spilled_path);
    if (hit != nullptr) return hit;
  }
  if (!spilled_path.empty()) {
    auto restored = hgnn::MapPropagatedSpill(spilled_path);
    if (restored.ok()) {
      return Publish(propagated_, key, std::move(*restored),
                     /*restored=*/true);
    }
    FREEHGC_LOG(Warning) << "propagated restore failed (" << spilled_path
                         << "): " << restored.status().message()
                         << "; recomputing";
  }

  // The per-path compositions inside the miss route back through this
  // cache, so a later Composed() over the same graph/paths also hits.
  if (built != nullptr) *built = true;
  std::shared_ptr<const hgnn::PropagatedFeatures> features;
  std::string path;
  uint64_t file_bytes = 0;
  if (!spill_dir_.empty() && budget_ != SIZE_MAX) {
    // Budgeted build: spool each block to disk as it is computed, then
    // map the file back — the whole block set never lives on the heap at
    // once, and the entry is born in its restored (view-backed) form.
    path = HexKeyPath(spill_dir_, "prop", key);
    auto write_and_map =
        [&]() -> Result<std::shared_ptr<const hgnn::PropagatedFeatures>> {
      FREEHGC_ASSIGN_OR_RETURN(hgnn::PropagatedSpillWriter w,
                               hgnn::PropagatedSpillWriter::Create(path));
      int64_t blocks = 0;
      {
        Matrix raw = hgnn::RawFeatureBlock(g, ctx);
        FREEHGC_RETURN_IF_ERROR(w.AddBlock(raw, "raw", g.target_type()));
        ++blocks;
      }
      for (const auto& p : paths) {
        if (!g.HasFeatures(p.end_type())) continue;
        Matrix block = hgnn::PropagateOneBlock(g, p, max_row_nnz, ctx, this);
        FREEHGC_RETURN_IF_ERROR(
            w.AddBlock(block, p.Name(g), p.end_type()));
        ++blocks;
      }
      FREEHGC_ASSIGN_OR_RETURN(file_bytes, w.Finish(KeyHash(key)));
      hgnn::NoteBlocksPropagated(blocks);
      return hgnn::MapPropagatedSpill(path);
    };
    auto streamed = write_and_map();
    if (streamed.ok()) {
      features = std::move(*streamed);
    } else {
      FREEHGC_LOG(Warning) << "streamed propagation spill failed (" << path
                           << "): " << streamed.status().message()
                           << "; falling back to in-heap build";
      path.clear();
    }
  }
  if (features == nullptr) {
    features = std::make_shared<const hgnn::PropagatedFeatures>(
        hgnn::PropagateAlongPaths(g, paths, max_row_nnz, ctx, this));
  }
  return Publish(propagated_, key, std::move(features), /*restored=*/false,
                 path, file_bytes);
}

hgnn::EvalContext ArtifactCache::EvalContextFor(
    const HeteroGraph& g, const hgnn::PropagateOptions& opts,
    exec::ExecContext* ctx, bool* built) {
  hgnn::EvalContext out;
  out.full = &g;
  out.options = opts;
  out.paths = hgnn::PropagationPaths(g, opts);
  out.full_features = Propagated(g, out.paths, opts.max_row_nnz, ctx, built);
  return out;
}

hgnn::EvalMetrics ArtifactCache::WholeGraphBaseline(
    const hgnn::EvalContext& ctx, const hgnn::HgnnConfig& config,
    exec::ExecContext* ex) {
  const BaselineKey key{ctx.full->ContentFingerprint(),
                        ConfigSignature(config)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) {
      RecordHit();
      return it->second;
    }
  }
  const hgnn::EvalMetrics metrics = hgnn::WholeGraphBaseline(ctx, config, ex);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = baselines_.emplace(key, metrics);
  RecordMiss();
  if (inserted) {
    stats_.bytes += sizeof(hgnn::EvalMetrics);
    UpdateByteGauges();
  }
  return it->second;
}

std::vector<ArtifactCache::SpillJob> ArtifactCache::PlanEvictions() {
  // Lock held by caller. Victims: resident owned entries nobody has
  // pinned (use_count()==1 means the cache holds the only reference) and
  // no eviction already in flight. Restored views carry ~0 owned bytes
  // and are skipped by the owned_bytes > 0 test.
  struct Candidate {
    uint64_t tick;
    bool is_adj;
    Key key;
  };
  std::vector<Candidate> candidates;
  auto collect = [&](const auto& tier, bool is_adj) {
    for (const auto& [key, e] : tier) {
      if (e.value != nullptr && e.owned_bytes > 0 && !e.spilling &&
          e.value.use_count() == 1) {
        candidates.push_back({e.tick, is_adj, key});
      }
    }
  };
  collect(adjacencies_, true);
  collect(propagated_, false);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.tick < b.tick;
            });
  std::vector<SpillJob> jobs;
  size_t projected = stats_.resident_bytes;
  auto claim = [&](auto& tier, const Key& key, auto* value) {
    auto& e = tier[key];
    e.spilling = true;
    *value = e.value;
    projected -= e.owned_bytes;
  };
  for (const Candidate& c : candidates) {
    if (projected <= budget_) break;
    SpillJob job;
    job.key = c.key;
    if (c.is_adj) {
      claim(adjacencies_, c.key, &job.adj);
    } else {
      claim(propagated_, c.key, &job.prop);
    }
    // The spool path is a function of the key, so a re-spill of an entry
    // whose restore failed overwrites the bad file.
    if (!spill_dir_.empty()) {
      job.path = HexKeyPath(spill_dir_, c.is_adj ? "adj" : "prop", c.key);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

template <typename T>
void ArtifactCache::CommitEviction(Tier<T>& tier, const Key& key,
                                   const std::string& spill_path,
                                   bool evicted) {
  Entry<T>& e = tier[key];
  e.spilling = false;
  if (!evicted) return;
  e.spill_path = spill_path;
  e.value.reset();
  stats_.resident_bytes -= e.owned_bytes;
  stats_.bytes -= e.owned_bytes;
  e.owned_bytes = 0;
}

void ArtifactCache::ExecuteEvictions(std::vector<SpillJob> jobs) {
  for (SpillJob& job : jobs) {
    // Without a spill dir the victim is dropped: its next lookup is a
    // miss that FindOrClaim's single flight rebuilds. Spool files are
    // always rewritten (atomically), never trusted because they exist.
    const uint64_t fp = KeyHash(job.key);
    const Result<uint64_t> written =
        job.path.empty() ? Result<uint64_t>(0)
        : job.adj != nullptr
            ? section_io::WriteCsrSpill(*job.adj, job.path, fp)
            : hgnn::WritePropagatedSpill(*job.prop, job.path, fp);

    std::lock_guard<std::mutex> lock(mu_);
    if (job.adj != nullptr) {
      CommitEviction(adjacencies_, job.key, job.path, written.ok());
    } else {
      CommitEviction(propagated_, job.key, job.path, written.ok());
    }
    if (!written.ok()) {
      FREEHGC_LOG(Warning) << "artifact spill failed (" << job.path
                           << "): " << written.status().message()
                           << "; keeping entry resident";
      continue;
    }
    if (!job.path.empty()) {
      ++stats_.spills;
      stats_.spill_bytes += *written;
      SpillCounter().Increment();
      SpillBytesCounter().Add(static_cast<int64_t>(*written));
    }
    UpdateByteGauges();
    // job.adj/job.prop (our pins) release outside the lock at loop end.
  }
}

void ArtifactCache::TrimToBudget() {
  std::vector<SpillJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.resident_bytes <= budget_) return;
    jobs = PlanEvictions();
  }
  if (!jobs.empty()) ExecuteEvictions(std::move(jobs));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, e] : adjacencies_) {
    if (!e.spill_path.empty()) std::remove(e.spill_path.c_str());
  }
  for (const auto& [key, e] : propagated_) {
    if (!e.spill_path.empty()) std::remove(e.spill_path.c_str());
  }
  adjacencies_.clear();
  propagated_.clear();
  baselines_.clear();
  stats_ = Stats{};
  tick_ = 0;
  BytesGauge().Set(0);
  ResidentGauge().Set(0);
}

void ArtifactCache::RecordHit() {
  ++stats_.hits;
  HitCounter().Increment();
}

void ArtifactCache::RecordMiss() {
  ++stats_.misses;
  MissCounter().Increment();
}

void ArtifactCache::UpdateByteGauges() {
  BytesGauge().Set(static_cast<int64_t>(stats_.bytes));
  ResidentGauge().Set(static_cast<int64_t>(stats_.resident_bytes));
}

void ArtifactCache::AddResident(size_t bytes) {
  stats_.resident_bytes += bytes;
  stats_.bytes += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  UpdateByteGauges();
}

}  // namespace freehgc::pipeline
