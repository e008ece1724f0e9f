#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/generator.h"
#include "obs/metrics.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "pipeline/sweep.h"

namespace freehgc::pipeline {
namespace {

// --- registry ---------------------------------------------------------------

TEST(MethodRegistryTest, BuiltinMethodsRegistered) {
  const std::vector<std::string> keys = MethodRegistry::Global().Keys();
  const std::set<std::string> expected = {
      "random", "herding", "kcenter", "coarsening",
      "gcond",  "hgcond",  "freehgc"};
  for (const auto& key : expected) {
    EXPECT_TRUE(std::count(keys.begin(), keys.end(), key)) << key;
    const CondensationMethod* m = MethodRegistry::Global().Find(key);
    ASSERT_NE(m, nullptr) << key;
    EXPECT_EQ(m->key(), key);
  }
  EXPECT_EQ(MethodRegistry::Global().Find("no-such-method"), nullptr);
}

TEST(MethodRegistryTest, EnumFacadeResolvesThroughRegistry) {
  // The seven methods the paper evaluates resolve by registry key to the
  // display names the tables print.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"random", "Random-HG"},
      {"herding", "Herding-HG"},
      {"kcenter", "K-Center-HG"},
      {"coarsening", "Coarsening-HG"},
      {"gcond", "GCond"},
      {"hgcond", "HGCond"},
      {"freehgc", "FreeHGC"},
  };
  for (const auto& [key, name] : expected) {
    const CondensationMethod* m = MethodRegistry::Global().Find(key);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->key(), key);
    EXPECT_EQ(m->display_name(), name);
  }
}

TEST(MethodRegistryTest, UnknownKeyIsNotFound) {
  const HeteroGraph g = datasets::MakeToy(7);
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, popts);
  auto res = RunMethod(ctx, "no-such-method", RunSpec{}, hgnn::HgnnConfig{});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

// --- artifact cache ---------------------------------------------------------

TEST(ArtifactCacheTest, ComposedMemoizesByGraphPathAndBudget) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_GE(paths.size(), 2u);

  ArtifactCache cache;
  const auto a = cache.Composed(g, paths[0], 0, nullptr);
  const auto b = cache.Composed(g, paths[0], 0, nullptr);
  EXPECT_EQ(a.get(), b.get());  // same pinned entry, served from the memo
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(*a, ComposeAdjacency(g, paths[0], 0));

  // A different path or row budget is a different entry.
  cache.Composed(g, paths[1], 0, nullptr);
  cache.Composed(g, paths[0], 4, nullptr);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_GT(cache.stats().bytes, 0u);

  cache.Clear();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ArtifactCacheTest, ComposedBudgetsAreDistinctAndFullyBudgeted) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  const MetaPath* two_hop = nullptr;
  for (const auto& p : paths) {
    if (p.hops() == 2) {
      two_hop = &p;
      break;
    }
  }
  ASSERT_NE(two_hop, nullptr);

  ArtifactCache cache;
  const auto exact = cache.Composed(g, *two_hop, 0, nullptr);

  // The same path at a different row budget is a distinct adjacency
  // entry: an artifact miss, not a hit.
  const auto budgeted = cache.Composed(g, *two_hop, 4, nullptr);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);

  // Every cached byte is an evictable adjacency the resident budget
  // accounts for; no side tier holds memory outside it.
  EXPECT_GT(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().bytes, cache.stats().resident_bytes);

  // Cached composition is bit-identical to the uncached one.
  EXPECT_EQ(*exact, ComposeAdjacency(g, *two_hop, 0));
  EXPECT_EQ(*budgeted, ComposeAdjacency(g, *two_hop, 4));
}

// Without a spill dir a finite budget still bounds the cache: over-budget
// LRU entries nobody pins are dropped, and their next lookup rebuilds them
// bit-identically.
TEST(ArtifactCacheTest, FiniteBudgetWithoutSpillDirDropsColdEntries) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_GE(paths.size(), 3u);

  std::vector<CsrMatrix> want;
  for (const auto& p : paths) want.push_back(ComposeAdjacency(g, p, 0));
  ArtifactCache unbudgeted;
  for (const auto& p : paths) unbudgeted.Composed(g, p, 0, nullptr);
  const size_t budget = unbudgeted.stats().resident_bytes / 2;

  ArtifactCache cache(budget);
  EXPECT_TRUE(cache.spill_dir().empty());
  const obs::Gauge& budget_gauge =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cache.budget_bytes");
  for (const auto& p : paths) {
    cache.Composed(g, p, 0, nullptr);  // the pin is released at once
    cache.TrimToBudget();
    EXPECT_LE(cache.stats().resident_bytes, budget);
    EXPECT_EQ(budget_gauge.Value(), static_cast<int64_t>(budget));
  }
  EXPECT_EQ(cache.stats().spills, 0);
  EXPECT_EQ(cache.stats().misses, static_cast<int64_t>(paths.size()));

  // paths[0] is the LRU entry, so it was dropped: its next lookup is a
  // miss whose rebuild equals the first build.
  const ArtifactCache::Stats before = cache.stats();
  EXPECT_EQ(*cache.Composed(g, paths[0], 0, nullptr), want[0]);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(cache.stats().hits, before.hits);

  // A pinned entry survives the trim, even at budget 0.
  ArtifactCache tight(0);
  const auto pin = tight.Composed(g, paths[0], 0, nullptr);
  tight.Composed(g, paths[1], 0, nullptr);
  tight.TrimToBudget();
  EXPECT_EQ(tight.stats().resident_bytes, pin->OwnedBytes());
  EXPECT_EQ(tight.Composed(g, paths[0], 0, nullptr), pin);
  EXPECT_EQ(tight.stats().hits, 1);
  EXPECT_EQ(tight.stats().misses, 2);
}

TEST(ArtifactCacheTest, PropagatedAndBaselineMemoize) {
  const HeteroGraph g = datasets::MakeToy(7);
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, popts);

  ArtifactCache cache;
  const auto f1 = cache.Propagated(g, ctx.paths, popts.max_row_nnz, nullptr);
  const auto f2 = cache.Propagated(g, ctx.paths, popts.max_row_nnz, nullptr);
  EXPECT_EQ(f1.get(), f2.get());
  ASSERT_EQ(f1->blocks.size(), ctx.full_features->blocks.size());
  for (size_t i = 0; i < f1->blocks.size(); ++i) {
    EXPECT_EQ(f1->blocks[i], ctx.full_features->blocks[i]) << i;
  }

  hgnn::HgnnConfig cfg;
  cfg.epochs = 3;
  cfg.patience = 0;
  const auto before = cache.stats();
  const hgnn::EvalMetrics m1 = cache.WholeGraphBaseline(ctx, cfg, nullptr);
  const hgnn::EvalMetrics m2 = cache.WholeGraphBaseline(ctx, cfg, nullptr);
  EXPECT_EQ(m1.test_accuracy, m2.test_accuracy);
  EXPECT_EQ(m1.macro_f1, m2.macro_f1);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ArtifactCacheTest, FingerprintDistinguishesGraphContent) {
  // The cache keys on HeteroGraph::ContentFingerprint, which the graph
  // memoizes itself.
  const HeteroGraph a = datasets::MakeToy(7);
  const HeteroGraph b = datasets::MakeToy(7);
  const HeteroGraph c = datasets::MakeToy(8);
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  EXPECT_NE(a.ContentFingerprint(), c.ContentFingerprint());
  // Memoized: repeated lookups agree.
  EXPECT_EQ(a.ContentFingerprint(), a.ContentFingerprint());

  // Copies carry the memo; a mutator resets it.
  HeteroGraph d = a;
  EXPECT_EQ(d.ContentFingerprint(), a.ContentFingerprint());
  const TypeId t = d.target_type();
  Matrix f = d.Features(t);
  f.At(0, 0) += 1.0f;
  ASSERT_TRUE(d.SetFeatures(t, std::move(f)).ok());
  EXPECT_NE(d.ContentFingerprint(), a.ContentFingerprint());
  EXPECT_EQ(d.ContentFingerprint(), HeteroGraph(d).ContentFingerprint());
}

TEST(ArtifactCacheTest, GraphRebuiltAtFreedAddressGetsItsOwnArtifacts) {
  // Graph A is cached, freed, and graph B (same shape, one feature
  // changed) is built in the same storage. B must get B's artifacts,
  // not A's: the cache keys on content, never on the address.
  std::optional<HeteroGraph> slot;
  slot.emplace(datasets::MakeToy(7));
  const HeteroGraph* const address = &*slot;
  MetaPathOptions mp;
  mp.max_hops = 2;
  const std::vector<MetaPath> paths =
      EnumerateMetaPaths(*slot, slot->target_type(), mp);
  ASSERT_FALSE(paths.empty());

  ArtifactCache cache;
  cache.Propagated(*slot, paths, 512, nullptr);
  cache.Composed(*slot, paths[0], 512, nullptr);
  slot.reset();

  HeteroGraph b = datasets::MakeToy(7);
  const TypeId t = b.target_type();
  Matrix f = b.Features(t);
  f.At(0, 0) += 1.0f;
  ASSERT_TRUE(b.SetFeatures(t, std::move(f)).ok());
  slot.emplace(std::move(b));
  ASSERT_EQ(&*slot, address);

  const int64_t hits = cache.stats().hits;
  const auto adj = cache.Composed(*slot, paths[0], 512, nullptr);
  EXPECT_EQ(cache.stats().hits, hits) << "B was served A's adjacency";
  const auto features = cache.Propagated(*slot, paths, 512, nullptr);

  const hgnn::PropagatedFeatures want =
      hgnn::PropagateAlongPaths(*slot, paths, 512);
  ASSERT_EQ(features->blocks.size(), want.blocks.size());
  for (size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_EQ(features->blocks[i], want.blocks[i]) << i;
  }
  EXPECT_EQ(*adj, ComposeAdjacency(*slot, paths[0], 512));
}

TEST(ArtifactCacheTest, ConcurrentMissesOnOneKeyBuildOnce) {
  // Four threads miss on one cold key at once: the first builds, the
  // rest wait for it and hit. Checked for a Propagated key (whose build
  // composes through the cache) and for a Composed key.
  const HeteroGraph g = datasets::MakeAcm(3, 0.5);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const std::vector<MetaPath> paths =
      EnumerateMetaPaths(g, g.target_type(), mp);
  const MetaPath* two_hop = nullptr;
  for (const auto& p : paths) {
    if (p.hops() == 2) {
      two_hop = &p;
      break;
    }
  }
  ASSERT_NE(two_hop, nullptr);
  obs::Counter& blocks =
      obs::MetricsRegistry::Global().GetCounter("hgnn.blocks_propagated");

  // One sequential build on a fresh cache: the misses and blocks a
  // single build costs.
  int64_t one_build_misses = 0;
  int64_t one_build_blocks = 0;
  {
    ArtifactCache ref;
    const int64_t b0 = blocks.Value();
    ref.Propagated(g, paths, 512, nullptr);
    one_build_misses = ref.stats().misses;
    one_build_blocks = blocks.Value() - b0;
  }
  ASSERT_GT(one_build_blocks, 1);

  constexpr int kThreads = 4;
  // Runs `lookup` on kThreads threads released together; returns the
  // distinct values they got.
  auto race = [&](auto lookup) {
    std::atomic<int> arrived{0};
    std::vector<const void*> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        exec::ExecContext ex(1);
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) {
        }
        got[static_cast<size_t>(i)] = lookup(&ex);
      });
    }
    for (auto& t : threads) t.join();
    return std::set<const void*>(got.begin(), got.end()).size();
  };

  ArtifactCache cache;
  std::atomic<int> built{0};
  const int64_t b0 = blocks.Value();
  EXPECT_EQ(race([&](exec::ExecContext* ex) -> const void* {
              bool b = false;
              const void* v = cache.Propagated(g, paths, 512, ex, &b).get();
              built.fetch_add(b ? 1 : 0);
              return v;
            }),
            1u);
  EXPECT_EQ(built.load(), 1);
  EXPECT_EQ(cache.stats().misses, one_build_misses);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);
  EXPECT_EQ(blocks.Value() - b0, one_build_blocks);

  cache.Clear();
  EXPECT_EQ(race([&](exec::ExecContext* ex) -> const void* {
              return cache.Composed(g, *two_hop, 512, ex).get();
            }),
            1u);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);
}

// --- determinism invariant --------------------------------------------------

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.datasets = {{.name = "toy", .ratios = {0.2}}};
  spec.methods = {"herding", "coarsening", "freehgc"};
  spec.seeds = {1, 2};
  spec.whole_graph_baseline = true;
  spec.eval_cfg.epochs = 10;
  return spec;
}

void ExpectBitIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const SweepCell& x = a.cells[i];
    const SweepCell& y = b.cells[i];
    EXPECT_EQ(x.dataset, y.dataset);
    EXPECT_EQ(x.ratio, y.ratio);
    EXPECT_EQ(x.method, y.method);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.agg.oom, y.agg.oom) << x.method;
    EXPECT_EQ(x.agg.accuracy.mean, y.agg.accuracy.mean) << x.method;
    EXPECT_EQ(x.agg.accuracy.std, y.agg.accuracy.std) << x.method;
    EXPECT_EQ(x.agg.storage_bytes, y.agg.storage_bytes) << x.method;
  }
  ASSERT_EQ(a.wholes.size(), b.wholes.size());
  for (size_t i = 0; i < a.wholes.size(); ++i) {
    EXPECT_EQ(a.wholes[i].metrics.test_accuracy,
              b.wholes[i].metrics.test_accuracy);
    EXPECT_EQ(a.wholes[i].metrics.macro_f1, b.wholes[i].metrics.macro_f1);
  }
}

TEST(SweepDeterminismTest, CacheOnOffAndThreadCountsBitIdentical) {
  // The hard invariant: cached and uncached sweeps produce bit-identical
  // cell values, at every thread count.
  std::vector<SweepResult> results;
  for (int threads : {1, 2, 4}) {
    for (bool use_cache : {false, true}) {
      exec::ExecContext ex(threads);
      PipelineEnv env;
      env.exec = &ex;
      SweepSpec spec = SmallSpec();
      spec.use_cache = use_cache;
      SweepRunner runner(std::move(spec), env);
      auto result = runner.Run();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->cache_stats.hits > 0 || result->cache_stats.misses > 0,
                use_cache);
      results.push_back(std::move(*result));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectBitIdentical(results[0], results[i]);
  }
  // The machine-readable record's deterministic sections agree too.
  const std::string cells0 =
      results[0].ToJson().substr(0, results[0].ToJson().find("\"timing\""));
  for (size_t i = 1; i < results.size(); ++i) {
    const std::string json = results[i].ToJson();
    EXPECT_EQ(cells0, json.substr(0, json.find("\"timing\"")));
  }
}

TEST(SweepDeterminismTest, WarmSweepDoesStrictlyFewerSpgemmCalls) {
  obs::Counter& spgemm =
      obs::MetricsRegistry::Global().GetCounter("spgemm.calls");
  SweepRunner runner(SmallSpec());

  const int64_t before_cold = spgemm.Value();
  auto cold = runner.Run();
  ASSERT_TRUE(cold.ok());
  const int64_t cold_calls = spgemm.Value() - before_cold;

  const int64_t before_warm = spgemm.Value();
  auto warm = runner.Run();  // same runner: the cache is warm
  ASSERT_TRUE(warm.ok());
  const int64_t warm_calls = spgemm.Value() - before_warm;

  EXPECT_GT(cold_calls, 0);
  EXPECT_LT(warm_calls, cold_calls);
  EXPECT_EQ(warm->cache_stats.misses, 0);
  EXPECT_GT(warm->cache_stats.hits, 0);
  ExpectBitIdentical(*cold, *warm);
}

TEST(CondenseCacheTest, CacheOnVsOffProducesIdenticalCondensedGraph) {
  const HeteroGraph g = datasets::MakeToy(7);
  core::FreeHgcOptions opts;
  opts.ratio = 0.3;
  opts.max_hops = 2;
  ArtifactCache cache;
  auto uncached = core::Condense(g, opts);
  auto cached1 = core::Condense(g, opts, nullptr, &cache);
  auto cached2 = core::Condense(g, opts, nullptr, &cache);  // warm
  ASSERT_TRUE(uncached.ok());
  ASSERT_TRUE(cached1.ok());
  ASSERT_TRUE(cached2.ok());
  EXPECT_GT(cache.stats().hits, 0);
  EXPECT_EQ(uncached->selected_target, cached1->selected_target);
  EXPECT_EQ(uncached->selected_target, cached2->selected_target);
  EXPECT_EQ(uncached->graph.ContentFingerprint(),
            cached1->graph.ContentFingerprint());
  EXPECT_EQ(uncached->graph.ContentFingerprint(),
            cached2->graph.ContentFingerprint());
}

}  // namespace
}  // namespace freehgc::pipeline
