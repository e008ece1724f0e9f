#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"
#include "datasets/generator.h"
#include "pipeline/method.h"

namespace freehgc::pipeline {
namespace {

std::string DisplayName(const std::string& key) {
  const CondensationMethod* method = MethodRegistry::Global().Find(key);
  return method != nullptr ? method->display_name() : "";
}

TEST(AggregateTest, MeanAndStd) {
  const MeanStd m = Aggregate({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.std, 1.0);
  const MeanStd single = Aggregate({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
  const MeanStd empty = Aggregate({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(CellTest, Formats) {
  EXPECT_EQ(Cell({91.274, 0.456}), "91.27 ± 0.46");
}

TEST(MethodNameTest, AllNamed) {
  EXPECT_EQ(DisplayName("freehgc"), "FreeHGC");
  EXPECT_EQ(DisplayName("hgcond"), "HGCond");
  EXPECT_EQ(DisplayName("coarsening"), "Coarsening-HG");
}

TEST(TablePrinterTest, PrintsWithoutCrashing) {
  TablePrinter t({"Dataset", "Acc"});
  t.AddRow({"ACM", "91.3"});
  t.AddRow({"DBLP"});  // short row padded
  t.Print();
}

// The seven methods the paper evaluates, by registry key. A test case
// carries an ordinal into this table rather than the key itself, which
// keeps the generated test names of the suite below stable.
constexpr const char* kPaperMethods[] = {
    "random", "herding", "kcenter", "coarsening", "gcond", "hgcond",
    "freehgc"};

struct PaperMethod {
  int32_t ordinal = 0;
  std::string key() const { return kPaperMethods[ordinal]; }
};

class RunMethodTest : public ::testing::TestWithParam<PaperMethod> {};

TEST_P(RunMethodTest, EndToEndOnToy) {
  const HeteroGraph g = datasets::MakeToy(5);
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  popts.max_paths = 6;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, popts);
  RunSpec run;
  run.ratio = 0.2;
  run.seed = 1;
  run.gm.outer_iters = 2;
  run.gm.inner_iters = 2;
  run.gm.relay_inits = 2;
  hgnn::HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 30;
  auto res = RunMethod(ctx, GetParam().key(), run, cfg);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->oom);
  EXPECT_GE(res->accuracy, 0.0f);
  EXPECT_LE(res->accuracy, 100.0f);
  EXPECT_GT(res->storage_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, RunMethodTest,
    ::testing::Values(PaperMethod{0}, PaperMethod{1}, PaperMethod{2},
                      PaperMethod{3}, PaperMethod{4}, PaperMethod{5},
                      PaperMethod{6}),
    [](const auto& info) {
      std::string out;
      for (char c : DisplayName(info.param.key())) {
        if (c != '-') out += c;
      }
      return out;
    });

TEST(RunMethodSeedsTest, AggregatesOverSeeds) {
  const HeteroGraph g = datasets::MakeToy(7);
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, popts);
  RunSpec run;
  run.ratio = 0.2;
  hgnn::HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 20;
  const AggregatedRun agg = RunMethodSeeds(ctx, "random", run, cfg, {1, 2, 3});
  EXPECT_FALSE(agg.oom);
  EXPECT_GE(agg.accuracy.mean, 0.0);
  EXPECT_GE(agg.accuracy.std, 0.0);
}

}  // namespace
}  // namespace freehgc::pipeline
