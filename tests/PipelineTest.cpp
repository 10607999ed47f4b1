//===- tests/PipelineTest.cpp - end-to-end pipeline tests -----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

TEST(PipelineTest, ReportsFrontendErrors) {
  PipelineResult R = PipelineBuilder().run("void main() { undeclared = 1; }");
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("unknown"), std::string::npos);
  EXPECT_EQ(R.M, nullptr);
}

TEST(PipelineTest, ReportsRuntimeTraps) {
  PipelineResult R = PipelineBuilder().run(R"(
    int z = 0;
    void main() { print(1 / z); }
  )");
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("division"), std::string::npos);
}

TEST(PipelineTest, NoneModeLeavesMemOpsAlone) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::None;
  PipelineResult R = PipelineBuilder().options(Opts).run(R"(
    int g = 0;
    void main() { int i; for (i = 0; i < 10; i++) g = g + 1; }
  )");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.RunBefore.Counts.memOps(), R.RunAfter.Counts.memOps());
  EXPECT_EQ(R.StaticBefore.total(), R.StaticAfter.total());
  EXPECT_EQ(R.Promo.WebsPromoted, 0u);
}

TEST(PipelineTest, StaticCountsMatchIRContents) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::None;
  PipelineResult R = PipelineBuilder().options(Opts).run(R"(
    int g = 1;
    int a[4];
    void main() {
      g = g + 1;   // 1 load, 1 store
      a[0] = g;    // 1 load, 1 aliased op
      print(*(&g)); // 1 aliased op (after &g, ptr load)
    }
  )");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.StaticAfter.Loads, 2u);
  EXPECT_EQ(R.StaticAfter.Stores, 1u);
  EXPECT_EQ(R.StaticAfter.AliasedOps, 2u);
}

// Memory-SSA construction between the profile and measure runs annotates
// every function (mu/chi operands, memory phis) but moves no edit epoch, so
// a function promotion leaves alone keeps the decode the profile run made.
TEST(PipelineTest, MeasureRunReusesDecodeOfUntouchedFunction) {
  PipelineResult R = PipelineBuilder().mode(PromotionMode::Paper).run(R"(
    int g = 0;
    int sq(int x) { return x * x; }
    void main() { int i; for (i = 0; i < 10; i++) g = g + sq(i); print(g); }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
  ASSERT_GT(R.Promo.WebsPromoted, 0u); // main changed, sq did not
  EXPECT_EQ(R.RunAfter.Interp.DecodeCacheHits, 1u);
  EXPECT_EQ(R.RunAfter.Interp.FunctionsDecoded, 1u);
  EXPECT_EQ(R.Analysis.builds(AnalysisKind::MemorySSA), 2u);
}

TEST(PipelineTest, CustomEntryFunction) {
  PipelineOptions Opts;
  Opts.EntryFunction = "driver";
  PipelineResult R = PipelineBuilder().options(Opts).run(R"(
    int g = 0;
    void driver() { g = 42; print(g); }
    void main() { print(0); }
  )");
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.RunAfter.Output.size(), 1u);
  EXPECT_EQ(R.RunAfter.Output[0], 42);
}

TEST(PipelineTest, MissingEntryFunctionFails) {
  PipelineOptions Opts;
  Opts.EntryFunction = "nonexistent";
  PipelineResult R = PipelineBuilder().options(Opts).run("void main() { }");
  EXPECT_FALSE(R.Ok);
}

TEST(PipelineTest, ProfitThresholdSuppressesMarginalPromotions) {
  const char *Src = R"(
    int g = 0;
    void main() { int i; for (i = 0; i < 10; i++) g = g + 1; print(g); }
  )";
  PipelineOptions Greedy;
  PipelineResult RG = PipelineBuilder().options(Greedy).run(Src);
  ASSERT_TRUE(RG.Ok);

  PipelineOptions Strict;
  Strict.Promo.ProfitThreshold = 1'000'000; // nothing is this profitable
  PipelineResult RS = PipelineBuilder().options(Strict).run(Src);
  ASSERT_TRUE(RS.Ok);

  EXPECT_GT(RG.Promo.WebsPromoted, 0u);
  EXPECT_EQ(RS.Promo.WebsPromoted, 0u);
  EXPECT_EQ(RS.RunBefore.Counts.memOps(), RS.RunAfter.Counts.memOps());
}

TEST(PipelineTest, RecursivePrograms) {
  PipelineResult R = PipelineBuilder().run(R"(
    int depth_max = 0;
    int fib(int n) {
      depth_max = depth_max + 1;
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    void main() { print(fib(12)); print(depth_max); }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
  EXPECT_EQ(R.RunAfter.Output[0], 144);
}

TEST(PipelineTest, DoWhileLoopsPromote) {
  PipelineResult R = PipelineBuilder().run(R"(
    int g = 0;
    void main() {
      int i = 0;
      do {
        g = g + 3;
        i = i + 1;
      } while (i < 20);
      print(g);
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
  EXPECT_EQ(R.RunAfter.Output[0], 60);
  EXPECT_LT(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps());
}

TEST(PipelineTest, MultipleExitLoopsGetTailStores) {
  PipelineResult R = PipelineBuilder().run(R"(
    int g = 0;
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        g = g + 1;
        if (g == 37) break;
      }
      print(g);
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
  EXPECT_EQ(R.RunAfter.Output[0], 37);
  EXPECT_LT(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps());
}

TEST(PipelineTest, IrreducibleControlFlowSurvives) {
  // goto-free Mini-C cannot write irreducible CFGs directly, but nested
  // break/continue carve multi-exit shapes the canonicaliser must handle.
  PipelineResult R = PipelineBuilder().run(R"(
    int g = 0;
    void main() {
      int i; int j;
      for (i = 0; i < 10; i++) {
        for (j = 0; j < 10; j++) {
          g = g + 1;
          if (g > 42) break;
        }
        if (g > 42) continue;
        g = g + 100;
      }
      print(g);
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
}

TEST(PipelineTest, StructFieldAndPointerMix) {
  PipelineResult R = PipelineBuilder().run(R"(
    struct S { int a = 1; int b = 2; } s;
    void main() {
      int p = &s.a;
      int i;
      for (i = 0; i < 10; i++) {
        s.b = s.b + s.a;  // s.b promotable; s.a aliased by *p
        if (i == 5) *p = 7;
      }
      print(s.a);
      print(s.b);
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);
  EXPECT_EQ(R.RunAfter.Output[0], 7);
}

} // namespace
