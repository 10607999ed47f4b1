//===- tests/SuperblockTest.cpp - superblock migration tests --------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Mahlke-style superblock baseline: the hot trace carries the
/// variable in a register, cold side paths synchronise/refresh memory,
/// on-trace calls block promotion, and behaviour is always preserved.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGen.h"
#include "pipeline/Pipeline.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

PipelineResult runSB(const std::string &Source) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Superblock;
  PipelineResult R = PipelineBuilder().options(Opts).run(Source);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << E;
  return R;
}

TEST(SuperblockTest, CleanLoopPromoted) {
  PipelineResult R = runSB(R"(
    int g = 0;
    void main() {
      int i;
      for (i = 0; i < 60; i++) g = g + 1;
      print(g);
    }
  )");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.RunAfter.Output[0], 60);
  EXPECT_GE(R.Superblock.VariablesPromoted, 1u);
  EXPECT_LT(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps() / 4);
}

TEST(SuperblockTest, ColdCallPathDoesNotBlock) {
  // The call sits on a rarely taken arm: off the trace, so the superblock
  // promoter (unlike the Lu-Cooper baseline) still fires.
  const char *Src = R"(
    int g = 0;
    void touch() { g = g | 1; }
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        g = g + 2;
        if (i == 50) touch();
      }
      print(g);
    }
  )";
  PipelineResult RS = runSB(Src);
  ASSERT_TRUE(RS.Ok);
  EXPECT_GE(RS.Superblock.VariablesPromoted, 1u);

  PipelineOptions Base;
  Base.Mode = PromotionMode::LoopBaseline;
  PipelineResult RB = PipelineBuilder().options(Base).run(Src);
  ASSERT_TRUE(RB.Ok);
  EXPECT_EQ(RB.Baseline.VariablesPromoted, 0u);

  EXPECT_EQ(RS.RunAfter.Output, RB.RunAfter.Output);
  EXPECT_LT(RS.RunAfter.Counts.memOps(), RB.RunAfter.Counts.memOps());
}

TEST(SuperblockTest, OnTraceCallBlocks) {
  PipelineResult R = runSB(R"(
    int g = 0;
    void touch() { g = g + 1; }
    void main() {
      int i;
      for (i = 0; i < 50; i++) {
        g = g + 1;
        touch();   // hot: on the trace
      }
      print(g);
    }
  )");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.RunAfter.Output[0], 100);
  EXPECT_GE(R.Superblock.BlockedOnTraceAlias, 1u);
}

TEST(SuperblockTest, OffTraceSingletonRefBlocks) {
  // g is also read on the cold arm: the superblock restriction refuses it
  // (all singleton refs must lie on the trace).
  PipelineResult R = runSB(R"(
    int g = 0;
    int probe = 0;
    void main() {
      int i;
      for (i = 0; i < 80; i++) {
        g = g + 1;
        if (i == 40) probe = g * 2;
      }
      print(g);
      print(probe);
    }
  )");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.RunAfter.Output[0], 80);
  EXPECT_EQ(R.RunAfter.Output[1], 82);
  EXPECT_GE(R.Superblock.BlockedOffTraceRef, 1u);
}

TEST(SuperblockTest, SuperblockCanBeatPaperPlacement) {
  // A shape where the trace-sync placement wins: the call reads b's value
  // through the loop phi, so the paper's stores-added rule compensates at
  // the phi's incoming edge (hot, freq 100) and rightly declines store
  // elimination — while the superblock syncs directly on the cold edge.
  // (PromotionOptions::DirectAliasedStores closes this gap; see
  // PromotionEdgeTest.DirectAliasedStorePlacement.)
  const char *Src = R"(
    int a = 0;
    int b = 0;
    void touch() { b = b + a; }
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        a = a + 1;
        if (i == 99) touch();
        b = b + 2;
      }
      print(a);
      print(b);
    }
  )";
  PipelineResult RS = runSB(Src);
  ASSERT_TRUE(RS.Ok);
  PipelineOptions Paper;
  PipelineResult RP = PipelineBuilder().options(Paper).run(Src);
  ASSERT_TRUE(RP.Ok);
  EXPECT_EQ(RS.RunAfter.Output, RP.RunAfter.Output);
  // Faithful paper placement keeps b's store each iteration here.
  EXPECT_GT(RP.RunAfter.Counts.memOps(), RS.RunAfter.Counts.memOps());
}

TEST(SuperblockTest, PaperWinsWhenRefsLeaveTheTrace) {
  // Off-trace singleton refs block the superblock entirely; the paper's
  // web promoter is scope-free and wins.
  const char *Src = R"(
    int g = 0;
    int probe = 0;
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        g = g + 1;
        if (i == 50) probe = g;
      }
      print(g);
      print(probe);
    }
  )";
  PipelineResult RS = runSB(Src);
  ASSERT_TRUE(RS.Ok);
  PipelineOptions Paper;
  PipelineResult RP = PipelineBuilder().options(Paper).run(Src);
  ASSERT_TRUE(RP.Ok);
  EXPECT_EQ(RS.RunAfter.Output, RP.RunAfter.Output);
  EXPECT_LT(RP.RunAfter.Counts.memOps(), RS.RunAfter.Counts.memOps());
}

class SuperblockPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SuperblockPropertyTest, PreservesBehaviourOnRandomPrograms) {
  gen::ProgramGen Gen(GetParam() * 8839 + 17);
  std::string Src = Gen.generate();
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Superblock;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockPropertyTest,
                         ::testing::Range<uint64_t>(1, 31));

} // namespace
