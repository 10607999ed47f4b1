//===- tests/GenTest.cpp - Program generator tests ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the gen library's program generator: byte-stable
/// determinism, profile round-trips, reachability of every shape class
/// (in particular irreducible regions and multi-live-in webs from the
/// *default* configuration), and compile/run sanity of every profile.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGen.h"
#include "pipeline/Pipeline.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::gen;

namespace {

TEST(GenTest, SameSeedSameBytes) {
  for (uint64_t Seed : {1ull, 7ull, 99ull, 1234567ull}) {
    GenConfig Cfg = biasedConfig(Seed);
    EXPECT_EQ(generateProgram(Seed, Cfg), generateProgram(Seed, Cfg))
        << "seed " << Seed;
  }
}

TEST(GenTest, DifferentSeedsDiffer) {
  EXPECT_NE(generateProgram(1), generateProgram(2));
}

TEST(GenTest, ProfileNamesRoundTrip) {
  for (ShapeProfile P : allShapeProfiles()) {
    ShapeProfile Back = ShapeProfile::Default;
    ASSERT_TRUE(parseShapeProfile(shapeProfileName(P), Back))
        << shapeProfileName(P);
    EXPECT_EQ(Back, P);
  }
  ShapeProfile Out;
  EXPECT_FALSE(parseShapeProfile("no-such-profile", Out));
}

TEST(GenTest, BiasedConfigMatchesPinnedOverload) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GenConfig A = biasedConfig(Seed);
    GenConfig B = biasedConfig(Seed, profileForSeed(Seed));
    EXPECT_EQ(generateProgram(Seed, A), generateProgram(Seed, B));
  }
}

// The satellite contract of this PR: the *default* GenConfig must be able
// to emit irreducible intervals (goto into a loop body) and multi-live-in
// webs — a default that cannot reach them would silently blind the fuzz
// suites to the MultipleLiveIns rejection path.
TEST(GenTest, DefaultConfigReachesIrreducibleShapes) {
  ASSERT_GT(GenConfig().IrreducibleChance, 0u);
  ASSERT_GT(GenConfig().MultiLiveInChance, 0u);
  unsigned WithGoto = 0;
  for (uint64_t Seed = 1; Seed <= 60 && !WithGoto; ++Seed)
    if (generateProgram(Seed, GenConfig()).find("goto ") != std::string::npos)
      ++WithGoto;
  EXPECT_GT(WithGoto, 0u)
      << "60 default-config programs without a single goto region";
}

TEST(GenTest, MultiLiveInProfileEmitsGotoRegions) {
  unsigned WithGoto = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GenConfig Cfg = GenConfig::forProfile(ShapeProfile::MultiLiveIn);
    if (generateProgram(Seed, Cfg).find("goto ") != std::string::npos)
      ++WithGoto;
  }
  // IrreducibleChance is 90% in this profile; all-miss over 10 seeds
  // would mean the knob is disconnected.
  EXPECT_GE(WithGoto, 5u);
}

class ProfileSanityTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

// Every profile generates programs that compile, verify and terminate.
TEST_P(ProfileSanityTest, CompilesAndRuns) {
  auto [ProfileIdx, Seed] = GetParam();
  ShapeProfile P = allShapeProfiles()[ProfileIdx];
  std::string Src = generateProgram(Seed, biasedConfig(Seed, P));
  PipelineResult R = PipelineBuilder().mode(PromotionMode::None).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << shapeProfileName(P) << " seed " << Seed << ": " << E
                  << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.RunAfter.Ok)
      << shapeProfileName(P) << " seed " << Seed << ": "
      << R.RunAfter.Error << "\nprogram:\n"
      << Src;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProfileSanityTest,
    ::testing::Combine(::testing::Range(0u, NumShapeProfiles),
                       ::testing::Values<uint64_t>(3, 11, 27)));

} // namespace
