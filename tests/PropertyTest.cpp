//===- tests/PropertyTest.cpp - randomized property-based tests -----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweeps over randomly generated Mini-C programs (parameterised
/// gtest over seeds). Invariants checked per seed:
///  - the IR verifies after every stage,
///  - promotion preserves printed output, exit value, and final memory,
///  - with boundary-cost accounting on, profile-guided promotion never
///    increases the dynamic singleton memop count,
///  - the Lu-Cooper-style baseline preserves behaviour as well,
///  - the incremental SSA updater's batch and per-def variants agree,
///  - the tree-walk and bytecode interpreters produce field-identical
///    ExecutionResults on promotion-biased generated programs.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "gen/Corpus.h"
#include "gen/ProgramGen.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>
#include <iterator>

using namespace srp;
using namespace srp::test;

namespace {

class PromotionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PromotionPropertyTest, PaperModePreservesBehaviour) {
  gen::ProgramGen Gen(GetParam());
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);

  // Profile-guided promotion with boundary accounting must never lose.
  EXPECT_LE(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps())
      << "seed " << GetParam() << "\n"
      << Src;
}

TEST_P(PromotionPropertyTest, NoProfileModePreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 7919 + 13);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Mode = PromotionMode::PaperNoProfile;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
  // No dynamic-count guarantee without real profiles; behaviour only.
}

TEST_P(PromotionPropertyTest, LoopBaselinePreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 104729 + 7);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Mode = PromotionMode::LoopBaseline;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
}

TEST_P(PromotionPropertyTest, StoreEliminationOffPreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 31 + 5);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Promo.AllowStoreElimination = false;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
}

TEST_P(PromotionPropertyTest, WholeVariableGranularityPreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 271 + 3);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Promo.WebGranularity = false;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
}

TEST_P(PromotionPropertyTest, DirectAliasedStoresPreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 911 + 29);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Promo.DirectAliasedStores = true;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
  EXPECT_LE(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps())
      << "seed " << GetParam() << "\n"
      << Src;
}

TEST_P(PromotionPropertyTest, MemOptOnlyPreservesBehaviour) {
  gen::ProgramGen Gen(GetParam() * 613 + 11);
  std::string Src = Gen.generate();

  PipelineOptions Opts;
  Opts.Mode = PromotionMode::MemOptOnly;
  PipelineResult R = PipelineBuilder().options(Opts).run(Src);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << "seed " << GetParam() << ": " << E << "\nprogram:\n"
                  << Src;
  ASSERT_TRUE(R.Ok);
  // Redundancy elimination never adds operations.
  EXPECT_LE(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PromotionPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

class GeneratorSanityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorSanityTest, GeneratedProgramsCompileAndRun) {
  gen::ProgramGen Gen(GetParam() + 1000);
  std::string Src = Gen.generate();
  std::vector<std::string> Errors;
  auto M = compileMiniC(Src, Errors);
  for (const auto &E : Errors)
    ADD_FAILURE() << E << "\nprogram:\n" << Src;
  ASSERT_NE(M, nullptr);
  expectValid(*M, "generated program");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSanityTest,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===
// Walk-vs-bytecode engine parity on generated programs: checkSource
// re-runs the control and paper pipelines on the tree-walker and requires
// the full ExecutionResult — exit value, output, final memory, dynamic
// counts, block and edge profiles — to match the bytecode runs field by
// field. Seeds rotate through every shape profile, so parity is exercised
// on irreducible CFGs, call-heavy webs and aliased access too.
//===----------------------------------------------------------------------===

class EngineParityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineParityPropertyTest, WalkAndBytecodeAgreeOnFullResult) {
  const uint64_t Seed = GetParam();
  srp::gen::ShapeProfile Profile =
      srp::gen::allShapeProfiles()[Seed % srp::gen::NumShapeProfiles];
  std::string Src =
      srp::gen::generateProgram(Seed, srp::gen::biasedConfig(Seed, Profile));

  srp::gen::CheckOptions Opts;
  Opts.EngineParity = true;
  Opts.Verify = Strictness::Fast; // parity, not the checker stack, at stake
  srp::gen::CheckResult R = srp::gen::checkSource(Src, Opts);
  EXPECT_TRUE(R.Ok) << "seed " << Seed << " ("
                    << srp::gen::shapeProfileName(Profile)
                    << "): " << R.Signature << "\n"
                    << R.Detail << "\nreproduce: srp-gen -seed=" << Seed
                    << " -profile=" << srp::gen::shapeProfileName(Profile)
                    << " -check\nprogram:\n"
                    << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParityPropertyTest,
                         ::testing::Range<uint64_t>(1, 15));

//===----------------------------------------------------------------------===
// Seeded fuzz sweep through the parallel workload driver: >= 200 random
// CFG+memory programs, each run under every promotion mode. The full
// checker stack (L0 CFG through L4 promotion invariants, Strictness::Full)
// runs between every pass, and the measure pass compares the two
// interpreter runs, so any violation surfaces as a job error attributed
// to the pass that introduced it — at Full strictness the offending
// function's IR is part of the error text. Seeds are fixed: a failure
// message names the seed and mode that reproduce it. The *Heavy* suite
// name schedules this under ctest's `heavy` label.
//===----------------------------------------------------------------------===

class ParallelFuzzHeavyTest : public ::testing::Test {};

TEST_F(ParallelFuzzHeavyTest, SeededProgramsCleanUnderAllModes) {
  constexpr uint64_t NumPrograms = 200;
  const PromotionMode AllModes[] = {
      PromotionMode::None,           PromotionMode::Paper,
      PromotionMode::PaperNoProfile, PromotionMode::LoopBaseline,
      PromotionMode::Superblock,     PromotionMode::MemOptOnly};

  std::vector<CompileJob> Jobs;
  Jobs.reserve(NumPrograms * std::size(AllModes));
  for (uint64_t Seed = 1; Seed <= NumPrograms; ++Seed) {
    // The promotion-biased shape profiles are the fuzz-suite default:
    // rotating them guarantees deep nests, irreducible regions, aliased
    // aggregates and call-heavy webs all appear in every 7-seed window.
    srp::gen::ShapeProfile Profile =
        srp::gen::allShapeProfiles()[Seed % srp::gen::NumShapeProfiles];
    std::string Src =
        srp::gen::generateProgram(Seed, srp::gen::biasedConfig(Seed, Profile));

    for (PromotionMode Mode : AllModes) {
      CompileJob J;
      J.Name = "seed-" + std::to_string(Seed) + "/" +
               srp::gen::shapeProfileName(Profile) + "/" +
               promotionModeName(Mode);
      J.Source = Src;
      J.Opts.Mode = Mode;
      J.Opts.VerifyStrictness = Strictness::Full;
      Jobs.push_back(std::move(J));
    }
  }

  std::vector<PipelineResult> Results = runPipelineParallel(Jobs);
  ASSERT_EQ(Results.size(), Jobs.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    const PipelineResult &R = Results[I];
    for (const auto &E : R.Errors)
      ADD_FAILURE() << Jobs[I].Name << ": " << E << "\nprogram:\n"
                    << Jobs[I].Source;
    EXPECT_TRUE(R.Ok) << Jobs[I].Name;
    // Profile-guided promotion with boundary accounting never loses.
    if (R.Ok && Jobs[I].Opts.Mode == PromotionMode::Paper) {
      EXPECT_LE(R.RunAfter.Counts.memOps(), R.RunBefore.Counts.memOps())
          << Jobs[I].Name << "\n"
          << Jobs[I].Source;
    }
  }
}

} // namespace
