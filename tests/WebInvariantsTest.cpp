//===- tests/WebInvariantsTest.cpp - paper §4.2 set properties ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper states four properties of the per-web reference sets, all
/// consequences of single-threaded memory ("no two singleton resources
/// that represent the same memory location may have their live ranges
/// interfering"):
///   1. there is at most one live-in resource for a web,
///   2. each aliased store defines a unique resource in the web,
///   3. each aliased load uses a unique resource in the web,
///   4. at most one resource of the web is live-out of each interval exit.
/// This suite checks them over the webs of randomly generated programs
/// (proper intervals; improper ones may legitimately have several
/// live-ins and are skipped by the promoter).
///
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "gen/ProgramGen.h"
#include "promotion/SSAWeb.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>
#include <map>
#include <set>

using namespace srp;
using namespace srp::test;

namespace {

class WebInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WebInvariantsTest, PaperSetPropertiesHold) {
  gen::ProgramGen Gen(GetParam() * 2713 + 5);
  std::string Src = Gen.generate();
  std::vector<std::string> Errors;
  auto M = compileMiniC(Src, Errors);
  ASSERT_TRUE(M != nullptr);

  for (const auto &F : M->functions()) {
    DominatorTree DT0(*F);
    promoteLocalsToSSA(*F, DT0);
    CanonicalCFG CFG = canonicalize(*F);
    buildMemorySSA(*F, CFG.DT);

    for (Interval *Iv : CFG.IT.postorder()) {
      auto Webs = constructSSAWebs(*Iv, {});
      for (const SSAWeb &W : Webs) {
        // Property 1: at most one live-in (proper intervals).
        if (Iv->isProper() || Iv->isRoot()) {
          EXPECT_LE(W.NumLiveIns, 1u)
              << "seed " << GetParam() << " fn " << F->name() << " web of "
              << W.Obj->name();
        }

        // Property 2: aliased stores define pairwise distinct resources.
        std::set<const MemoryName *> ChiDefs;
        for (const auto &[Inst, Def] : W.AliasedStoreRefs)
          EXPECT_TRUE(ChiDefs.insert(Def).second)
              << "aliased store defines a web resource twice";

        // Property 3: each aliased load instruction uses exactly one
        // resource of the web.
        std::map<const Instruction *, unsigned> UsesPerInst;
        for (const auto &[Inst, Used] : W.AliasedLoadRefs)
          ++UsesPerInst[Inst];
        for (const auto &[Inst, N] : UsesPerInst)
          EXPECT_EQ(N, 1u) << "aliased load uses several web resources";

        // Property 4: at most one web resource live-out per exit edge:
        // among the web's resources, the defs reaching a given exit source
        // are totally ordered by dominance, so the reaching one is unique.
        for (const auto &[Srk, Tail] : Iv->exitEdges()) {
          unsigned Reaching = 0;
          for (MemoryName *N : W.Resources) {
            if (!N->def() || !Iv->contains(N->def()->parent()))
              continue;
            // A def reaches the exit if its block dominates the source
            // and no other web def of the object is between: the cheap
            // necessary check here is dominance of the exit source.
            if (CFG.DT.dominates(N->def()->parent(), Srk)) {
              bool Shadowed = false;
              for (MemoryName *O : W.Resources) {
                if (O == N || !O->def() ||
                    !Iv->contains(O->def()->parent()))
                  continue;
                if (CFG.DT.dominates(N->def(), O->def()) &&
                    CFG.DT.dominates(O->def()->parent(), Srk))
                  Shadowed = true;
              }
              if (!Shadowed)
                ++Reaching;
            }
          }
          EXPECT_LE(Reaching, 1u)
              << "several web defs reach exit " << Srk->name();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WebInvariantsTest,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
