//===- tests/AnalysisManagerTest.cpp - Analysis cache tests ---------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AnalysisManager contract: hit/miss accounting, dependency-aware
/// invalidation, epoch-driven staleness after CFG surgery,
/// stale-handle detection, the retire-don't-free lifetime guarantee, the
/// cache-disable knob, and the differential oracle that a cached pipeline
/// run is observably identical to an uncached one in every promotion mode.
/// Also covers the PipelineConfig satellites: promotion-mode name
/// round-tripping and SourceText storage sharing across the job matrix.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "interp/Interpreter.h"
#include "ir/CFGEdit.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "profile/ProfileInfo.h"
#include "regalloc/Liveness.h"
#include "ssa/MemorySSA.h"
#include "TestHelpers.h"
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>

using namespace srp;
using namespace srp::test;

namespace {

/// A diamond with a critical edge a->j (a also branches to t, j also hears
/// from t) and a store, so every analysis kind has something to chew on.
Function *buildDiamond(Module &M) {
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(0), T, J);
  B.setInsertPoint(T);
  B.store(G, M.constant(1));
  B.br(J);
  B.setInsertPoint(J);
  B.ret(B.load(G, "v"));
  return F;
}

TEST(AnalysisManagerTest, HitMissAccounting) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Dominators));
  DominatorTree &D1 = AM.get<DominatorTree>(*F);
  DominatorTree &D2 = AM.get<DominatorTree>(*F);
  EXPECT_EQ(&D1, &D2);
  EXPECT_TRUE(AM.isCached(*F, AnalysisKind::Dominators));

  const AnalysisCacheStats &S = AM.cacheStats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.builds(AnalysisKind::Dominators), 1u);
}

TEST(AnalysisManagerTest, IntervalBuildReusesCachedDominators) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  AM.get<DominatorTree>(*F);
  AM.get<IntervalTree>(*F); // pulls dominators from the cache
  const AnalysisCacheStats &S = AM.cacheStats();
  EXPECT_EQ(S.builds(AnalysisKind::Dominators), 1u);
  EXPECT_EQ(S.builds(AnalysisKind::Intervals), 1u);
  EXPECT_GE(S.Hits, 1u); // the recursive dominator request hit
}

TEST(AnalysisManagerTest, DependencyCascadeOnDominatorInvalidation) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  AM.get<IntervalTree>(*F);
  AM.get<StaticFrequency>(*F);
  ASSERT_TRUE(AM.isCached(*F, AnalysisKind::Dominators));
  ASSERT_TRUE(AM.isCached(*F, AnalysisKind::Intervals));
  ASSERT_TRUE(AM.isCached(*F, AnalysisKind::StaticFrequency));

  // Abandoning dominators takes the derived analyses with it, even when
  // the preserved-set claims to keep them.
  AM.invalidate(*F, PreservedAnalyses::all()
                        .abandon(AnalysisKind::Dominators)
                        .preserve(AnalysisKind::Intervals)
                        .preserve(AnalysisKind::StaticFrequency));
  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Dominators));
  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Intervals));
  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::StaticFrequency));
}

TEST(AnalysisManagerTest, SplitEdgeInvalidatesPreciselyThroughEpochs) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  AM.get<DominatorTree>(*F);
  AM.get<IntervalTree>(*F);
  AM.get<MemorySSAInfo>(*F);
  AM.get<Liveness>(*F);

  BasicBlock *A = F->entry();
  BasicBlock *J = A->succs()[1];
  splitEdge(A, J); // moves F's CFG epoch; nothing tells the manager

  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Dominators));
  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Intervals));
  EXPECT_FALSE(AM.isCached(*F, AnalysisKind::Liveness));
  // CFGEdit maintains (memory) phi incoming lists itself, so memory SSA
  // survives edge splitting.
  EXPECT_TRUE(AM.isCached(*F, AnalysisKind::MemorySSA));

  // A rebuild after the edit sees the new block; the stale tree it
  // replaces is the first entry retired for a moved epoch.
  EXPECT_EQ(AM.cacheStats().CFGEditEvents, 0u);
  DominatorTree &DT = AM.get<DominatorTree>(*F);
  EXPECT_TRUE(DT.dominates(F->entry(), J));
  EXPECT_EQ(AM.cacheStats().builds(AnalysisKind::Dominators), 2u);
  EXPECT_EQ(AM.cacheStats().CFGEditEvents, 1u);
  EXPECT_EQ(AM.cacheStats().builds(AnalysisKind::MemorySSA), 1u);
}

TEST(AnalysisManagerTest, ForeignModuleEditsLeaveEntriesCached) {
  Module M1, M2;
  Function *F1 = buildDiamond(M1);
  Function *F2 = buildDiamond(M2);
  AnalysisManager AM(&M1);

  AM.get<DominatorTree>(*F1);
  splitEdge(F2->entry(), F2->entry()->succs()[1]); // other module's function
  EXPECT_TRUE(AM.isCached(*F1, AnalysisKind::Dominators));
  AM.get<DominatorTree>(*F1);
  EXPECT_EQ(AM.cacheStats().CFGEditEvents, 0u);
  EXPECT_EQ(AM.cacheStats().builds(AnalysisKind::Dominators), 1u);
}

TEST(AnalysisManagerTest, StaleHandlesRefuseTheirPointee) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  AnalysisHandle<DominatorTree> H = AM.getHandle<DominatorTree>(*F);
  ASSERT_TRUE(H.valid());
  EXPECT_FALSE(H.stale());
  EXPECT_NE(H.get(), nullptr);

  AM.invalidate(*F, AnalysisKind::Dominators);
  EXPECT_TRUE(H.stale());
  EXPECT_EQ(H.get(), nullptr);

  // A rebuild produces a fresh generation; the old handle stays stale.
  AM.get<DominatorTree>(*F);
  EXPECT_TRUE(H.stale());
}

TEST(AnalysisManagerTest, RetiredInstancesStayAliveUntilClear) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);

  DominatorTree &Old = AM.get<DominatorTree>(*F);
  BasicBlock *Entry = F->entry();
  AM.invalidate(*F, AnalysisKind::Dominators);
  DominatorTree &New = AM.get<DominatorTree>(*F);
  EXPECT_NE(&Old, &New);
  // The retired tree is out of date but must remain readable (snapshot
  // consumers like superblock promotion hold pointers across edits).
  // Under ASan/valgrind this is the use-after-free probe.
  EXPECT_TRUE(Old.dominates(Entry, Entry));
}

TEST(AnalysisManagerTest, DisabledCacheRebuildsEveryRequest) {
  Module M;
  Function *F = buildDiamond(M);
  AnalysisManager AM(&M);
  AM.setCachingEnabled(false);

  DominatorTree &D1 = AM.get<DominatorTree>(*F);
  DominatorTree &D2 = AM.get<DominatorTree>(*F);
  EXPECT_NE(&D1, &D2);
  EXPECT_TRUE(D1.dominates(F->entry(), F->entry())); // superseded, not freed

  const AnalysisCacheStats &S = AM.cacheStats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.builds(AnalysisKind::Dominators), 2u);
}

TEST(AnalysisManagerTest, ExecutionProfileBuiltOnceAndRebuildable) {
  auto M = compileOrDie(R"(
    int g = 0;
    void main() { int i; for (i = 0; i < 5; i++) g = g + 1; print(g); }
  )");
  AnalysisManager AM(M.get());

  Interpreter Interp(*M);
  ExecutionResult R = Interp.run("main");
  ASSERT_TRUE(R.Ok) << R.Error;

  EXPECT_FALSE(AM.hasExecutionProfile());
  AM.setExecution(R.BlockCounts);
  ASSERT_TRUE(AM.hasExecutionProfile());

  const ProfileInfo &P1 = AM.executionProfile();
  const ProfileInfo &P2 = AM.executionProfile();
  EXPECT_EQ(&P1, &P2);
  EXPECT_EQ(AM.cacheStats().builds(AnalysisKind::Profile), 1u);

  // Invalidating the Profile kind drops the built form but keeps the
  // measurement: the next request rebuilds from the recorded counts.
  Function *F = M->getFunction("main");
  ASSERT_NE(F, nullptr);
  AM.invalidate(*F, AnalysisKind::Profile);
  const ProfileInfo &P3 = AM.executionProfile();
  EXPECT_EQ(P3.frequency(F->entry()), P1.frequency(F->entry()));
  EXPECT_EQ(AM.cacheStats().builds(AnalysisKind::Profile), 2u);
}

//===----------------------------------------------------------------------===
// Pipeline-level behaviour: the builder API and the cached-vs-uncached
// differential oracle.
//===----------------------------------------------------------------------===

const char *LoopProgram = R"(
  int g = 0;
  int h = 0;
  void main() {
    int i;
    for (i = 0; i < 50; i++) {
      g = g + 2;
      if (i > 10) h = h + g;
    }
    print(g);
    print(h);
  }
)";

TEST(AnalysisManagerTest, PipelineBuilderExposesCacheAccounting) {
  PipelineResult R = PipelineBuilder().mode(PromotionMode::Paper).run(
      SourceText(LoopProgram));
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors[0]);

  // The cache must actually get reused: canonicalisation, promotion and
  // pressure all consume dominators/intervals without rebuilding them.
  EXPECT_GT(R.Analysis.Hits, 0u);
  EXPECT_GT(R.Analysis.builds(AnalysisKind::Dominators), 0u);
  // One function, one loop: far fewer dominator builds than requests.
  EXPECT_LT(R.Analysis.builds(AnalysisKind::Dominators),
            R.Analysis.Hits + R.Analysis.Misses);

  // JSON rendering is stable and contains every accounting field.
  std::string J = analysisCacheStatsToJson(R.Analysis);
  EXPECT_NE(J.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(J.find("\"built\""), std::string::npos);
  EXPECT_NE(J.find("\"dominators\""), std::string::npos);
}

TEST(AnalysisManagerTest, DisablingTheCacheCostsBuildsNotResults) {
  PipelineResult Cached =
      PipelineBuilder().mode(PromotionMode::Paper).run(SourceText(LoopProgram));
  PipelineResult Uncached = PipelineBuilder()
                                .mode(PromotionMode::Paper)
                                .disableAnalysisCache(true)
                                .run(SourceText(LoopProgram));
  ASSERT_TRUE(Cached.Ok);
  ASSERT_TRUE(Uncached.Ok);

  EXPECT_EQ(Uncached.Analysis.Hits, 0u);
  EXPECT_GT(Uncached.Analysis.builds(AnalysisKind::Dominators),
            Cached.Analysis.builds(AnalysisKind::Dominators));
}

/// Everything observable about a run that must not depend on caching.
std::string observableDigest(const PipelineResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " exit=" << R.RunAfter.ExitValue << " out=[";
  for (int64_t V : R.RunAfter.Output)
    OS << V << ",";
  OS << "] static=" << R.StaticAfter.Loads << "/" << R.StaticAfter.Stores
     << "/" << R.StaticAfter.AliasedOps
     << " dyn=" << R.RunAfter.Counts.SingletonLoads << "/"
     << R.RunAfter.Counts.SingletonStores << "/"
     << R.RunAfter.Counts.AliasedLoads << "/"
     << R.RunAfter.Counts.AliasedStores
     << " promo=" << R.Promo.WebsPromoted << "/" << R.Promo.LoadsReplaced
     << "/" << R.Promo.StoresDeleted << "/" << R.Promo.StoresInserted
     << " pressure=" << R.Pressure.ColorsNeeded << "/" << R.Pressure.MaxLive;
  return OS.str();
}

TEST(AnalysisManagerTest, CachedAndUncachedRunsAreObservablyIdentical) {
  for (PromotionMode Mode : allPromotionModes()) {
    PipelineResult Cached =
        PipelineBuilder().mode(Mode).run(SourceText(LoopProgram));
    PipelineResult Uncached = PipelineBuilder()
                                  .mode(Mode)
                                  .disableAnalysisCache(true)
                                  .run(SourceText(LoopProgram));
    ASSERT_TRUE(Cached.Ok) << promotionModeName(Mode);
    ASSERT_TRUE(Uncached.Ok) << promotionModeName(Mode);
    EXPECT_EQ(observableDigest(Cached), observableDigest(Uncached))
        << promotionModeName(Mode);
  }
}

TEST(AnalysisManagerTest, BuilderKeepsManagerForPostMortemInspection) {
  PipelineBuilder B;
  EXPECT_EQ(B.analysisManager(), nullptr);
  PipelineResult R = B.mode(PromotionMode::Paper).run(SourceText(LoopProgram));
  ASSERT_TRUE(R.Ok);
  ASSERT_NE(B.analysisManager(), nullptr);
  EXPECT_TRUE(B.analysisManager()->cachingEnabled());
  EXPECT_EQ(B.analysisManager()->cacheStats().Hits, R.Analysis.Hits);
}

//===----------------------------------------------------------------------===
// PipelineConfig satellites: mode name round-trip and SourceText sharing.
//===----------------------------------------------------------------------===

TEST(PromotionModeTest, NamesRoundTripThroughParse) {
  for (PromotionMode Mode : allPromotionModes()) {
    PromotionMode Parsed = PromotionMode::None;
    ASSERT_TRUE(parsePromotionMode(promotionModeName(Mode), Parsed))
        << promotionModeName(Mode);
    EXPECT_EQ(Parsed, Mode);
  }
  PromotionMode Unchanged = PromotionMode::Superblock;
  EXPECT_FALSE(parsePromotionMode("turbo", Unchanged));
  EXPECT_FALSE(parsePromotionMode("", Unchanged));
  EXPECT_FALSE(parsePromotionMode("Paper", Unchanged)); // case-sensitive
  EXPECT_EQ(Unchanged, PromotionMode::Superblock);
}

TEST(SourceTextTest, CopiesShareOneStorage) {
  SourceText A(std::string("void main() { }"));
  SourceText B = A;
  EXPECT_TRUE(A.sharesStorageWith(B));
  EXPECT_EQ(A.storage(), B.storage());
  EXPECT_EQ(B.str(), "void main() { }");

  SourceText C(std::string("void main() { }")); // equal text, new storage
  EXPECT_FALSE(A.sharesStorageWith(C));

  SourceText Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.str(), "");
}

TEST(SourceTextTest, WorkloadMatrixDoesNotDuplicateProgramText) {
  const char *Files[] = {"go.mc",       "li.mc",      "ijpeg.mc",
                         "perl.mc",     "m88ksim.mc", "gcc.mc",
                         "compress.mc", "vortex.mc",  "eqntott.mc"};

  std::vector<CompileJob> Jobs;
  for (const char *File : Files) {
    std::ifstream In(std::string(SRP_WORKLOAD_DIR) + "/" + File);
    ASSERT_TRUE(In.good()) << "cannot open workload " << File;
    std::ostringstream SS;
    SS << In.rdbuf();
    SourceText Src(SS.str());
    for (PromotionMode Mode : allPromotionModes()) {
      CompileJob J;
      J.Name = std::string(File) + "/" + promotionModeName(Mode);
      J.Source = Src;
      J.Opts.Mode = Mode;
      Jobs.push_back(std::move(J));
    }
  }
  ASSERT_EQ(Jobs.size(), 54u);

  // The full matrix holds exactly one string per workload file: the six
  // mode jobs of a workload alias the same immutable storage.
  std::set<const std::string *> Storages;
  for (const CompileJob &J : Jobs)
    Storages.insert(J.Source.storage());
  EXPECT_EQ(Storages.size(), 9u);
  for (size_t I = 0; I + 5 < Jobs.size(); I += 6)
    for (size_t K = 1; K != 6; ++K)
      EXPECT_TRUE(Jobs[I].Source.sharesStorageWith(Jobs[I + K].Source))
          << Jobs[I].Name << " vs " << Jobs[I + K].Name;
}

} // namespace
