//===- tests/RemarksTest.cpp - optimization remark tests ------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the remark engine and the decision records emitted by every
/// promoter: each one must produce a `passed` remark when it fires and a
/// `missed` remark naming the rejection reason, carrying enough typed
/// arguments (the paper's §4.3 profitability breakdown for the SSA
/// promoter) to replay the decision from the report alone. The JSON
/// rendering must be byte-stable across identical runs — the same
/// discipline `stats::toJson` follows.
///
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "pipeline/Pipeline.h"
#include "support/Remarks.h"
#include "TestHelpers.h"
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace srp;
using namespace srp::test;

namespace {

/// Runs the pipeline with a fresh engine installed for the duration and
/// returns everything it recorded.
std::vector<Remark> runWithRemarks(const std::string &Source,
                                   const PipelineOptions &Opts,
                                   const std::string &PassFilter = "") {
  RemarkEngine RE;
  RE.setPassFilter(PassFilter);
  ScopedRemarkSink Install(RE);
  PipelineResult R = PipelineBuilder().options(Opts).run(Source);
  EXPECT_TRUE(R.Ok) << "pipeline failed";
  for (const auto &E : R.Errors)
    ADD_FAILURE() << E;
  return RE.remarks();
}

/// First remark matching (kind, pass, name), or null.
const Remark *find(const std::vector<Remark> &Rs, RemarkKind K,
                   const std::string &Pass, const std::string &Name) {
  for (const Remark &R : Rs)
    if (R.Kind == K && R.Pass == Pass && R.Name == Name)
      return &R;
  return nullptr;
}

int64_t argInt(const Remark &R, const std::string &Key) {
  std::string V = R.argValue(Key);
  EXPECT_FALSE(V.empty()) << "missing arg " << Key;
  return V.empty() ? 0 : std::atoll(V.c_str());
}

const char *HotLoop = R"(
  int x = 0;
  void main() {
    int i;
    for (i = 0; i < 100; i++) x = x + 1;
    print(x);
  }
)";

TEST(RemarksTest, EngineRecordsInOrderAndFilters) {
  RemarkEngine RE;
  EXPECT_TRUE(RE.wants("promotion"));
  RE.record(Remark(RemarkKind::Passed, "promotion", "A").arg("n", 1));
  RE.record(Remark(RemarkKind::Missed, "mem2reg", "B").arg("flag", true));
  ASSERT_EQ(RE.size(), 2u);

  RE.setPassFilter("promotion");
  EXPECT_FALSE(RE.wants("mem2reg"));
  RE.record(Remark(RemarkKind::Missed, "mem2reg", "Dropped"));
  ASSERT_EQ(RE.size(), 2u) << "filtered remark must not be recorded";

  std::vector<Remark> Rs = RE.remarks();
  EXPECT_EQ(Rs[0].Name, "A");
  EXPECT_EQ(Rs[0].argValue("n"), "1");
  EXPECT_EQ(Rs[1].argValue("flag"), "true");
  EXPECT_EQ(Rs[1].argValue("absent"), "");

  RE.clear();
  EXPECT_EQ(RE.size(), 0u);
}

TEST(RemarksTest, NoSinkMeansNoRecording) {
  ASSERT_EQ(remarks::sink(), nullptr)
      << "tests must not leak an installed sink";
  // The whole pipeline runs with emission sites reduced to a null check.
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  PipelineResult R = PipelineBuilder().options(Opts).run(HotLoop);
  EXPECT_TRUE(R.Ok);
}

TEST(RemarksTest, PaperPromoterPassedCarriesProfitBreakdown) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  std::vector<Remark> Rs = runWithRemarks(HotLoop, Opts);

  const Remark *P = find(Rs, RemarkKind::Passed, "promotion", "PromotedWeb");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Function, "main");
  EXPECT_FALSE(P->Interval.empty());
  EXPECT_NE(P->Web.find('#'), std::string::npos)
      << "web label must be <object>#<id>, got " << P->Web;

  // The §4.3 inequality must be replayable from the arguments alone:
  // profit terms are internally consistent and clear the threshold.
  int64_t LoadBenefit = argInt(*P, "load-benefit");
  int64_t LoadCost = argInt(*P, "load-cost");
  int64_t StoreBenefit = argInt(*P, "store-benefit");
  int64_t StoreCost = argInt(*P, "store-cost");
  EXPECT_EQ(argInt(*P, "load-profit"), LoadBenefit - LoadCost);
  EXPECT_EQ(argInt(*P, "store-profit"), StoreBenefit - StoreCost);
  EXPECT_GE(argInt(*P, "total-profit"), argInt(*P, "threshold"));
  EXPECT_GE(LoadBenefit, 100) << "100 iterations of loads deleted";
  EXPECT_EQ(P->argValue("remove-stores"), "true");
  EXPECT_EQ(argInt(*P, "num-live-ins"), 1);
  EXPECT_GE(argInt(*P, "loads"), 1);
  EXPECT_GE(argInt(*P, "stores"), 1);
}

TEST(RemarksTest, PaperPromoterMissedWhenThresholdUnmet) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  Opts.Promo.ProfitThreshold = 1'000'000'000;
  std::vector<Remark> Rs = runWithRemarks(HotLoop, Opts);

  EXPECT_EQ(find(Rs, RemarkKind::Passed, "promotion", "PromotedWeb"), nullptr);
  const Remark *M =
      find(Rs, RemarkKind::Missed, "promotion", "UnprofitableWeb");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->argValue("threshold"), "1000000000");
  EXPECT_LT(argInt(*M, "total-profit"), argInt(*M, "threshold"))
      << "a missed UnprofitableWeb must show the failing inequality";
}

TEST(RemarksTest, Mem2RegPassedAndMissed) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::None;
  std::vector<Remark> Rs = runWithRemarks(R"(
    void main() {
      int x = 5;
      int y = 1;
      int p = &x;
      *p = 7;
      print(x + y);
    }
  )",
                                          Opts);

  const Remark *M = find(Rs, RemarkKind::Missed, "mem2reg", "NotPromotable");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->argValue("address-taken"), "true");
  EXPECT_EQ(M->Web.rfind("x", 0), 0u)
      << "expected the local x, got " << M->Web;

  const Remark *P = find(Rs, RemarkKind::Passed, "mem2reg", "PromotedLocal");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Function, "main");
  EXPECT_GE(argInt(*P, "size"), 1);
}

TEST(RemarksTest, LoopBaselinePassedAndMissed) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::LoopBaseline;
  std::vector<Remark> Clean = runWithRemarks(HotLoop, Opts);
  const Remark *P =
      find(Clean, RemarkKind::Passed, "loop-promotion", "PromotedVariable");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Web, "x");
  EXPECT_GE(argInt(*P, "loop-blocks"), 1);

  // A call in the loop body makes every reference ambiguous: the
  // Lu-Cooper-style baseline must decline and say why.
  std::vector<Remark> Call = runWithRemarks(R"(
    int g = 0;
    void touch() { g = g + 1; }
    void main() {
      int i;
      for (i = 0; i < 50; i++) {
        g = g + 1;
        touch();
      }
      print(g);
    }
  )",
                                            Opts);
  const Remark *M =
      find(Call, RemarkKind::Missed, "loop-promotion", "AmbiguousRef");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Web, "g");
  EXPECT_FALSE(M->Interval.empty());
}

TEST(RemarksTest, SuperblockPassedAndMissed) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Superblock;
  std::vector<Remark> Clean = runWithRemarks(R"(
    int g = 0;
    void main() {
      int i;
      for (i = 0; i < 60; i++) g = g + 1;
      print(g);
    }
  )",
                                             Opts);
  const Remark *P =
      find(Clean, RemarkKind::Passed, "superblock", "PromotedTraceVariable");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Web, "g");
  EXPECT_GE(argInt(*P, "trace-length"), 1);
  EXPECT_GE(argInt(*P, "on-trace-refs"), 1);
  EXPECT_EQ(P->argValue("has-store"), "true");
  EXPECT_GE(argInt(*P, "header-freq"), 1);

  // A hot on-trace call aliases g: the trace restriction must refuse.
  std::vector<Remark> Call = runWithRemarks(R"(
    int g = 0;
    void touch() { g = g + 1; }
    void main() {
      int i;
      for (i = 0; i < 50; i++) {
        g = g + 1;
        touch();
      }
      print(g);
    }
  )",
                                            Opts);
  const Remark *M = find(Call, RemarkKind::Missed, "superblock", "TraceAlias");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Web, "g");
  EXPECT_GE(argInt(*M, "trace-length"), 1);
}

TEST(RemarksTest, PassFilterDropsAtTheSource) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  std::vector<Remark> Rs = runWithRemarks(HotLoop, Opts, "mem2reg");
  ASSERT_FALSE(Rs.empty());
  for (const Remark &R : Rs)
    EXPECT_EQ(R.Pass, "mem2reg");
}

TEST(RemarksTest, JsonIsByteStableAcrossRuns) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  std::string A = remarksToJson(runWithRemarks(HotLoop, Opts));
  std::string B = remarksToJson(runWithRemarks(HotLoop, Opts));
  EXPECT_EQ(A, B) << "identical runs must render byte-identically";
  EXPECT_NE(A.find("\"remark_count\""), std::string::npos);
  EXPECT_NE(A.find("\"kind\": \"passed\""), std::string::npos);
  EXPECT_NE(A.find("\"pass\": \"promotion\""), std::string::npos);
}

std::string readWorkload(const std::string &File) {
  std::ifstream In(std::string(SRP_WORKLOAD_DIR) + "/" + File);
  EXPECT_TRUE(In.good()) << "cannot open workload " << File;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

// The promoter computes a web's §4.3 profit only when it can matter: when
// the web has loads or stores, or when a sink wants promotion remarks.
// Whatever the sink, the transformed program must be the same.
TEST(RemarksTest, SinkDoesNotSteerPromotion) {
  ASSERT_EQ(remarks::sink(), nullptr);
  for (const char *File : {"spice.mc", "mpeg.mc", "db.mc"}) {
    const std::string Src = readWorkload(File);
    ASSERT_FALSE(Src.empty());
    for (PromotionMode Mode :
         {PromotionMode::Paper, PromotionMode::PaperNoProfile}) {
      SCOPED_TRACE(std::string(File) + " " + promotionModeName(Mode));
      PipelineOptions Opts;
      Opts.Mode = Mode;
      PipelineResult Plain = PipelineBuilder().options(Opts).run(Src);
      ASSERT_TRUE(Plain.Ok);
      const std::string PlainIR = toString(*Plain.M);
      // A sink that records promotion remarks, and one whose filter drops
      // them at the source.
      for (const char *Filter : {"", "mem2reg"}) {
        SCOPED_TRACE(std::string("remarks filter '") + Filter + "'");
        RemarkEngine RE;
        RE.setPassFilter(Filter);
        ScopedRemarkSink Install(RE);
        PipelineResult Seen = PipelineBuilder().options(Opts).run(Src);
        ASSERT_TRUE(Seen.Ok);
        EXPECT_EQ(toString(*Seen.M), PlainIR);
        EXPECT_TRUE(Seen.Promo == Plain.Promo);
        bool SawPromotion = false;
        for (const Remark &R : RE.remarks())
          SawPromotion |= R.Pass == "promotion";
        EXPECT_EQ(SawPromotion, *Filter == '\0');
      }
    }
  }
}

} // namespace
