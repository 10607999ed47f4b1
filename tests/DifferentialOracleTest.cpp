//===- tests/DifferentialOracleTest.cpp - Interpreter-as-oracle suite -----===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing with the interpreter as the semantic oracle: for
/// every workload x promotion mode, the observable execution result
/// (return value, printed output trace, final memory) after transformation
/// must match the PromotionMode::None control, and the shared front half
/// of the pipeline must produce identical "before" dynamic counts. A
/// second suite proves the parallel workload driver equivalent to the
/// sequential one: same per-job results, byte-identical statistics.
///
/// Suites are named *Heavy* so ctest can schedule them under the `heavy`
/// label while tier-1 stays fast (see tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "TestHelpers.h"
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <thread>

using namespace srp;
using namespace srp::test;

namespace {

const char *WorkloadFiles[] = {"go.mc",       "li.mc",      "ijpeg.mc",
                               "perl.mc",     "m88ksim.mc", "gcc.mc",
                               "compress.mc", "vortex.mc",  "eqntott.mc"};

std::string loadWorkload(const std::string &File) {
  std::string Path = std::string(SRP_WORKLOAD_DIR) + "/" + File;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The oracle: a cached PromotionMode::None run per workload. The control
/// runs the same front half (mem2reg + canonicalise) and then executes
/// unchanged code, so its observable result is promotion-free ground
/// truth.
const PipelineResult &controlFor(const std::string &File) {
  static std::map<std::string, PipelineResult> Cache;
  auto It = Cache.find(File);
  if (It != Cache.end())
    return It->second;
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::None;
  PipelineResult R = PipelineBuilder().options(Opts).run(loadWorkload(File));
  return Cache.emplace(File, std::move(R)).first->second;
}

struct Case {
  const char *File;
  PromotionMode Mode;
};

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  std::string Name = Info.param.File;
  Name = Name.substr(0, Name.find('.'));
  return Name + "_" + promotionModeName(Info.param.Mode);
}

class DifferentialOracleHeavyTest : public ::testing::TestWithParam<Case> {};

TEST_P(DifferentialOracleHeavyTest, MatchesInterpreterOracle) {
  const Case &C = GetParam();
  const PipelineResult &Control = controlFor(C.File);
  ASSERT_TRUE(Control.Ok) << "control pipeline failed for " << C.File;

  PipelineOptions Opts;
  Opts.Mode = C.Mode;
  PipelineResult R = PipelineBuilder().options(Opts).run(loadWorkload(C.File));
  for (const auto &E : R.Errors)
    ADD_FAILURE() << C.File << "/" << promotionModeName(C.Mode) << ": " << E;
  ASSERT_TRUE(R.Ok);

  // Observable behaviour must match the no-promotion control exactly.
  EXPECT_EQ(R.RunAfter.ExitValue, Control.RunAfter.ExitValue);
  EXPECT_EQ(R.RunAfter.Output, Control.RunAfter.Output);
  EXPECT_EQ(R.RunAfter.FinalMemory, Control.RunAfter.FinalMemory);

  // The shared front half must be bit-for-bit the same program: identical
  // "before" dynamic operation counts.
  EXPECT_EQ(R.RunBefore.Counts.SingletonLoads,
            Control.RunBefore.Counts.SingletonLoads);
  EXPECT_EQ(R.RunBefore.Counts.SingletonStores,
            Control.RunBefore.Counts.SingletonStores);
  EXPECT_EQ(R.RunBefore.Counts.AliasedLoads,
            Control.RunBefore.Counts.AliasedLoads);
  EXPECT_EQ(R.RunBefore.Counts.AliasedStores,
            Control.RunBefore.Counts.AliasedStores);

  // Dynamic singleton memop deltas: redundancy elimination and
  // profile-guided promotion never lose against the control.
  if (C.Mode == PromotionMode::Paper ||
      C.Mode == PromotionMode::MemOptOnly) {
    EXPECT_LE(R.RunAfter.Counts.memOps(), Control.RunAfter.Counts.memOps());
  }
}

std::vector<Case> allCases() {
  std::vector<Case> Cases;
  for (const char *File : WorkloadFiles)
    for (PromotionMode Mode : allPromotionModes())
      Cases.push_back(Case{File, Mode});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(WorkloadsByMode, DifferentialOracleHeavyTest,
                         ::testing::ValuesIn(allCases()), caseName);

//===----------------------------------------------------------------------===
// Parallel driver equivalence: the worker pool must produce exactly the
// results and statistics of the sequential driver.
//===----------------------------------------------------------------------===

std::vector<CompileJob> workloadMatrix() {
  std::vector<CompileJob> Jobs;
  for (const char *File : WorkloadFiles) {
    SourceText Src(loadWorkload(File));
    for (PromotionMode Mode : allPromotionModes()) {
      CompileJob J;
      J.Name = std::string(File) + "/" + promotionModeName(Mode);
      J.Source = Src;
      J.Opts.Mode = Mode;
      Jobs.push_back(std::move(J));
    }
  }
  return Jobs;
}

/// Everything observable about one job's outcome, as a comparable string.
std::string digest(const PipelineResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " exit=" << R.RunAfter.ExitValue;
  OS << " out=[";
  for (int64_t V : R.RunAfter.Output)
    OS << V << ",";
  OS << "] static=" << R.StaticAfter.Loads << "/" << R.StaticAfter.Stores
     << " dyn=" << R.RunAfter.Counts.SingletonLoads << "/"
     << R.RunAfter.Counts.SingletonStores
     << " promo=" << R.Promo.WebsPromoted << "/" << R.Promo.LoadsReplaced
     << "/" << R.Promo.StoresDeleted
     << " pressure=" << R.Pressure.ColorsNeeded << "/" << R.Pressure.MaxLive
     << " errs=" << R.Errors.size();
  return OS.str();
}

class ParallelDriverHeavyTest : public ::testing::Test {};

TEST_F(ParallelDriverHeavyTest, ParallelMatchesSequentialExactly) {
  std::vector<CompileJob> Jobs = workloadMatrix();

  // Wall-clock counters (*-micros) measure time, not work; drop them
  // before comparing the aggregates.
  auto WorkStats = [] {
    StatsSnapshot S = stats::snapshot();
    for (auto It = S.begin(); It != S.end();) {
      if (It->first.size() > 7 &&
          It->first.compare(It->first.size() - 7, 7, "-micros") == 0)
        It = S.erase(It);
      else
        ++It;
    }
    return stats::toJson(S);
  };

  stats::reset();
  std::vector<PipelineResult> Seq = runPipelineParallel(Jobs, 1);
  std::string SeqStats = WorkStats();

  stats::reset();
  unsigned Threads = std::max(2u, std::thread::hardware_concurrency());
  std::vector<PipelineResult> Par = runPipelineParallel(Jobs, Threads);
  std::string ParStats = WorkStats();

  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I != Seq.size(); ++I) {
    EXPECT_TRUE(Par[I].Ok) << Jobs[I].Name;
    EXPECT_EQ(digest(Seq[I]), digest(Par[I])) << Jobs[I].Name;
  }
  // The statistics registry accumulates order-independently: the parallel
  // aggregate is byte-identical to the sequential one.
  EXPECT_EQ(SeqStats, ParStats);
}

/// True if a merged Chrome trace holds two `job` spans that overlap in
/// time on distinct worker tracks ("<prefix>/worker-N"): the pool ran
/// two jobs at once. Sets \p Spans to the number of job spans seen on
/// worker tracks.
bool jobsOverlapOnDistinctWorkers(const std::string &Trace, size_t &Spans) {
  json::Value Doc;
  std::string Err;
  Spans = 0;
  if (!json::parse(Trace, Doc, Err)) {
    ADD_FAILURE() << "trace does not parse: " << Err;
    return false;
  }
  const std::vector<json::Value> &Events = Doc.get("traceEvents").items();
  std::map<int64_t, std::string> TrackName;
  for (const json::Value &E : Events)
    if (E.get("ph").asString() == "M" &&
        E.get("name").asString() == "thread_name")
      TrackName[E.get("tid").asInt()] = E.get("args").get("name").asString();
  struct Span {
    int64_t Track;
    double Begin, End;
  };
  std::vector<Span> Jobs;
  for (const json::Value &E : Events) {
    if (E.get("ph").asString() != "X" || E.get("cat").asString() != "job")
      continue;
    int64_t Tid = E.get("tid").asInt();
    if (TrackName[Tid].find("/worker-") == std::string::npos)
      continue;
    double Ts = E.get("ts").asDouble();
    Jobs.push_back({Tid, Ts, Ts + E.get("dur").asDouble()});
  }
  Spans = Jobs.size();
  for (const Span &A : Jobs)
    for (const Span &B : Jobs)
      if (A.Track != B.Track && A.Begin < B.End && B.Begin < A.End)
        return true;
  return false;
}

// Wall-time ratios on a shared host are noise, so the gate is structural:
// the pool must run jobs concurrently, which its trace shows as two job
// spans overlapping on distinct worker tracks. The speedup is printed.
TEST_F(ParallelDriverHeavyTest, ScalesOnMulticoreHardware) {
  unsigned HW = std::thread::hardware_concurrency();
  if (HW < 4)
    GTEST_SKIP() << "concurrency check needs >= 4 cores, have " << HW;
  if (std::getenv("SRP_TRACE_DETERMINISTIC"))
    GTEST_SKIP() << "needs wall-clock trace timestamps";

  std::vector<CompileJob> Jobs = workloadMatrix();

  double T0 = monotonicSeconds();
  std::vector<PipelineResult> Seq = runPipelineParallel(Jobs, 1);
  double SeqTime = monotonicSeconds() - T0;

  trace::stop();
  trace::reset();
  trace::start();
  T0 = monotonicSeconds();
  std::vector<PipelineResult> Par = runPipelineParallel(Jobs, HW);
  double ParTime = monotonicSeconds() - T0;
  trace::stop();
  std::string Trace = trace::toChromeJson();
  trace::reset();

  for (const PipelineResult &R : Par)
    EXPECT_TRUE(R.Ok);
  std::printf("[ speedup  ] %.2fx on %u workers: sequential %.3fs, "
              "parallel (traced) %.3fs\n",
              SeqTime / ParTime, HW, SeqTime, ParTime);
  size_t Spans = 0;
  EXPECT_TRUE(jobsOverlapOnDistinctWorkers(Trace, Spans))
      << "no two of " << Spans << " job spans overlap on distinct worker "
      << "tracks: the " << HW << "-worker pool ran its jobs one at a time";
  EXPECT_EQ(Spans, Jobs.size());
}

TEST_F(ParallelDriverHeavyTest, HandlesEmptyAndSingletonJobLists) {
  EXPECT_TRUE(runPipelineParallel({}, 4).empty());

  CompileJob J;
  J.Name = "single";
  J.Source = "void main() { print(7); }";
  std::vector<PipelineResult> R = runPipelineParallel({J}, 8);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].Ok);
  ASSERT_EQ(R[0].RunAfter.Output.size(), 1u);
  EXPECT_EQ(R[0].RunAfter.Output[0], 7);
}

TEST_F(ParallelDriverHeavyTest, CompileErrorsAreReportedPerJob) {
  CompileJob Good;
  Good.Name = "good";
  Good.Source = "void main() { print(1); }";
  CompileJob Bad;
  Bad.Name = "bad";
  Bad.Source = "void main() { this is not mini-c }";
  std::vector<PipelineResult> R = runPipelineParallel({Good, Bad}, 2);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_TRUE(R[0].Ok);
  EXPECT_FALSE(R[1].Ok);
  EXPECT_FALSE(R[1].Errors.empty());
}

} // namespace
