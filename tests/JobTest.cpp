//===- tests/JobTest.cpp - Job API, report schema, job cache --------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the job API introduced with the compile server: runCompileJob,
/// the resultToJson report schema (the `srpc --stats-json` document and
/// the server wire payload are the same bytes, so this test pins both),
/// job fingerprints, and the process-wide JobCache.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Job.h"
#include "support/JSON.h"
#include <gtest/gtest.h>

using namespace srp;

namespace {

const char *CountLoop = R"(
  int g = 0;
  int main() {
    int i;
    for (i = 0; i < 10; i++)
      g = g + i;
    print(g);
    return g;
  }
)";

CompileJob makeJob(const char *Src, PromotionMode Mode,
                   const std::string &Name = "job.mc") {
  CompileJob J;
  J.Name = Name;
  J.Source = SourceText(std::string(Src));
  J.Opts.Mode = Mode;
  return J;
}

TEST(JobTest, RunCompileJobProducesResultAndReport) {
  CompileJob Job = makeJob(CountLoop, PromotionMode::Paper);
  JobResult R = runCompileJob(Job);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Pipeline.RunAfter.Output.size(), 1u);
  EXPECT_EQ(R.Pipeline.RunAfter.Output[0], 45);
  EXPECT_EQ(R.Pipeline.RunAfter.ExitValue, 45);
  EXPECT_FALSE(resultToJson(R.Pipeline, Job).empty());
}

TEST(JobTest, RunCompileJobAcceptsTextualIR) {
  CompileJob J;
  J.Name = "ir-job";
  J.InputIsIR = true;
  J.Source = SourceText(std::string(R"(
global x = 7
func int @main() {
entry:
  %c = ld [x]
  print %c
  ret %c
}
)"));
  JobResult R = runCompileJob(J);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Pipeline.RunAfter.Output.size(), 1u);
  EXPECT_EQ(R.Pipeline.RunAfter.Output[0], 7);
}

TEST(JobTest, RunCompileJobReportsFrontendErrors) {
  CompileJob Job =
      makeJob("void main() { undeclared = 1; }", PromotionMode::Paper);
  JobResult R = runCompileJob(Job);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Pipeline.Errors.empty());
  // Failed jobs still produce a report (ok:false travels in-band).
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(resultToJson(R.Pipeline, Job), Doc, Err)) << Err;
  EXPECT_FALSE(Doc.get("ok").asBool(true));
  EXPECT_FALSE(Doc.get("errors").items().empty());
}

// The report schema: every consumer (CLI --stats-json, server wire
// format, dashboards) reads this document, so key additions are fine
// but renames/removals are breaking. docs/OBSERVABILITY.md describes
// each section.
TEST(JobTest, ReportSchemaIsPinned) {
  CompileJob Job = makeJob(CountLoop, PromotionMode::Paper);
  JobResult R = runCompileJob(Job);
  ASSERT_TRUE(R.ok());

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(resultToJson(R.Pipeline, Job), Doc, Err)) << Err;
  ASSERT_TRUE(Doc.isObject());

  const char *TopLevel[] = {"file",     "mode",         "entry",
                            "ok",       "errors",       "exit_value",
                            "passes",   "statistics",   "telemetry",
                            "analysis", "interp",       "verification",
                            "validation", "counts",     "exec",
                            "pressure", "remarks",      "trace"};
  std::vector<std::string> Keys;
  for (const auto &KV : Doc.members())
    Keys.push_back(KV.first);
  ASSERT_EQ(Keys.size(), std::size(TopLevel));
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Keys[I], TopLevel[I]) << "top-level key order drifted";

  EXPECT_EQ(Doc.get("file").asString(), "job.mc");
  EXPECT_EQ(Doc.get("mode").asString(), "paper");
  EXPECT_EQ(Doc.get("entry").asString(), "main");
  EXPECT_TRUE(Doc.get("ok").asBool(false));
  EXPECT_EQ(Doc.get("exit_value").asInt(-1), 45);

  for (const char *K : {"engine", "functions_decoded", "decode_cache_hits",
                        "functions_compiled", "native_calls", "deopts",
                        "decode_seconds", "compile_seconds",
                        "profile_exec_seconds", "measure_exec_seconds"})
    EXPECT_TRUE(Doc.get("interp").has(K)) << "interp." << K;
  for (const char *K : {"strictness", "passes_verified", "checks_run",
                        "diagnostics", "wall_seconds"})
    EXPECT_TRUE(Doc.get("verification").has(K)) << "verification." << K;
  for (const char *K :
       {"passes_validated", "functions_validated",
        "functions_skipped_identical", "effect_pairs_matched",
        "obligations_proven", "obligations_failed", "webs_checked",
        "webs_proven", "wall_seconds"})
    EXPECT_TRUE(Doc.get("validation").has(K)) << "validation." << K;
  for (const char *K :
       {"static_loads_before", "static_loads_after", "static_stores_before",
        "static_stores_after", "dynamic_loads_before", "dynamic_loads_after",
        "dynamic_stores_before", "dynamic_stores_after"})
    EXPECT_TRUE(Doc.get("counts").has(K)) << "counts." << K;
  for (const char *K : {"output", "final_memory_hash", "wall_seconds"})
    EXPECT_TRUE(Doc.get("exec").has(K)) << "exec." << K;
  for (const char *K : {"values", "edges", "colors_needed", "max_live"})
    EXPECT_TRUE(Doc.get("pressure").has(K)) << "pressure." << K;

  // Telemetry is the full registry view; remarks/trace are null unless
  // the job asked for capture (WantRemarks/WantTrace).
  for (const char *K : {"counters", "gauges", "histograms"})
    EXPECT_TRUE(Doc.get("telemetry").has(K)) << "telemetry." << K;
  EXPECT_TRUE(Doc.get("remarks").isNull());
  EXPECT_TRUE(Doc.get("trace").isNull());

  // exec carries the behavioural fields the server parity test compares.
  const json::Value &Out = Doc.get("exec").get("output");
  ASSERT_EQ(Out.items().size(), 1u);
  EXPECT_EQ(Out.items()[0].asInt(0), 45);
  EXPECT_EQ(Doc.get("exec").get("final_memory_hash").asString().size(), 16u);
}

// At Strictness::Semantic the validation section carries the real
// translation-validation accounting; at the default strictness it is
// all zeros (present, so consumers never branch on key existence).
TEST(JobTest, ValidationSectionReflectsSemanticStrictness) {
  CompileJob Job = makeJob(CountLoop, PromotionMode::Paper);
  Job.Opts.VerifyEachStep = true;
  Job.Opts.VerifyStrictness = Strictness::Semantic;
  JobResult R = runCompileJob(Job);
  ASSERT_TRUE(R.ok());

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(resultToJson(R.Pipeline, Job), Doc, Err)) << Err;
  const json::Value &V = Doc.get("validation");
  EXPECT_EQ(Doc.get("verification").get("strictness").asString(),
            "semantic");
  EXPECT_GT(V.get("passes_validated").asInt(0), 0);
  EXPECT_GT(V.get("obligations_proven").asInt(0), 0);
  EXPECT_EQ(V.get("obligations_failed").asInt(-1), 0);
  EXPECT_EQ(V.get("webs_proven").asInt(-1), V.get("webs_checked").asInt(-2));

  CompileJob FastJob = makeJob(CountLoop, PromotionMode::Paper);
  JobResult Fast = runCompileJob(FastJob);
  ASSERT_TRUE(Fast.ok());
  ASSERT_TRUE(json::parse(resultToJson(Fast.Pipeline, FastJob), Doc, Err))
      << Err;
  EXPECT_EQ(Doc.get("validation").get("passes_validated").asInt(-1), 0);
}

TEST(JobTest, FingerprintSeparatesSourceOptionsAndKind) {
  CompileJob A = makeJob(CountLoop, PromotionMode::Paper);
  CompileJob B = A;
  EXPECT_EQ(jobFingerprint(A), jobFingerprint(B));

  B.Opts.Mode = PromotionMode::None;
  EXPECT_NE(jobFingerprint(A), jobFingerprint(B));

  CompileJob C = A;
  C.Source = SourceText(std::string(CountLoop) + " ");
  EXPECT_NE(jobFingerprint(A), jobFingerprint(C));

  CompileJob D = A;
  D.InputIsIR = true;
  EXPECT_NE(jobFingerprint(A), jobFingerprint(D));

  // The label is identity-irrelevant: same work, same fingerprint.
  CompileJob E = A;
  E.Name = "other-label";
  EXPECT_EQ(jobFingerprint(A), jobFingerprint(E));
}

TEST(JobTest, OptionsKeyCoversSemanticOptions) {
  PipelineOptions A, B;
  EXPECT_EQ(pipelineOptionsKey(A), pipelineOptionsKey(B));
  B.Promo.ProfitThreshold = 3;
  EXPECT_NE(pipelineOptionsKey(A), pipelineOptionsKey(B));
  B = A;
  B.EntryFunction = "driver";
  EXPECT_NE(pipelineOptionsKey(A), pipelineOptionsKey(B));
  B = A;
  B.Promo.WebGranularity = false;
  EXPECT_NE(pipelineOptionsKey(A), pipelineOptionsKey(B));
}

TEST(JobTest, FinalMemoryHashTracksBehaviour) {
  JobResult R1 = runCompileJob(makeJob(CountLoop, PromotionMode::Paper));
  JobResult R2 = runCompileJob(makeJob(CountLoop, PromotionMode::None));
  ASSERT_TRUE(R1.ok());
  ASSERT_TRUE(R2.ok());
  // Promotion must not change observable memory: equal final images.
  EXPECT_EQ(finalMemoryHash(R1.Pipeline.RunAfter),
            finalMemoryHash(R2.Pipeline.RunAfter));

  JobResult R3 = runCompileJob(
      makeJob("int g = 0; void main() { g = 99; }", PromotionMode::Paper));
  ASSERT_TRUE(R3.ok());
  EXPECT_NE(finalMemoryHash(R1.Pipeline.RunAfter),
            finalMemoryHash(R3.Pipeline.RunAfter));
}

TEST(JobTest, JobCacheHitsAndMisses) {
  JobCache Cache(8);
  CompileJob Job = makeJob(CountLoop, PromotionMode::Paper);
  EXPECT_EQ(Cache.lookup(Job), nullptr);

  JobResult R = runCompileJob(Job);
  ASSERT_TRUE(R.ok());
  Cache.insert(Job, JobCache::makeEntry(Job, R.Pipeline));

  JobCache::EntryPtr E = Cache.lookup(Job);
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->Ok);
  EXPECT_EQ(E->ExitValue, 45);
  ASSERT_EQ(E->Output.size(), 1u);
  EXPECT_EQ(E->Output[0], 45);
  EXPECT_EQ(E->FinalMemoryHash, finalMemoryHash(R.Pipeline.RunAfter));
  EXPECT_EQ(E->ReportJson, resultToJson(R.Pipeline, Job));

  // A different mode is a different key.
  CompileJob Other = makeJob(CountLoop, PromotionMode::LoopBaseline);
  EXPECT_EQ(Cache.lookup(Other), nullptr);

  JobCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST(JobTest, JobCacheEvictsLeastRecentlyUsed) {
  JobCache Cache(2);
  auto entry = [] {
    auto E = std::make_shared<JobCache::Entry>();
    E->Ok = true;
    return JobCache::EntryPtr(E);
  };
  CompileJob A = makeJob("void main() { print(1); }", PromotionMode::Paper);
  CompileJob B = makeJob("void main() { print(2); }", PromotionMode::Paper);
  CompileJob C = makeJob("void main() { print(3); }", PromotionMode::Paper);
  Cache.insert(A, entry());
  Cache.insert(B, entry());
  ASSERT_NE(Cache.lookup(A), nullptr); // A is now most recent
  Cache.insert(C, entry());            // evicts B
  EXPECT_NE(Cache.lookup(A), nullptr);
  EXPECT_EQ(Cache.lookup(B), nullptr);
  EXPECT_NE(Cache.lookup(C), nullptr);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

} // namespace
