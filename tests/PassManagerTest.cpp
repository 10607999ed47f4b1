//===- tests/PassManagerTest.cpp - Instrumented pass manager tests --------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass-manager layer: registration and execution order, per-pass
/// timing, statistics registry lifecycle (reset between runs), JSON
/// round-trips for both the statistics snapshot and the pass records, and
/// verifier-failure attribution via a failure-injection pass.
///
//===----------------------------------------------------------------------===//

#include "pipeline/PassManager.h"
#include "pipeline/Pipeline.h"
#include "ir/Module.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "TestHelpers.h"
#include <cctype>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

using namespace srp;
using namespace srp::test;

namespace {

//===----------------------------------------------------------------------===
// A minimal JSON reader for round-trip checks (objects, arrays, strings,
// numbers, booleans; exactly the subset the pass manager emits).
//===----------------------------------------------------------------------===

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      V = nullptr;

  bool isObject() const { return std::holds_alternative<JsonObject>(V); }
  const JsonObject &object() const { return std::get<JsonObject>(V); }
  const JsonArray &array() const { return std::get<JsonArray>(V); }
  double number() const { return std::get<double>(V); }
  const std::string &str() const { return std::get<std::string>(V); }
  bool boolean() const { return std::get<bool>(V); }
};

class JsonReader {
  const std::string &S;
  size_t P = 0;

  void ws() {
    while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
      ++P;
  }
  char peek() {
    ws();
    return P < S.size() ? S[P] : '\0';
  }
  bool eat(char C) {
    if (peek() != C)
      return false;
    ++P;
    return true;
  }

public:
  bool Failed = false;

  explicit JsonReader(const std::string &S) : S(S) {}

  JsonValue parse() {
    JsonValue Out = value();
    ws();
    if (P != S.size())
      Failed = true;
    return Out;
  }

  JsonValue value() {
    JsonValue Out;
    switch (peek()) {
    case '{': {
      ++P;
      JsonObject Obj;
      if (!eat('}')) {
        do {
          JsonValue Key = value();
          if (!std::holds_alternative<std::string>(Key.V) || !eat(':')) {
            Failed = true;
            return Out;
          }
          Obj[Key.str()] = value();
        } while (eat(','));
        if (!eat('}'))
          Failed = true;
      }
      Out.V = std::move(Obj);
      return Out;
    }
    case '[': {
      ++P;
      JsonArray Arr;
      if (!eat(']')) {
        do
          Arr.push_back(value());
        while (eat(','));
        if (!eat(']'))
          Failed = true;
      }
      Out.V = std::move(Arr);
      return Out;
    }
    case '"': {
      ++P;
      std::string Str;
      while (P < S.size() && S[P] != '"') {
        if (S[P] == '\\' && P + 1 < S.size()) {
          ++P;
          switch (S[P]) {
          case 'n':
            Str += '\n';
            break;
          case 't':
            Str += '\t';
            break;
          default:
            Str += S[P];
          }
        } else {
          Str += S[P];
        }
        ++P;
      }
      if (P == S.size()) {
        Failed = true;
        return Out;
      }
      ++P; // closing quote
      Out.V = std::move(Str);
      return Out;
    }
    case 't':
    case 'f': {
      bool T = S.compare(P, 4, "true") == 0;
      bool F = S.compare(P, 5, "false") == 0;
      if (!T && !F) {
        Failed = true;
        return Out;
      }
      P += T ? 4 : 5;
      Out.V = T;
      return Out;
    }
    default: {
      size_t Start = P;
      while (P < S.size() &&
             (std::isdigit(static_cast<unsigned char>(S[P])) || S[P] == '-' ||
              S[P] == '+' || S[P] == '.' || S[P] == 'e' || S[P] == 'E'))
        ++P;
      if (P == Start) {
        Failed = true;
        return Out;
      }
      Out.V = std::stod(S.substr(Start, P - Start));
      return Out;
    }
    }
  }
};

const char *SimpleProgram = "int g = 1;\n"
                            "void main() {\n"
                            "  int i;\n"
                            "  for (i = 0; i < 10; i++) { g = g + i; }\n"
                            "  print(g);\n"
                            "}\n";

//===----------------------------------------------------------------------===
// Registration and ordering.
//===----------------------------------------------------------------------===

TEST(PassManagerTest, RunsPassesInRegistrationOrder) {
  auto M = compileOrDie(SimpleProgram);
  PassManager PM;
  std::vector<std::string> Trace;
  for (const char *Name : {"alpha", "beta", "gamma"})
    PM.addPass(Name, [&Trace, Name](Module &, AnalysisManager &,
                                    std::vector<std::string> &) {
      Trace.push_back(Name);
      return true;
    });

  EXPECT_EQ(PM.passNames(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  std::vector<std::string> Errors;
  AnalysisManager AM(M.get());
  EXPECT_TRUE(PM.run(*M, AM, Errors));
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(Trace, (std::vector<std::string>{"alpha", "beta", "gamma"}));

  ASSERT_EQ(PM.records().size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_EQ(PM.records()[I].Name, PM.passNames()[I]);
    EXPECT_TRUE(PM.records()[I].Ran);
    EXPECT_TRUE(PM.records()[I].Verified);
    EXPECT_EQ(PM.records()[I].VerifyErrors, 0u);
  }
}

TEST(PassManagerTest, AbortStopsRemainingPasses) {
  auto M = compileOrDie(SimpleProgram);
  PassManager PM;
  PM.addPass("first",
             [](Module &, AnalysisManager &, std::vector<std::string> &) {
               return true;
             });
  PM.addPass("failing", [](Module &, AnalysisManager &,
                           std::vector<std::string> &Errors) {
    Errors.push_back("injected failure");
    return false;
  });
  bool ThirdRan = false;
  PM.addPass("third",
             [&](Module &, AnalysisManager &, std::vector<std::string> &) {
               ThirdRan = true;
               return true;
             });

  std::vector<std::string> Errors;
  AnalysisManager AM(M.get());
  EXPECT_FALSE(PM.run(*M, AM, Errors));
  EXPECT_FALSE(ThirdRan);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "injected failure");
  ASSERT_EQ(PM.records().size(), 3u);
  EXPECT_TRUE(PM.records()[1].Failed);
  EXPECT_FALSE(PM.records()[2].Ran);
}

//===----------------------------------------------------------------------===
// Timing.
//===----------------------------------------------------------------------===

TEST(PassManagerTest, TimingIsPositiveAndMonotonic) {
  auto M = compileOrDie(SimpleProgram);
  PassManager PM;
  // Busy-wait so wall time is attributable regardless of scheduler jitter.
  PM.addPass("spin",
             [](Module &, AnalysisManager &, std::vector<std::string> &) {
               double End = monotonicSeconds() + 0.005;
               while (monotonicSeconds() < End)
                 ;
               return true;
             });
  PM.addPass("instant",
             [](Module &, AnalysisManager &, std::vector<std::string> &) {
               return true;
             });

  AnalysisManager AM(M.get());
  double Before = monotonicSeconds();
  std::vector<std::string> Errors;
  ASSERT_TRUE(PM.run(*M, AM, Errors));
  double Elapsed = monotonicSeconds() - Before;

  const auto &Recs = PM.records();
  ASSERT_EQ(Recs.size(), 2u);
  EXPECT_GE(Recs[0].WallSeconds, 0.005);
  EXPECT_GE(Recs[1].WallSeconds, 0.0);
  // Pass times never exceed the enclosing run's wall time.
  EXPECT_LE(Recs[0].WallSeconds + Recs[1].WallSeconds, Elapsed);
}

//===----------------------------------------------------------------------===
// Statistics registry.
//===----------------------------------------------------------------------===

TEST(StatisticsTest, PipelineRunPopulatesNamedCounters) {
  stats::reset();
  PipelineResult R = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R.Ok);

  StatsSnapshot S = stats::snapshot();
  EXPECT_GE(S.size(), 10u) << "expected a rich statistics registry";
  EXPECT_GT(S.at("mem2reg.promoted"), 0u);
  EXPECT_GT(S.at("pipeline.runs"), 0u);
  EXPECT_GT(S.at("interp.runs"), 0u);
  EXPECT_GT(S.at("coloring.max-pressure"), 0u);
  // Descriptions are attached to registered statistics.
  EXPECT_FALSE(stats::description("mem2reg.promoted").empty());
}

TEST(StatisticsTest, ResetZeroesEveryCounterBetweenRuns) {
  PipelineResult R = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R.Ok);
  ASSERT_GT(stats::snapshot().at("pipeline.runs"), 0u);

  stats::reset();
  for (const auto &[Name, Value] : stats::snapshot())
    EXPECT_EQ(Value, 0u) << Name << " not reset";

  // Identical runs from a zeroed registry produce identical snapshots —
  // except wall-clock counters (*-micros), which measure time, not work.
  auto DropTimings = [](StatsSnapshot S) {
    for (auto It = S.begin(); It != S.end();) {
      if (It->first.size() > 7 &&
          It->first.compare(It->first.size() - 7, 7, "-micros") == 0)
        It = S.erase(It);
      else
        ++It;
    }
    return S;
  };
  PipelineResult R1 = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R1.Ok);
  StatsSnapshot First = DropTimings(stats::snapshot());
  stats::reset();
  PipelineResult R2 = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(First, DropTimings(stats::snapshot()));
}

TEST(StatisticsTest, UpdateMaxKeepsPeak) {
  SRP_STATISTIC(Peak, "test", "peak-metric", "test-only peak counter");
  Peak.set(0);
  Peak.updateMax(7);
  Peak.updateMax(3);
  EXPECT_EQ(Peak.get(), 7u);
  Peak.updateMax(11);
  EXPECT_EQ(Peak.get(), 11u);
}

//===----------------------------------------------------------------------===
// JSON round-trips.
//===----------------------------------------------------------------------===

TEST(StatisticsTest, SnapshotJsonRoundTrips) {
  stats::reset();
  PipelineResult R = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R.Ok);

  StatsSnapshot S = stats::snapshot();
  std::string Json = stats::toJson(S);
  JsonReader Reader(Json);
  JsonValue V = Reader.parse();
  ASSERT_FALSE(Reader.Failed) << "invalid JSON:\n" << Json;
  ASSERT_TRUE(V.isObject());

  StatsSnapshot Parsed;
  for (const auto &[Name, Val] : V.object())
    Parsed[Name] = static_cast<uint64_t>(Val.number());
  EXPECT_EQ(Parsed, S);

  // Byte stability: equal snapshots serialise identically.
  EXPECT_EQ(Json, stats::toJson(stats::snapshot()));
}

TEST(PassManagerTest, PassRecordsJsonRoundTrips) {
  PipelineResult R = PipelineBuilder().run(SimpleProgram);
  ASSERT_TRUE(R.Ok);
  ASSERT_FALSE(R.Passes.empty());

  std::string Json = passRecordsToJson(R.Passes);
  JsonReader Reader(Json);
  JsonValue V = Reader.parse();
  ASSERT_FALSE(Reader.Failed) << "invalid JSON:\n" << Json;
  const JsonArray &Arr = V.array();
  ASSERT_EQ(Arr.size(), R.Passes.size());
  for (size_t I = 0; I != Arr.size(); ++I) {
    const JsonObject &O = Arr[I].object();
    EXPECT_EQ(O.at("name").str(), R.Passes[I].Name);
    EXPECT_NEAR(O.at("wall_seconds").number(), R.Passes[I].WallSeconds,
                1e-9);
    EXPECT_EQ(O.at("ran").boolean(), R.Passes[I].Ran);
    EXPECT_EQ(O.at("verified").boolean(), R.Passes[I].Verified);
  }
}

TEST(StatisticsTest, JsonEscapingHandlesSpecials) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb"), "a\\nb");
}

//===----------------------------------------------------------------------===
// Failure injection: verifier errors must be attributed to the breaking
// pass, and the pipeline must stop there.
//===----------------------------------------------------------------------===

TEST(PassManagerTest, VerifierErrorsAreAttributedToTheBreakingPass) {
  auto M = compileOrDie("void main() { print(42); }");
  PassManager PM;
  PM.addPass("benign",
             [](Module &, AnalysisManager &, std::vector<std::string> &) {
               return true;
             });
  PM.addPass("breaker", [](Module &Mod, AnalysisManager &,
                           std::vector<std::string> &) {
    // Drop main's terminator: structurally invalid IR the verifier flags.
    Function *F = Mod.getFunction("main");
    BasicBlock *Entry = F->entry();
    Entry->erase(Entry->terminator());
    return true;
  });
  bool AfterRan = false;
  PM.addPass("after",
             [&](Module &, AnalysisManager &, std::vector<std::string> &) {
               AfterRan = true;
               return true;
             });

  std::vector<std::string> Errors;
  AnalysisManager AM(M.get());
  EXPECT_FALSE(PM.run(*M, AM, Errors));
  EXPECT_FALSE(AfterRan);
  ASSERT_FALSE(Errors.empty());
  for (const std::string &E : Errors)
    EXPECT_EQ(E.rfind("after pass 'breaker':", 0), 0u)
        << "misattributed error: " << E;

  const auto &Recs = PM.records();
  ASSERT_EQ(Recs.size(), 3u);
  EXPECT_EQ(Recs[0].VerifyErrors, 0u);
  EXPECT_GT(Recs[1].VerifyErrors, 0u);
  EXPECT_FALSE(Recs[2].Ran);
}

TEST(PassManagerTest, VerificationCanBeDisabled) {
  auto M = compileOrDie("void main() { print(42); }");
  PassManagerOptions Opts;
  Opts.VerifyEachPass = false;
  PassManager PM(Opts);
  PM.addPass("noop",
             [](Module &, AnalysisManager &, std::vector<std::string> &) {
               return true;
             });
  std::vector<std::string> Errors;
  AnalysisManager AM(M.get());
  EXPECT_TRUE(PM.run(*M, AM, Errors));
  EXPECT_FALSE(PM.records()[0].Verified);
}

//===----------------------------------------------------------------------===
// Pipeline integration: the instrumented stages appear in the result.
//===----------------------------------------------------------------------===

TEST(PassManagerTest, PipelineReportsItsStages) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::Paper;
  PipelineResult R = PipelineBuilder().options(Opts).run(SimpleProgram);
  ASSERT_TRUE(R.Ok);

  std::vector<std::string> Names;
  for (const PassRecord &P : R.Passes)
    Names.push_back(P.Name);
  EXPECT_EQ(Names,
            (std::vector<std::string>{"mem2reg", "canonicalise", "profile",
                                      "memory-ssa", "promotion", "cleanup",
                                      "measure", "pressure"}));
  for (const PassRecord &P : R.Passes) {
    EXPECT_TRUE(P.Ran) << P.Name;
    EXPECT_GE(P.WallSeconds, 0.0) << P.Name;
  }
}

TEST(PassManagerTest, NoneModeSkipsTransformStages) {
  PipelineOptions Opts;
  Opts.Mode = PromotionMode::None;
  PipelineResult R = PipelineBuilder().options(Opts).run(SimpleProgram);
  ASSERT_TRUE(R.Ok);
  for (const PassRecord &P : R.Passes) {
    EXPECT_NE(P.Name, "promotion");
    EXPECT_NE(P.Name, "memory-ssa");
  }
}

} // namespace
