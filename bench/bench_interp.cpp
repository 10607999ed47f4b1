//===- bench/bench_interp.cpp - Interpreter engine benchmark --------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the three interpreter engines head to head on every workload:
///
///   walk             the reference tree-walker
///   bytecode-cold    decoded dispatch loop, decode cost paid every run
///                    (no AnalysisManager, as a one-shot `srpc` run pays it)
///   bytecode-amort   decode cached through a shared AnalysisManager, the
///                    profile + measurement configuration the pipeline uses
///   native-cold      baseline JIT, compile forced on first call and paid
///                    every run (fresh engine per run)
///   native-default   baseline JIT under the default tiering policy (the
///                    hotness-ledger threshold, OSR at hot back edges) on
///                    a fresh engine per run: the one-shot pipeline
///                    configuration
///   native-amort     compiled code cached through a shared
///                    AnalysisManager, warmed past the tier threshold, so
///                    timed runs execute pure native code
///
/// Each timed run is also a parity check: exit status, printed output
/// length and dynamic memory-op counts must match the walker exactly or
/// the bench fails. On hosts without the JIT the native columns degrade
/// to bytecode numbers by construction. Modes:
///
///   bench_interp              # text table, full workload list
///   bench_interp --json       # BENCH_interp.json schema on stdout
///   bench_interp --smoke      # one rep, subset of workloads (CI gate)
///   bench_interp --reps=N     # override repetition count
///
//===----------------------------------------------------------------------===//

#include "WorkloadUtil.h"
#include "analysis/AnalysisManager.h"
#include "frontend/Lowering.h"
#include "ir/Module.h"
#include "interp/Interpreter.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace srp;
using namespace srp::bench;

namespace {

struct Row {
  std::string Name;
  uint64_t Instructions = 0; ///< Dynamic instructions per run.
  double WalkSec = 0;
  double ColdSec = 0;       ///< Bytecode, decode repeated every run.
  double AmortSec = 0;      ///< Bytecode, decode cached across runs.
  double NativeColdSec = 0; ///< JIT, compile repeated every run.
  double NativeDefaultSec = 0; ///< JIT, default tiering, fresh engine.
  double NativeAmortSec = 0;///< JIT, compiled code cached across runs.
};

/// Best-of-N wall time for one engine configuration. Best-of (not mean)
/// because scheduler noise only ever adds time.
template <class RunFn>
double bestOf(unsigned Reps, RunFn Run) {
  double Best = 1e30;
  for (unsigned I = 0; I != Reps; ++I) {
    double T0 = monotonicSeconds();
    Run();
    Best = std::min(Best, monotonicSeconds() - T0);
  }
  return Best;
}

/// Observable-behaviour fingerprint; engines must agree on every field.
bool sameBehaviour(const ExecutionResult &A, const ExecutionResult &B) {
  return A.Ok == B.Ok && A.Error == B.Error && A.ExitValue == B.ExitValue &&
         A.Output == B.Output &&
         A.Counts.SingletonLoads == B.Counts.SingletonLoads &&
         A.Counts.SingletonStores == B.Counts.SingletonStores &&
         A.Counts.Instructions == B.Counts.Instructions;
}

bool benchWorkload(const Workload &W, unsigned Reps, Row &Out) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = compileMiniC(loadWorkload(W.File), Errors);
  if (!M) {
    std::fprintf(stderr, "error: %s failed to compile\n", W.Name);
    return false;
  }

  ExecutionResult Walk = Interpreter(*M, 200'000'000, InterpEngine::Walk).run();
  ExecutionResult Byte =
      Interpreter(*M, 200'000'000, InterpEngine::Bytecode).run();
  if (!sameBehaviour(Walk, Byte)) {
    std::fprintf(stderr, "error: engine mismatch on %s\n", W.Name);
    return false;
  }
  {
    Interpreter NI(*M, 200'000'000, InterpEngine::Native);
    NI.setJitThreshold(1);
    ExecutionResult Native = NI.run();
    if (!sameBehaviour(Walk, Native)) {
      std::fprintf(stderr, "error: native engine mismatch on %s\n", W.Name);
      return false;
    }
  }

  Out.Name = W.Name;
  Out.Instructions = Walk.Counts.Instructions;
  Out.WalkSec = bestOf(Reps, [&] {
    Interpreter(*M, 200'000'000, InterpEngine::Walk).run();
  });
  Out.ColdSec = bestOf(Reps, [&] {
    Interpreter(*M, 200'000'000, InterpEngine::Bytecode).run();
  });
  // Amortised: one manager across all reps, like profile + measurement in
  // the pipeline. Warm the cache first so every timed run is a pure hit.
  AnalysisManager AM(M.get());
  Interpreter Amort(*M, 200'000'000, InterpEngine::Bytecode, &AM);
  Amort.run();
  Out.AmortSec = bestOf(Reps, [&] { Amort.run(); });
  // Native cold: fresh engine per run, first-call threshold — every run
  // pays decode + compile, the one-shot configuration.
  Out.NativeColdSec = bestOf(Reps, [&] {
    Interpreter NI(*M, 200'000'000, InterpEngine::Native);
    NI.setJitThreshold(1);
    NI.run();
  });
  // Native default: fresh engine per run under the default threshold —
  // cold code stays on bytecode, hot loops are compiled and entered
  // mid-run.
  Out.NativeDefaultSec = bestOf(Reps, [&] {
    Interpreter(*M, 200'000'000, InterpEngine::Native).run();
  });
  // Native amortised: compiled code cached through the manager; warm past
  // the threshold so every timed run executes pure native code.
  AnalysisManager NAM(M.get());
  Interpreter NativeAmort(*M, 200'000'000, InterpEngine::Native, &NAM);
  NativeAmort.setJitThreshold(1);
  NativeAmort.run();
  Out.NativeAmortSec = bestOf(Reps, [&] { NativeAmort.run(); });
  return true;
}

double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  unsigned Reps = 3;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--", 0) == 0)
      A.erase(0, 1);
    if (A == "-json") {
      Json = true;
    } else if (A == "-smoke") {
      Smoke = true;
    } else if (A.rfind("-reps=", 0) == 0) {
      Reps = static_cast<unsigned>(std::atoi(A.c_str() + 6));
    } else {
      std::fprintf(stderr,
                   "usage: bench_interp [--json] [--smoke] [--reps=N]\n");
      return 2;
    }
  }
  if (Smoke)
    Reps = 1;

  // SRP_TRACE=1 turns trace collection on for the whole bench. This is the
  // zero-overhead guard's measurement hook: comparing `--smoke` wall times
  // with and without the variable bounds the cost of the disabled-path
  // branches (docs/OBSERVABILITY.md "Tracing").
  if (trace::startIfEnvRequested())
    std::fprintf(stderr, "bench_interp: trace collection enabled "
                         "(SRP_TRACE=1)\n");

  std::vector<Workload> Ws;
  if (Smoke) {
    // Small + mid-size: enough to catch an engine regression in seconds.
    Ws = {{"compress", "compress.mc"}, {"li", "li.mc"}};
  } else {
    Ws = paperWorkloads();
    for (const Workload &W : extraWorkloads())
      Ws.push_back(W);
  }

  std::vector<Row> Rows;
  for (const Workload &W : Ws) {
    Row R;
    if (!benchWorkload(W, Reps, R))
      return 1;
    Rows.push_back(R);
  }

  std::vector<double> ColdUps, AmortUps, NatColdUps, NatDefaultUps,
      NatAmortUps;
  for (const Row &R : Rows) {
    ColdUps.push_back(R.WalkSec / R.ColdSec);
    AmortUps.push_back(R.WalkSec / R.AmortSec);
    NatColdUps.push_back(R.WalkSec / R.NativeColdSec);
    // What the default engine gains per one-shot run over bytecode.
    NatDefaultUps.push_back(R.ColdSec / R.NativeDefaultSec);
    // The tentpole headline: amortised native over amortised bytecode.
    NatAmortUps.push_back(R.AmortSec / R.NativeAmortSec);
  }
  double GeoCold = geomean(ColdUps), GeoAmort = geomean(AmortUps);
  double GeoNatCold = geomean(NatColdUps);
  double GeoNatDefault = geomean(NatDefaultUps);
  double GeoNatAmort = geomean(NatAmortUps);

  if (Json) {
    std::printf("{\n  \"bench\": \"bench_interp\",\n  \"reps\": %u,\n"
                "  \"workloads\": [",
                Reps);
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::printf("%s\n    {\"name\": \"%s\", \"instructions\": %llu, "
                  "\"walk_seconds\": %.6f, \"bytecode_cold_seconds\": %.6f, "
                  "\"bytecode_amortized_seconds\": %.6f, "
                  "\"native_cold_seconds\": %.6f, "
                  "\"native_default_seconds\": %.6f, "
                  "\"native_amortized_seconds\": %.6f, "
                  "\"speedup_cold\": %.2f, \"speedup_amortized\": %.2f, "
                  "\"native_speedup_cold\": %.2f, "
                  "\"native_default_over_bytecode_cold\": %.2f, "
                  "\"native_over_bytecode_amortized\": %.2f}",
                  I ? "," : "", R.Name.c_str(),
                  static_cast<unsigned long long>(R.Instructions), R.WalkSec,
                  R.ColdSec, R.AmortSec, R.NativeColdSec, R.NativeDefaultSec,
                  R.NativeAmortSec, ColdUps[I], AmortUps[I], NatColdUps[I],
                  NatDefaultUps[I], NatAmortUps[I]);
    }
    std::printf("\n  ],\n  \"geomean_speedup_cold\": %.2f,\n"
                "  \"geomean_speedup_amortized\": %.2f,\n"
                "  \"geomean_native_speedup_cold\": %.2f,\n"
                "  \"geomean_native_default_over_bytecode_cold\": %.2f,\n"
                "  \"geomean_native_over_bytecode_amortized\": %.2f\n}\n",
                GeoCold, GeoAmort, GeoNatCold, GeoNatDefault, GeoNatAmort);
    return 0;
  }

  std::printf("interpreter engines, best of %u runs (seconds per run)\n\n",
              Reps);
  std::printf("%-10s %12s %10s %10s %10s %10s %10s %10s %8s %8s %8s %8s\n",
              "workload", "dyn insts", "walk", "cold", "amort", "nat-cold",
              "nat-dflt", "nat-amort", "x cold", "x amort", "dflt/bc",
              "nat/bc");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::printf(
        "%-10s %12llu %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %7.1fx "
        "%7.1fx %7.1fx %7.1fx\n",
        R.Name.c_str(), static_cast<unsigned long long>(R.Instructions),
        R.WalkSec, R.ColdSec, R.AmortSec, R.NativeColdSec, R.NativeDefaultSec,
        R.NativeAmortSec, ColdUps[I], AmortUps[I], NatDefaultUps[I],
        NatAmortUps[I]);
  }
  std::printf("\ngeomean speedup over walk: %.1fx cold, %.1fx amortised, "
              "%.1fx native-cold\n"
              "geomean native-default over bytecode (cold): %.1fx\n"
              "geomean native over bytecode (amortised): %.1fx\n",
              GeoCold, GeoAmort, GeoNatCold, GeoNatDefault, GeoNatAmort);
  return 0;
}
