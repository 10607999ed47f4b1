//===- tools/srpc.cpp - Mini-C compiler driver ----------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver: compile a Mini-C file, optionally promote, run,
/// and report. The "opt + lli" of this repository. Also the front door
/// of the compile server (docs/SERVER.md):
///
///   srpc file.mc                      # promote (paper mode) and run
///   srpc -mode=none|paper|noprofile|baseline file.mc
///   srpc -stats-json file.mc          # run report as JSON
///   srpc -serve -socket=/tmp/s.sock   # long-running compile server
///   srpc -connect -socket=/tmp/s.sock file.mc   # submit to a server
///   srpc -connect -server-stats       # query server counters
///   srpc -connect -shutdown           # drain and stop the server
///
/// One-shot, server, and client paths all speak the same job API
/// (pipeline/Job.h), so `-stats-json` output is byte-identical whether
/// the job ran in-process or on the other side of the socket.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "jit/NativeJIT.h"
#include "pipeline/Job.h"
#include "server/Client.h"
#include "server/Server.h"
#include "ssa/MemorySSA.h"
#include "support/Options.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include "support/Trace.h"
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace srp;

namespace {

/// Parses a non-negative integer option value.
bool parseUnsigned(const std::string &V, unsigned &Out) {
  if (V.empty())
    return false;
  unsigned long N = 0;
  for (char C : V) {
    if (C < '0' || C > '9')
      return false;
    N = N * 10 + static_cast<unsigned long>(C - '0');
    if (N > 1000000)
      return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

int runAnalyzeMode(const std::string &File, const std::string &Source,
                   bool InputIsIR, bool DiagJson) {
  // Static analysis mode: compile (without the implicit zero-init of
  // locals, so a load-before-store is visible as a read of the entry
  // memory version), run the layered IR checkers, then the source
  // lints on the un-mem2reg'd IR. No execution, no transformation.
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M;
  if (InputIsIR) {
    M = parseIR(Source, Errors);
  } else {
    LoweringOptions LO;
    LO.ImplicitZeroInitLocals = false;
    M = compileMiniC(Source, Errors, "mc", LO);
  }
  if (!M) {
    for (const auto &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }
  AnalysisManager AM(M.get());
  DiagnosticEngine DE;
  runChecks(*M, DE, Strictness::Fast, &AM);
  if (!DE.hasErrors()) {
    // The memory lints read mu/chi tags: build memory SSA first.
    for (const auto &F : M->functions())
      if (!F->empty())
        AM.get<MemorySSAInfo>(*F);
    runSourceLints(*M, AM, DE);
  }
  if (DiagJson) {
    std::printf("%s\n", diagnosticsToJson(DE.diagnostics()).c_str());
  } else {
    std::fputs(diagnosticsToText(DE.diagnostics()).c_str(), stdout);
    std::fprintf(stderr, "%s: %u error(s), %u warning(s)\n", File.c_str(),
                 DE.errors(), DE.warnings());
  }
  return DE.hasErrors() ? 1 : 0;
}

/// `srpc -connect`: submit the job to a running server and print (and
/// write) what a local run would have printed. The job carries its
/// observability requests, so -remarks-json/-trace-out work transparently:
/// the server captures per job and the response carries the exact bytes a
/// local run writes — replayed from the job cache on a hit.
int runConnectMode(const CompileJob &Job, const std::string &SocketPath,
                   bool Quiet, bool StatsJson,
                   const std::string &RemarksJsonPath,
                   const std::string &TraceOutPath) {
  server::Client C;
  std::string Err;
  if (!C.connect(SocketPath, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  server::CompileResponse Resp;
  if (!C.compile(Job, Resp, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Resp.Ok) {
    for (const auto &E : Resp.Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }
  if (!RemarksJsonPath.empty()) {
    std::ofstream Out(RemarksJsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   RemarksJsonPath.c_str());
      return 1;
    }
    Out << Resp.RemarksJson << "\n";
  }
  if (!TraceOutPath.empty()) {
    std::ofstream Out(TraceOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
      return 1;
    }
    Out << Resp.TraceJson;
  }
  if (!Quiet)
    for (int64_t V : Resp.Output)
      std::printf("%lld\n", static_cast<long long>(V));
  if (StatsJson)
    std::fputs(Resp.ReportJson.c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  PipelineOptions Opts;
  bool PrintBefore = false, PrintAfter = false, Stats = false;
  bool Counts = false, Quiet = false, InputIsIR = false;
  bool StatsJson = false, TimePasses = false;
  bool Analyze = false, DiagJson = false;
  bool Serve = false, Connect = false;
  bool Ping = false, ServerStats = false, Shutdown = false;
  bool ServerMetricsProm = false;
  server::ServerOptions SrvOpts;
  std::string File, RemarksJsonPath, RemarksFilter, TraceOutPath;

  opt::OptionParser OP("srpc", "[options] file.mc");
  OP.value("mode", "<none|paper|noprofile|baseline|superblock|memopt>",
           "promotion mode (default paper)",
           [&](const std::string &V) {
             return parsePromotionMode(V, Opts.Mode);
           });
  OP.value("entry", "<name>", "entry function (default main)",
           [&](const std::string &V) {
             Opts.EntryFunction = V;
             return true;
           });
  OP.flag("print-ir-before", "dump IR before promotion",
          [&] { PrintBefore = true; });
  OP.flag("print-ir-after", "dump IR after promotion",
          [&] { PrintAfter = true; });
  OP.flag("no-store-elim", "keep stores (loads only)",
          [&] { Opts.Promo.AllowStoreElimination = false; });
  OP.flag("whole-variable", "disable SSA-web granularity",
          [&] { Opts.Promo.WebGranularity = false; });
  OP.flag("no-boundary-cost", "use the paper's exact profit formula",
          [&] { Opts.Promo.CountBoundaryOps = false; });
  OP.flag("direct-stores", "improved aliased-store placement",
          [&] { Opts.Promo.DirectAliasedStores = true; });
  OP.flag("no-analysis-cache",
          "rebuild every analysis on each request (also: "
          "SRP_DISABLE_ANALYSIS_CACHE=1)",
          [&] { Opts.DisableAnalysisCache = true; });
  OP.value("interp", "<native|bytecode|walk>",
           "execution engine for the profile and measurement runs "
           "(default native on x86-64 hosts, bytecode elsewhere; native is "
           "bytecode plus the hotness-tiered x86-64 baseline JIT; walk is "
           "the reference tree-walker; also: SRP_INTERP)",
           [&](const std::string &V) {
             return parseInterpEngine(V, Opts.Interp);
           });
  OP.value("jit-threshold", "<n>",
           "with -interp=native: hotness-ledger ticks (calls plus loop "
           "back edges taken in bytecode) at which a function is "
           "JIT-compiled; a running loop then continues natively (default " +
               std::to_string(jit::DefaultJitThreshold) +
               ", 1 = first call; also: SRP_JIT_THRESHOLD)",
           [&](const std::string &V) {
             char *End = nullptr;
             unsigned long long N = std::strtoull(V.c_str(), &End, 10);
             if (End == V.c_str() || *End)
               return false;
             Opts.JitThreshold = N;
             return true;
           });
  OP.flag("analyze",
          "static analysis only: run the IR checkers and the source "
          "lints, don't run the program; exit 1 on errors",
          [&] { Analyze = true; });
  OP.flag("diag-json", "with -analyze, emit diagnostics as JSON",
          [&] { DiagJson = true; });
  OP.value("verify-each", "<off|fast|full|semantic>",
           "between-pass verification depth (default fast; full adds "
           "the memory-SSA walks, canonical-shape and promotion checks; "
           "semantic additionally translation-validates every pass "
           "against a pre-pass snapshot)",
           [&](const std::string &V) {
             Strictness S;
             if (!parseStrictness(V, S))
               return false;
             Opts.VerifyStrictness = S;
             Opts.VerifyEachStep = S != Strictness::Off;
             return true;
           });
  OP.flag("stats", "print promotion statistics", [&] { Stats = true; });
  OP.flag("counts", "print static/dynamic memop counts",
          [&] { Counts = true; });
  OP.flag("stats-json",
          "emit run report (passes, statistics, counts, exec) as JSON "
          "on stdout (implies -quiet)",
          [&] {
            StatsJson = true;
            Quiet = true;
          });
  OP.value("remarks-json", "<file>",
           "write optimization remarks (per-web promote/reject decisions "
           "with the profitability inputs) as JSON; see docs/REMARKS.md",
           [&](const std::string &V) {
             RemarksJsonPath = V;
             return !V.empty();
           });
  OP.value("remarks-filter", "<pass>",
           "keep only remarks of one pass (promotion, mem2reg, "
           "loop-promotion, superblock, cleanup, pressure)",
           [&](const std::string &V) {
             RemarksFilter = V;
             return true;
           });
  OP.value("trace-out", "<file>",
           "write a Chrome trace (chrome://tracing / Perfetto) of the "
           "run or server; see docs/OBSERVABILITY.md",
           [&](const std::string &V) {
             TraceOutPath = V;
             return !V.empty();
           });
  OP.flag("time-passes",
          "print per-pass wall times (text; with -stats-json the times "
          "are in the JSON)",
          [&] { TimePasses = true; });
  OP.flag("ir", "input is textual IR, not Mini-C",
          [&] { InputIsIR = true; });
  OP.flag("quiet", "do not echo program output", [&] { Quiet = true; });

  // Compile-server options (docs/SERVER.md).
  OP.flag("serve",
          "run as a long-running compile server on the unix socket",
          [&] { Serve = true; });
  OP.flag("connect", "submit the job to a running server instead of "
                     "compiling in-process",
          [&] { Connect = true; });
  OP.value("socket", "<path>",
           "unix socket path for -serve/-connect (default /tmp/srpc.sock)",
           [&](const std::string &V) {
             SrvOpts.SocketPath = V;
             return !V.empty();
           });
  OP.value("threads", "<n>",
           "with -serve: worker threads (0 = all cores)",
           [&](const std::string &V) {
             return parseUnsigned(V, SrvOpts.Threads);
           });
  OP.value("queue", "<n>",
           "with -serve: job-queue capacity; a client whose job finds "
           "it full is not read until a worker takes one",
           [&](const std::string &V) {
             return parseUnsigned(V, SrvOpts.QueueCapacity) &&
                    SrvOpts.QueueCapacity > 0;
           });
  OP.value("job-cache", "<n>",
           "with -serve: shared result-cache capacity in jobs",
           [&](const std::string &V) {
             unsigned N;
             if (!parseUnsigned(V, N) || N == 0)
               return false;
             SrvOpts.CacheEntries = N;
             return true;
           });
  OP.flag("ping", "with -connect: check the server is alive",
          [&] { Ping = true; });
  OP.flag("server-stats", "with -connect: print server counters as JSON",
          [&] { ServerStats = true; });
  OP.flag("server-metrics-prom",
          "with -connect: print the server's metrics registry in "
          "Prometheus text format",
          [&] { ServerMetricsProm = true; });
  OP.flag("shutdown", "with -connect: ask the server to drain and exit",
          [&] { Shutdown = true; });
  OP.positional("file.mc", [&](const std::string &V) { File = V; });
  OP.epilog("Server mode and wire protocol: docs/SERVER.md.\n"
            "Report schema (-stats-json): docs/OBSERVABILITY.md.");

  switch (OP.parse(argc, argv)) {
  case opt::ParseResult::Ok:
    break;
  case opt::ParseResult::Help:
    return 0;
  case opt::ParseResult::Error:
    return 2;
  }

  if (Serve) {
    // Trace the server's lifetime: per-job spans on the worker tracks
    // (server/worker-N) land in one timeline.
    if (!TraceOutPath.empty())
      trace::start();
    int Rc = server::serveForever(SrvOpts);
    if (!TraceOutPath.empty()) {
      trace::stop();
      std::ofstream Out(TraceOutPath);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     TraceOutPath.c_str());
        return 1;
      }
      Out << trace::toChromeJson();
    }
    return Rc;
  }

  // Admin ops need a connection but no input file.
  if (Ping || ServerStats || ServerMetricsProm || Shutdown) {
    server::Client C;
    std::string Err;
    if (!C.connect(SrvOpts.SocketPath, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (Ping) {
      if (!C.ping(Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("server on %s is alive\n", SrvOpts.SocketPath.c_str());
    }
    if (ServerStats) {
      std::string StatsJsonText;
      if (!C.requestStats(StatsJsonText, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("%s\n", StatsJsonText.c_str());
    }
    if (ServerMetricsProm) {
      std::string Prom;
      if (!C.requestMetrics(Prom, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::fputs(Prom.c_str(), stdout);
    }
    if (Shutdown) {
      if (!C.requestShutdown(Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
    }
    return 0;
  }

  if (File.empty()) {
    std::fputs(OP.helpText().c_str(), stderr);
    return 2;
  }

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  if (Analyze)
    return runAnalyzeMode(File, SS.str(), InputIsIR, DiagJson);

  CompileJob Job;
  Job.Name = File;
  Job.Source = SourceText(SS.str());
  Job.Opts = Opts;
  Job.InputIsIR = InputIsIR;
  // Observability requests travel with the job: the same fields drive
  // the in-process capture and the server-side capture, so the bytes
  // written below are identical either way.
  Job.WantRemarks = !RemarksJsonPath.empty();
  Job.RemarksFilter = RemarksFilter;
  Job.WantTrace = !TraceOutPath.empty();

  if (Connect) {
    // The server runs the pipeline; options that need the in-process
    // result object (IR dumps, text reports) stay local-only. Remarks
    // and traces travel over the wire (see runConnectMode).
    const char *LocalOnly = PrintBefore || PrintAfter ? "-print-ir-*"
                            : TimePasses               ? "-time-passes"
                            : Stats                    ? "-stats"
                            : Counts                   ? "-counts"
                                                       : nullptr;
    if (LocalOnly) {
      std::fprintf(stderr,
                   "error: %s requires a local run (drop -connect)\n",
                   LocalOnly);
      return 2;
    }
    return runConnectMode(Job, SrvOpts.SocketPath, Quiet, StatsJson,
                          RemarksJsonPath, TraceOutPath);
  }

  // With -stats-json, stdout must stay pure JSON: IR dumps and the
  // -counts/-stats text go to stderr (the numbers are in the JSON anyway).
  std::FILE *Txt = StatsJson ? stderr : stdout;

  // The pipeline prints "before" IR only via its result module, which has
  // already been transformed; for -print-ir-before run a None-mode
  // pipeline first.
  if (PrintBefore) {
    // The extra None-mode run stays out of the reported job's capture.
    CompileJob NoneJob = Job;
    NoneJob.Opts.Mode = PromotionMode::None;
    NoneJob.WantRemarks = false;
    NoneJob.WantTrace = false;
    JobResult R0 = runCompileJob(NoneJob);
    if (R0.Pipeline.M)
      std::fprintf(Txt, ";; IR before promotion\n%s\n",
                   toString(*R0.Pipeline.M).c_str());
  }

  JobResult Res = runCompileJob(Job);
  const PipelineResult &R = Res.Pipeline;

  // The job API captured per-job (same path the server takes); write
  // the documents out. Byte layout matches what a -connect run receives.
  if (!RemarksJsonPath.empty()) {
    std::ofstream Out(RemarksJsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   RemarksJsonPath.c_str());
      return 1;
    }
    Out << remarksToJson(R.Remarks) << "\n";
  }
  if (!TraceOutPath.empty()) {
    std::ofstream Out(TraceOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
      return 1;
    }
    Out << R.TraceJson;
  }

  if (!R.Ok) {
    for (const auto &E : R.Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }

  if (PrintAfter)
    std::fprintf(Txt, ";; IR after promotion\n%s\n", toString(*R.M).c_str());

  if (!Quiet)
    for (int64_t V : R.RunAfter.Output)
      std::printf("%lld\n", static_cast<long long>(V));

  if (Counts) {
    std::fprintf(Txt, "static:  loads %u -> %u, stores %u -> %u\n",
                R.StaticBefore.Loads, R.StaticAfter.Loads,
                R.StaticBefore.Stores, R.StaticAfter.Stores);
    std::fprintf(Txt, "dynamic: loads %llu -> %llu, stores %llu -> %llu\n",
                static_cast<unsigned long long>(
                    R.RunBefore.Counts.SingletonLoads),
                static_cast<unsigned long long>(
                    R.RunAfter.Counts.SingletonLoads),
                static_cast<unsigned long long>(
                    R.RunBefore.Counts.SingletonStores),
                static_cast<unsigned long long>(
                    R.RunAfter.Counts.SingletonStores));
  }
  if (Stats) {
    std::fprintf(Txt, "webs: %u considered, %u promoted, %u store-eliminated\n",
                R.Promo.WebsConsidered, R.Promo.WebsPromoted,
                R.Promo.WebsStoreEliminated);
    std::fprintf(Txt, "loads: %u replaced, %u inserted; stores: %u deleted, "
                 "%u inserted; dummies: %u; reg-phis: %u\n",
                R.Promo.LoadsReplaced, R.Promo.LoadsInserted,
                R.Promo.StoresDeleted, R.Promo.StoresInserted,
                R.Promo.DummyLoadsInserted, R.Promo.RegisterPhisCreated);
  }

  if (TimePasses && !StatsJson) {
    std::printf("=== per-pass wall times ===\n");
    double Total = 0;
    for (const PassRecord &P : R.Passes)
      Total += P.WallSeconds;
    for (const PassRecord &P : R.Passes)
      std::printf("  %-14s %9.3f ms%s\n", P.Name.c_str(),
                  P.WallSeconds * 1e3, P.Verified ? "  (verified)" : "");
    std::printf("  %-14s %9.3f ms\n", "total", Total * 1e3);
  }

  // Schema documented in docs/OBSERVABILITY.md and pinned by
  // tests/JobTest.cpp; assembled by resultToJson so the server wire
  // format carries the same bytes. Keep stdout pure JSON.
  if (StatsJson)
    std::fputs(resultToJson(R, Job).c_str(), stdout);
  return 0;
}
