//===- perfbench/src/main.cpp - Pipeline benchmark entry point ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--root <repo>] [--out-dir <dir>] [--commit <id>]
//
// Untraced (--trace 0): sets the workload up SetupReps times (setup_s is
// the median), then runs it as a closed loop for --seconds and prints
// the end-to-end metrics, their times scaled to a reference host speed
// (HostSpeed.h) with the raw times beside them. Traced (--trace 1): runs
// every distinct job once untraced, replays each through the layers with
// spans (Replay.h), checks the replay against the untraced run, and
// prints the per-layer metrics. Either way the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the same
// object plus the run's identity (seed, build type, nproc, commit) goes
// to <out-dir>/<workload>-seed<n>-trace<t>.json, and a traced run writes
// its spans to <out-dir>/<workload>-seed<n>.trace.json.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "HostSpeed.h"
#include "Replay.h"
#include "ServerLoad.h"
#include "Tracer.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace srp;
using namespace srp::perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string OutDir = ".";
  std::string Commit = "unknown";
};

/// Set-ups per untraced run; setup_s is their median.
constexpr unsigned SetupReps = 3;

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + Key;
      return false;
    }
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Key == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), &End);
    else if (Key == "--trace")
      A.Trace = Val == "1";
    else if (Key == "--root")
      A.Root = Val;
    else if (Key == "--out-dir")
      A.OutDir = Val;
    else if (Key == "--commit")
      A.Commit = Val;
    else {
      Err = "unknown argument " + Key;
      return false;
    }
    if (End && *End) {
      Err = "bad number for " + Key + ": " + Val;
      return false;
    }
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end()) {
    Err = "--workload must be one of:";
    for (const std::string &N : Names)
      Err += " " + N;
    return false;
  }
  if (!(A.Seconds > 0)) {
    Err = "--seconds must be positive";
    return false;
  }
  return true;
}

//===-- Statistics ----------------------------------------------------------===

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The workload's tail percentile (nearest rank) and how many samples lie
/// beyond it.
struct Tail {
  double Value = 0;
  size_t Beyond = 0;
};

Tail tailAt(std::vector<double> V, double Percentile) {
  if (V.empty())
    return {};
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  size_t Rank = static_cast<size_t>(std::ceil(Percentile / 100.0 * double(N)));
  Rank = std::clamp<size_t>(Rank, 1, N);
  return {V[Rank - 1], N - Rank};
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===-- Reporting -----------------------------------------------------------===

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string formatValue(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// {"<name>": {"value": v, "unit": "u"}, ...}
std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  OS << "{";
  for (size_t I = 0; I != Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name << "\": {\"value\": "
       << formatValue(Metrics[I].Value) << ", \"unit\": \"" << Metrics[I].Unit
       << "\"}";
  OS << "}";
  return OS.str();
}

std::string resultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": " << metricsJson(Metrics) << "}";
  return OS.str();
}

/// Prints the human-readable table, then the result line last, and keeps
/// a copy of the result with the run's identity (and the unscaled times,
/// \p Raw) under the output dir.
void report(const Args &A, bool Correct, uint64_t Attempted, uint64_t Failed,
            const std::vector<Metric> &Metrics,
            const std::map<std::string, std::string> &Notes,
            const std::vector<Metric> &Raw = {}) {
  for (const Metric &M : Metrics) {
    auto It = Notes.find(M.Name);
    std::printf("  %-40s %16.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), It == Notes.end() ? "" : It->second.c_str());
  }
  const std::string Line = resultLine(Correct, Attempted, Failed, Metrics);
  const std::string Path = A.OutDir + "/" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + "-trace" +
                           (A.Trace ? "1" : "0") + ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(F,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"build_type\": "
                 "\"%s\", \"nproc\": %u, \"commit\": \"%s\",\n \"result\": "
                 "%s,\n \"raw_metrics\": %s}\n",
                 A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
                 PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                 jsonEscape(A.Commit).c_str(), Line.c_str(),
                 metricsJson(Raw).c_str());
    std::fclose(F);
  }
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

//===-- Untraced closed loops -----------------------------------------------===

/// Outcome of the timed loop of any workload.
struct LoopResult {
  std::vector<double> RawLatencySeconds;
  std::vector<double> LatencySeconds; ///< scaled by their segment's factor
  std::vector<double> SpeedFactors;   ///< one per segment (SpeedScaler)
  uint64_t Attempted = 0, Failed = 0;
  double RawWallSeconds = 0; ///< work only, calibration excluded
  double WallSeconds = 0;    ///< the same, scaled segment by segment
  std::string FirstFailure;
  uint64_t DynAfter = 0, StaticAfter = 0, Colors = 0; ///< over distinct jobs

  void fail(const std::string &What) {
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = What;
  }
};

/// Checks one untraced job against its oracle and its first repetition.
std::string checkJob(const Workload &W, size_t I, const JobResult &R,
                     std::vector<std::optional<Counters>> &First) {
  if (!R.ok())
    return "pipeline failed: " + (R.Pipeline.Errors.empty()
                                      ? std::string("?")
                                      : R.Pipeline.Errors.front());
  const ExecutionResult &After = R.Pipeline.RunAfter;
  std::string Why = checkOracle(W.Programs[W.Jobs[I].Prog].Expected,
                                After.Output, After.ExitValue,
                                finalMemoryHash(After));
  if (!Why.empty())
    return Why;
  Counters C = countersOf(R.Pipeline);
  if (!First[I])
    First[I] = C;
  else if (!(*First[I] == C))
    return "deterministic counts differ between repetitions (" +
           First[I]->diff(C) + ")";
  return "";
}

/// Scales a loop's timings by the host speed measured around them. The
/// calibration kernel runs at the start and then closes each segment of
/// work; every sample of a segment is scaled by the segment's factor.
/// Segments last at least MinSegmentSeconds (about 5% of the run goes to
/// the kernel), so even a run of two long rounds gets dozens of factors.
class SpeedScaler {
  static constexpr double MinSegmentSeconds = 0.25;
  LoopResult &L;
  size_t First = 0;
  double CalBefore;
  double SegmentStart;

public:
  explicit SpeedScaler(LoopResult &L)
      : L(L), CalBefore(calibrationSeconds()),
        SegmentStart(monotonicSeconds()) {}

  /// Between jobs: closes the segment once it is long enough.
  void maybeCalibrate() {
    if (monotonicSeconds() - SegmentStart >= MinSegmentSeconds)
      calibrate();
  }

  void calibrate() {
    const double Work = monotonicSeconds() - SegmentStart;
    const double CalAfter = calibrationSeconds();
    const double Factor =
        2 * CalibrationReferenceSeconds / (CalBefore + CalAfter);
    for (; First != L.RawLatencySeconds.size(); ++First)
      L.LatencySeconds.push_back(L.RawLatencySeconds[First] * Factor);
    L.RawWallSeconds += Work;
    L.WallSeconds += Work * Factor;
    L.SpeedFactors.push_back(Factor);
    CalBefore = CalAfter;
    SegmentStart = monotonicSeconds();
  }
};

/// Runs \p Round, which appends its raw latencies to L.RawLatencySeconds,
/// in whole rounds until another one would overrun \p Seconds (at least
/// one round), so every distinct job weighs the same in every statistic
/// whatever the run length.
template <class RoundFn>
void runRounds(double Seconds, LoopResult &L, RoundFn Round) {
  SpeedScaler Scaler(L);
  const double Deadline = monotonicSeconds() + Seconds;
  double LastRound = 0;
  do {
    const double R0 = monotonicSeconds();
    Round(Scaler);
    Scaler.calibrate();
    LastRound = monotonicSeconds() - R0;
  } while (monotonicSeconds() + LastRound <= Deadline);
}

/// One job at a time from this thread, round after round through the
/// distinct jobs.
LoopResult runOneShot(const Workload &W, double Seconds) {
  LoopResult L;
  std::vector<std::optional<Counters>> First(W.Jobs.size());
  runRounds(Seconds, L, [&](SpeedScaler &Scaler) {
    for (size_t I = 0; I != W.Jobs.size(); ++I) {
      const double J0 = monotonicSeconds();
      JobResult R = runCompileJob(W.Jobs[I].Job);
      L.RawLatencySeconds.push_back(monotonicSeconds() - J0);
      ++L.Attempted;
      std::string Why = checkJob(W, I, R, First);
      if (!Why.empty())
        L.fail(W.Jobs[I].Job.Name + ": " + Why);
      Scaler.maybeCalibrate();
    }
  });
  for (const std::optional<Counters> &C : First)
    if (C) {
      L.DynAfter += C->DynAfter;
      L.StaticAfter += C->StaticAfter;
      L.Colors += C->Colors;
    }
  return L;
}

/// The server workload, likewise in whole rounds.
LoopResult runServer(ServerLoad &S, uint64_t Seed, double Seconds) {
  LoopResult L;
  ServerTraffic T;
  unsigned Round = 0;
  // A round is a few tenths of a second: its ends are the segments.
  runRounds(Seconds, L, [&](SpeedScaler &) {
    const size_t Seen = T.RttSeconds.size();
    S.runRound(Round++, Seed, T);
    L.RawLatencySeconds.insert(L.RawLatencySeconds.end(),
                               T.RttSeconds.begin() + Seen,
                               T.RttSeconds.end());
  });
  L.Attempted = T.Attempted;
  L.Failed = T.Failed;
  L.FirstFailure = T.FirstFailure;
  for (const std::string &Text : T.CountsText) {
    ReportCounts C;
    if (!parseReportCounts(Text, C)) {
      L.fail("unreadable report counts");
      continue;
    }
    L.DynAfter += C.DynAfter;
    L.StaticAfter += C.StaticAfter;
    L.Colors += C.Colors;
  }
  return L;
}

int runUntraced(const Args &A, const Workload &W, ServerLoad *S,
                double SetupSeconds, double RawSetupSeconds) {
  LoopResult L = S ? runServer(*S, A.Seed, A.Seconds)
                   : runOneShot(W, A.Seconds);
  const double RssMb = peakRssMb();
  const double Factor = median(L.SpeedFactors);
  const Tail T = tailAt(L.LatencySeconds, W.TailPercentile);
  const double Jobs = double(L.Attempted);
  std::vector<Metric> Metrics = {
      {"jobs_per_s", Jobs / L.WallSeconds, "1/s"},
      {"job_ms_p50", median(L.LatencySeconds) * 1e3, "ms"},
      {"job_ms_tail", T.Value * 1e3, "ms"},
      {"setup_s", SetupSeconds, "s"},
      {"peak_rss_mb", RssMb, "MB"},
      {"dyn_memops_after", double(L.DynAfter), "count"},
      {"static_memops_after", double(L.StaticAfter), "count"},
      {"colors_needed_sum", double(L.Colors), "count"},
  };
  const std::vector<Metric> Raw = {
      {"jobs_per_s", Jobs / L.RawWallSeconds, "1/s"},
      {"job_ms_p50", median(L.RawLatencySeconds) * 1e3, "ms"},
      {"job_ms_tail",
       tailAt(L.RawLatencySeconds, W.TailPercentile).Value * 1e3, "ms"},
      {"setup_s", RawSetupSeconds, "s"},
      {"host_speed_factor", Factor, "ratio"},
  };
  std::map<std::string, std::string> Notes;
  for (const Metric &M : Raw) {
    char Note[64];
    std::snprintf(Note, sizeof(Note), "raw %.6g", M.Value);
    Notes[M.Name] = Note;
  }
  char TailNote[96];
  std::snprintf(TailNote, sizeof(TailNote),
                " (p%g of %zu samples, %zu beyond)", W.TailPercentile,
                L.LatencySeconds.size(), T.Beyond);
  Notes["job_ms_tail"] += TailNote;
  std::printf("  host speed factor %.4f (median of %zu segments; times "
              "below are scaled by it)\n",
              Factor, L.SpeedFactors.size());
  // failed_frac is always printed, but it is not a result metric: it is 0
  // on a healthy tree, and the result line carries "failed" instead.
  std::printf("  %-40s %16.6f %-6s (%llu of %llu)\n", "failed_frac",
              double(L.Failed) / double(std::max<uint64_t>(L.Attempted, 1)),
              "ratio", static_cast<unsigned long long>(L.Failed),
              static_cast<unsigned long long>(L.Attempted));
  if (L.Failed)
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 L.FirstFailure.c_str());
  report(A, L.Failed == 0, L.Attempted, L.Failed, Metrics, Notes, Raw);
  return 0;
}

//===-- Traced replay -------------------------------------------------------===

/// The per-layer metrics, in report order, with their units.
struct LayerMetric {
  std::string Name;
  const char *Unit;
};

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> M = [] {
    std::vector<LayerMetric> V = {
        {"frontend.ms", "ms"},
        {"frontend.ir_insts", "count"},
        {"ssa.mem2reg_ms", "ms"},
        {"ssa.memssa_ms", "ms"},
        {"analysis.canonicalize_ms", "ms"},
        {"analysis.cache_hit_ratio", "ratio"},
        {"analysis.builds", "count"},
        {"analysis.verify_ms", "ms"},
        {"analysis.checks_run", "count"},
    };
    for (const CheckInfo &CI : registeredChecks())
      V.push_back({std::string("analysis.check_ms.") + CI.Id, "ms"});
    const LayerMetric Rest[] = {
        {"analysis.validate_clone_ms", "ms"},
        {"analysis.validate_prove_ms", "ms"},
        {"analysis.obligations_proven", "count"},
        {"analysis.obligations_failed", "count"},
        {"ir.print_ms", "ms"},
        {"ir.functions_printed", "count"},
        {"interp.profile_ms", "ms"},
        {"interp.measure_ms", "ms"},
        {"interp.insts", "count"},
        {"interp.decode_ms", "ms"},
        {"interp.decode_hit_ratio", "ratio"},
        {"jit.compile_ms", "ms"},
        {"jit.functions_compiled", "count"},
        {"jit.deopts", "count"},
        {"promotion.promote_ms", "ms"},
        {"promotion.cleanup_ms", "ms"},
        {"promotion.webs_considered", "count"},
        {"promotion.webs_promoted", "count"},
        {"promotion.promoted_ratio", "ratio"},
        {"regalloc.pressure_ms", "ms"},
        {"server.rtt_ms", "ms"},
        {"server.queue_wait_ms", "ms"},
        {"server.service_ms", "ms"},
        {"server.job_cache_hit_ratio", "ratio"},
        {"server.batches", "count"},
        {"server.backpressure_waits", "count"},
        {"pipeline.worker_busy_ratio", "ratio"},
        {"pipeline.other_ms", "ms"},
        {"pipeline.trace_overhead_pct", "%"},
    };
    V.insert(V.end(), std::begin(Rest), std::end(Rest));
    return V;
  }();
  return M;
}

/// The per-layer metric a span's self time feeds.
std::string layerOfSpan(const std::string &Span) {
  if (Span == "job")
    return "pipeline.other_ms";
  if (Span == "frontend")
    return "frontend.ms";
  static const std::string CheckPrefix = "analysis.check.";
  if (Span.compare(0, CheckPrefix.size(), CheckPrefix) == 0)
    return "analysis.check_ms." + Span.substr(CheckPrefix.size());
  return Span + "_ms";
}

/// A counter from the server's `metrics` op (Prometheus text), 0 if absent.
double promValue(const std::string &Text, const std::string &Name) {
  size_t Pos = 0;
  while ((Pos = Text.find(Name + " ", Pos)) != std::string::npos) {
    if (Pos == 0 || Text[Pos - 1] == '\n')
      return std::strtod(Text.c_str() + Pos + Name.size() + 1, nullptr);
    Pos += Name.size();
  }
  return 0;
}

/// Server-side numbers of one traced round, from the `stats` and
/// `metrics` ops before and after it.
bool serverLayerMetrics(ServerLoad &S, const Workload &W, uint64_t Seed,
                        std::map<std::string, double> &Out,
                        LoopResult &Checks, std::string &Err) {
  std::string Stats0, Prom0, Stats1, Prom1;
  if (!S.query(Stats0, Prom0, Err))
    return false;
  ServerTraffic T;
  const double T0 = monotonicSeconds();
  S.runRound(0, Seed, T);
  const double Wall = monotonicSeconds() - T0;
  if (!S.query(Stats1, Prom1, Err))
    return false;
  Checks.Attempted += T.Attempted;
  Checks.Failed += T.Failed;
  if (Checks.FirstFailure.empty())
    Checks.FirstFailure = T.FirstFailure;

  json::Value J0, J1;
  if (!json::parse(Stats0, J0, Err) || !json::parse(Stats1, J1, Err))
    return false;
  auto Delta = [&](const char *Section, const char *Key) {
    const json::Value &A = Section ? J0.get(Section) : J0;
    const json::Value &B = Section ? J1.get(Section) : J1;
    return double(B.get(Key).asInt() - A.get(Key).asInt());
  };
  auto PromDelta = [&](const std::string &Name) {
    return promValue(Prom1, Name) - promValue(Prom0, Name);
  };
  const double Hits = Delta("job_cache", "hits");
  const double Misses = Delta("job_cache", "misses");
  const double WaitCount = PromDelta("srp_server_queue_wait_micros_count");
  const double ServiceCount = PromDelta("srp_server_service_micros_count");
  const double ServiceUs = PromDelta("srp_server_service_micros_sum");
  double RttSum = 0;
  for (double R : T.RttSeconds)
    RttSum += R;
  Out["server.rtt_ms"] =
      RttSum / double(std::max<size_t>(T.RttSeconds.size(), 1)) * 1e3;
  Out["server.queue_wait_ms"] =
      WaitCount
          ? PromDelta("srp_server_queue_wait_micros_sum") / WaitCount / 1e3
          : 0;
  Out["server.service_ms"] = ServiceCount ? ServiceUs / ServiceCount / 1e3 : 0;
  Out["server.job_cache_hit_ratio"] =
      Hits + Misses ? Hits / (Hits + Misses) : 0;
  Out["server.batches"] = Delta(nullptr, "batches");
  Out["server.backpressure_waits"] = Delta(nullptr, "backpressure_waits");
  Out["pipeline.worker_busy_ratio"] =
      ServiceUs / 1e6 / (double(W.ServerThreads) * Wall);
  return true;
}

int runTraced(const Args &A, const Workload &W, ServerLoad *S) {
  LoopResult Checks;
  const size_t N = W.Jobs.size();

  // 1. Every distinct job once untraced, then once replayed: the untraced
  // run is the replay's parity reference, and running the two back to
  // back keeps caches equally warm for the overhead comparison.
  std::vector<std::optional<Counters>> Ref(N);
  std::vector<double> RefWalls;
  Tracer T;
  std::vector<ReplayResult> Replays;
  bool ParityOk = true;
  for (size_t I = 0; I != N; ++I) {
    JobResult R = runCompileJob(W.Jobs[I].Job);
    RefWalls.push_back(R.Pipeline.WallSeconds);
    ++Checks.Attempted;
    std::string Why = checkJob(W, I, R, Ref);
    if (!Why.empty())
      Checks.fail(W.Jobs[I].Job.Name + ": " + Why);

    T.setJob(static_cast<uint32_t>(I));
    ReplayResult RR = replayJob(W.Jobs[I].Job, T);
    ++Checks.Attempted;
    if (!RR.Ok)
      Why = "replay failed: " +
            (RR.Errors.empty() ? std::string("?") : RR.Errors.front());
    else if (!Ref[I])
      Why = "no untraced reference";
    else if (!(RR.C == *Ref[I]))
      Why = "replay parity: " + Ref[I]->diff(RR.C);
    else
      Why = checkOracle(W.Programs[W.Jobs[I].Prog].Expected, RR.Output,
                        RR.ExitValue, RR.MemoryHash);
    if (!Why.empty()) {
      ParityOk = false;
      Checks.fail(W.Jobs[I].Job.Name + ": " + Why);
    }
    Replays.push_back(std::move(RR));
  }

  // 2. The server's own view of one round of its traffic.
  std::map<std::string, double> Layer;
  for (const LayerMetric &M : layerMetrics())
    Layer[M.Name] = 0;
  if (S) {
    std::string Err;
    if (!serverLayerMetrics(*S, W, A.Seed, Layer, Checks, Err)) {
      std::fprintf(stderr, "perfbench: server query failed: %s\n",
                   Err.c_str());
      return 1;
    }
  }

  // Self times must add up to each job's wall, and none may be negative.
  const std::vector<Span> &Spans = T.spans();
  const std::vector<double> Self = T.selfSeconds();
  std::vector<double> JobSelfSum(N, 0);
  std::vector<size_t> JobSpans(N, 0);
  std::map<std::string, double> SpanSeconds;
  for (size_t I = 0; I != Spans.size(); ++I) {
    JobSelfSum[Spans[I].Job] += Self[I];
    ++JobSpans[Spans[I].Job];
    SpanSeconds[layerOfSpan(Spans[I].Name)] += Self[I];
    if (Self[I] < -1e-9) {
      ParityOk = false;
      Checks.fail(std::string("negative self time in span ") + Spans[I].Name);
    }
  }
  double WallSum = 0;
  for (size_t I = 0; I != N; ++I) {
    WallSum += Replays[I].WallSeconds;
    // Only rounding separates the two: a nanosecond, plus a little per span.
    if (std::fabs(JobSelfSum[I] - Replays[I].WallSeconds) >
        1e-9 + 1e-12 * double(JobSpans[I])) {
      ParityOk = false;
      Checks.fail(W.Jobs[I].Job.Name + ": self times do not add up to wall");
    }
  }

  // 3. Per-layer means per job.
  const double PerJob = 1.0 / double(N);
  for (const auto &[Name, Seconds] : SpanSeconds)
    Layer[Name] = Seconds * PerJob * 1e3;
  uint64_t IrInsts = 0, Checked = 0, Proven = 0, FailedObl = 0, Printed = 0,
           Insts = 0, Decoded = 0, DecodeHits = 0, Compiled = 0, Deopts = 0,
           Considered = 0, Promoted = 0, Hits = 0, Misses = 0, Builds = 0;
  for (const ReplayResult &R : Replays) {
    IrInsts += R.IrInsts;
    Checked += R.C.ChecksRun;
    Proven += R.Validation.ObligationsProven;
    FailedObl += R.Validation.ObligationsFailed;
    Printed += R.FunctionsPrinted;
    Insts += R.C.Insts;
    Decoded += R.FunctionsDecoded;
    DecodeHits += R.DecodeCacheHits;
    Compiled += R.FunctionsCompiled;
    Deopts += R.Deopts;
    Considered += R.WebsConsidered;
    Promoted += R.PaperWebsPromoted;
    Hits += R.Analysis.Hits;
    Misses += R.Analysis.Misses;
    for (uint64_t B : R.Analysis.Builds)
      Builds += B;
  }
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? double(Num) / double(Den) : 0.0;
  };
  Layer["frontend.ir_insts"] = double(IrInsts) * PerJob;
  Layer["analysis.checks_run"] = double(Checked) * PerJob;
  Layer["analysis.obligations_proven"] = double(Proven) * PerJob;
  Layer["analysis.obligations_failed"] = double(FailedObl) * PerJob;
  Layer["analysis.cache_hit_ratio"] = Ratio(Hits, Hits + Misses);
  Layer["analysis.builds"] = double(Builds) * PerJob;
  Layer["ir.functions_printed"] = double(Printed) * PerJob;
  Layer["interp.insts"] = double(Insts) * PerJob;
  Layer["interp.decode_hit_ratio"] = Ratio(DecodeHits, DecodeHits + Decoded);
  Layer["jit.functions_compiled"] = double(Compiled) * PerJob;
  Layer["jit.deopts"] = double(Deopts) * PerJob;
  Layer["promotion.webs_considered"] = double(Considered) * PerJob;
  Layer["promotion.webs_promoted"] = double(Promoted) * PerJob;
  Layer["promotion.promoted_ratio"] = Ratio(Promoted, Considered);
  // Against the untraced pipeline wall of the same jobs (runCompileJob
  // minus the report it serialises, which the replay does not build).
  std::vector<double> ReplayWalls;
  for (const ReplayResult &R : Replays)
    ReplayWalls.push_back(R.WallSeconds);
  const double RefP50 = median(RefWalls);
  Layer["pipeline.trace_overhead_pct"] =
      RefP50 > 0 ? (median(ReplayWalls) / RefP50 - 1) * 100 : 0;

  std::vector<Metric> Metrics;
  std::map<std::string, std::string> Notes;
  for (const LayerMetric &M : layerMetrics()) {
    Metrics.push_back({M.Name, Layer[M.Name], M.Unit});
    auto It = SpanSeconds.find(M.Name);
    if (It != SpanSeconds.end() && WallSum > 0) {
      char Share[48];
      std::snprintf(Share, sizeof(Share), "%5.1f%% of job wall",
                    It->second / WallSum * 100);
      Notes[M.Name] = Share;
    }
  }

  std::map<std::string, std::string> Meta = {
      {"workload", A.Workload},
      {"seed", std::to_string(A.Seed)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"commit", A.Commit}};
  const std::string TracePath = A.OutDir + "/" + A.Workload + "-seed" +
                                std::to_string(A.Seed) + ".trace.json";
  if (!T.writeChromeTrace(TracePath, Meta))
    std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
  std::printf("  replayed %zu jobs, %zu spans; parity %s\n", N, Spans.size(),
              ParityOk ? "ok" : "FAILED");
  if (Checks.Failed)
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 Checks.FirstFailure.c_str());
  report(A, Checks.Failed == 0, Checks.Attempted, Checks.Failed, Metrics,
         Notes);
  return ParityOk ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s nproc=%u commit=%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), A.Commit.c_str());

  // Set-up: inputs, the reference runs, and (server-mixed) the server and
  // its connections. Repeated; setup_s is the median, each set-up scaled
  // by the host speed measured around it.
  Workload W;
  std::unique_ptr<ServerLoad> Server;
  std::vector<double> SetupSeconds, RawSetupSeconds;
  double CalBefore = calibrationSeconds();
  const std::string Socket =
      A.OutDir + "/srv-" + std::to_string(::getpid()) + ".sock";
  for (unsigned Rep = 0; Rep != (A.Trace ? 1 : SetupReps); ++Rep) {
    Server.reset();
    const double T0 = monotonicSeconds();
    if (!setUpWorkload(A.Workload, A.Seed, A.Root, W, Err)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    if (W.Connections) {
      Server = std::make_unique<ServerLoad>(W);
      if (!Server->start(Socket, Err)) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n",
                     Err.c_str());
        return 1;
      }
    }
    const double Raw = monotonicSeconds() - T0;
    const double CalAfter = calibrationSeconds();
    RawSetupSeconds.push_back(Raw);
    SetupSeconds.push_back(Raw * 2 * CalibrationReferenceSeconds /
                           (CalBefore + CalAfter));
    CalBefore = CalAfter;
  }
  std::printf("  set-up: %zu programs, %zu distinct jobs\n",
              W.Programs.size(), W.Jobs.size());

  return A.Trace ? runTraced(A, W, Server.get())
                 : runUntraced(A, W, Server.get(), median(SetupSeconds),
                               median(RawSetupSeconds));
}
