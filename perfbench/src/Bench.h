//===- perfbench/src/Bench.h - Pipeline benchmark shared types --*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the pipeline benchmark's parts:
///
///   Setup.cpp      builds a named workload's programs and jobs and runs
///                  every program once on the reference tree-walker
///                  (the oracle every job is checked against);
///   ServerLoad.cpp drives an in-process CompileServer over its socket;
///   HostSpeed.cpp  the calibration kernel timed runs are scaled by;
///   Tracer.cpp     the benchmark's own in-memory span buffer;
///   Replay.cpp     replays one job stage by stage through the layers'
///                  public functions, with spans around every call;
///   main.cpp       the timed closed loops and the reports.
///
/// The benchmark reaches the compiler only through its public headers and
/// adds no instrumentation to it.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_BENCH_H
#define SRP_PERFBENCH_BENCH_H

#include "pipeline/Job.h"
#include <cstdint>
#include <string>
#include <vector>

namespace srp::perfbench {

/// What the reference engine observed for one program, run right after
/// the frontend and before any pipeline pass.
struct Oracle {
  std::vector<int64_t> Output;
  int64_t ExitValue = 0;
  uint64_t MemoryHash = 0;
  uint64_t Instructions = 0; ///< executed by the reference run
};

/// One distinct program of a workload.
struct Program {
  std::string Name;
  SourceText Source;
  Oracle Expected;
};

/// One distinct job: a program under one set of pipeline options.
struct BenchJob {
  CompileJob Job;
  size_t Prog = 0; ///< index into Workload::Programs
};

/// A named workload, ready to run.
struct Workload {
  std::vector<Program> Programs;
  std::vector<BenchJob> Jobs;
  /// Compile-server shape (server-mixed only): pipeline worker threads
  /// and client connections. One-shot workloads run one job at a time.
  unsigned ServerThreads = 0;
  unsigned Connections = 0;
  /// Percentile job_ms_tail reports. Fixed per workload, so the metric
  /// means the same on every commit: the highest of 90/95/99 that still
  /// leaves more than ten samples beyond it in a default run. The corpus
  /// stays at 95, because its slowest percent is whichever programs the
  /// seed drew.
  double TailPercentile = 95;
};

/// Names accepted by setUpWorkload, in the order the reports list them.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name from the repository at \p Root (workload
/// sources under Root/workloads) and \p Seed, and runs the oracle on
/// every distinct program. Returns false with \p Err set on failure.
bool setUpWorkload(const std::string &Name, uint64_t Seed,
                   const std::string &Root, Workload &W, std::string &Err);

/// Checks one execution against its oracle; "" when they agree.
std::string checkOracle(const Oracle &O, const std::vector<int64_t> &Output,
                        int64_t ExitValue, uint64_t MemoryHash);

/// The deterministic counters of one job. Repetitions of a job must
/// reproduce them exactly, and so must the traced replay.
struct Counters {
  uint64_t StaticBefore = 0, StaticAfter = 0;
  uint64_t DynBefore = 0, DynAfter = 0;
  uint64_t Insts = 0;        ///< instructions executed, profile + measure
  uint64_t WebsPromoted = 0; ///< the mode's promotion count
  uint64_t ChecksRun = 0;
  uint64_t ObligationsProven = 0;
  uint64_t Colors = 0;

  bool operator==(const Counters &) const = default;
  /// "name: a != b" for every differing field.
  std::string diff(const Counters &O) const;
};

Counters countersOf(const PipelineResult &R);

} // namespace srp::perfbench

#endif // SRP_PERFBENCH_BENCH_H
