//===- pipeline/Job.h - First-class compile jobs ---------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job API every pipeline entry point consumes: a CompileJob names a
/// unit of work (source + PipelineOptions), a JobResult carries the run's
/// PipelineResult. Three consumers share it:
///
///   - the srpc one-shot CLI path (runCompileJob),
///   - the parallel workload driver (runPipelineParallel),
///   - the compile server's workers (runCompileJob, src/server/Server.h),
///
/// replacing the old ad-hoc `(Source, PipelineOptions)` plumbing and the
/// deprecated free runPipeline wrappers (deleted in this change).
///
/// resultToJson builds the `srpc --stats-json` document from a
/// PipelineResult, only where someone reads it: srpc under --stats-json,
/// and JobCache::makeEntry for the server's responses. The server's wire
/// format embeds the same bytes, so the CLI report and the remote report
/// are byte-identical by construction (the schema is pinned by
/// tests/JobTest.cpp and documented in docs/OBSERVABILITY.md).
///
/// JobCache is the process-wide cross-job result cache the server
/// shares between clients: identical (source, options) submissions are
/// answered from memory. Within one job, the per-run AnalysisManager
/// still amortises dominators/intervals/memory-SSA/liveness/bytecode
/// across passes; the cache model is described in docs/SERVER.md.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PIPELINE_JOB_H
#define SRP_PIPELINE_JOB_H

#include "pipeline/Pipeline.h"
#include "pipeline/PipelineConfig.h"
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace srp {

/// One unit of compile/run work. Source is shared immutable storage:
/// building a workload x mode matrix copies pointers, not program text.
struct CompileJob {
  std::string Name;   ///< report label ("compress.mc/paper", file name)
  SourceText Source;  ///< Mini-C source (or textual IR, see InputIsIR)
  PipelineOptions Opts;
  bool InputIsIR = false; ///< parse Source as textual IR, not Mini-C

  /// Observability requests. These travel with the job (a `--connect`
  /// client sets them in the wire request) and are folded into
  /// jobFingerprint — but not into pipelineOptionsKey, which stays
  /// purely semantic — so a cached result always carries the capture the
  /// submission asked for and can replay it byte-identically.
  bool WantRemarks = false;     ///< capture remarks into the result
  std::string RemarksFilter;    ///< pass filter ("" = every pass)
  bool WantTrace = false;       ///< capture a per-job Chrome trace
};

/// What one job produced.
struct JobResult {
  PipelineResult Pipeline;

  bool ok() const { return Pipeline.Ok; }
};

/// Runs one job through the pipeline (Mini-C or textual IR input). The
/// one-shot srpc path and the server workers both funnel through here.
JobResult runCompileJob(const CompileJob &Job);

/// Renders \p R as the `srpc --stats-json` JSON document (multi-line,
/// two-space indented, byte-stable for equal inputs). \p Job supplies
/// the identity fields (file/name, mode, entry) and the engine/verify
/// spellings. The "statistics" section snapshots the process-global
/// registry at call time.
std::string resultToJson(const PipelineResult &R, const CompileJob &Job);

/// Order-independent 64-bit digest of an execution's final memory state
/// (object id -> cells). Lets the server wire format carry a
/// behavioural-parity witness without shipping whole memory images.
uint64_t finalMemoryHash(const ExecutionResult &R);

/// Canonical single-line spelling of every semantics-relevant pipeline
/// option ("mode=paper entry=main ..."), the options half of a job
/// fingerprint. Two jobs with equal keys and equal source bytes are
/// interchangeable.
std::string pipelineOptionsKey(const PipelineOptions &Opts);

/// FNV-1a digest of (source bytes, options key, input kind). Used as
/// the JobCache index.
uint64_t jobFingerprint(const CompileJob &Job);

/// Running totals of a JobCache.
struct JobCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? double(Hits) / double(Total) : 0.0;
  }
};

/// Process-wide, thread-safe, bounded LRU cache of finished job
/// results, keyed by jobFingerprint + the exact (options key, source
/// length) pair so a hash collision can never alias two jobs. The
/// compile server consults it before scheduling (docs/SERVER.md);
/// entries are immutable and shared, so a hit costs one map lookup and
/// a shared_ptr copy.
class JobCache {
public:
  /// The cacheable slice of a JobResult: the serialised report plus the
  /// behavioural fields responses carry (output, exit, parity hash).
  struct Entry {
    bool Ok = false;
    int64_t ExitValue = 0;
    std::vector<int64_t> Output;
    uint64_t FinalMemoryHash = 0;
    std::vector<std::string> Errors;
    std::string ReportJson;
    /// Captured observability, replayed byte-identically on a hit.
    /// RemarksJson is the remarksToJson document ("" when the job did not
    /// request remarks — WantRemarks is in the cache key, so every entry
    /// for a requesting job has it, even if empty of remarks); TraceJson
    /// is the per-job Chrome trace document, "" when not requested.
    std::string RemarksJson;
    std::string TraceJson;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit JobCache(size_t Capacity = 128) : Capacity(Capacity ? Capacity : 1) {}

  /// Returns the cached entry for \p Job, or null. A hit refreshes the
  /// entry's LRU position.
  EntryPtr lookup(const CompileJob &Job);

  /// Inserts (or refreshes) the result of \p Job, evicting the least
  /// recently used entry when full.
  void insert(const CompileJob &Job, EntryPtr E);

  /// Builds the cacheable slice of a finished job, rendering its report.
  static EntryPtr makeEntry(const CompileJob &Job, const PipelineResult &R);

  JobCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

private:
  std::string keyOf(const CompileJob &Job) const;

  const size_t Capacity;
  mutable std::mutex Mu;
  std::list<std::string> LRU; // front = most recent
  struct Slot {
    EntryPtr E;
    std::list<std::string>::iterator Pos;
  };
  std::unordered_map<std::string, Slot> Map;
  JobCacheStats Stats;
};

/// Runs every job through the pipeline on a pool of \p Threads worker
/// threads (0 = hardware concurrency, clamped to the job count;
/// 1 = sequential in the calling thread). Results are returned in job
/// order and are identical to running the jobs sequentially: jobs share
/// no mutable state except the statistics registry, whose counters are
/// atomic and accumulate order-independently. Pooled workers trace onto
/// "pipeline/worker-N" tracks, apart from the compile server's
/// "server/worker-N".
std::vector<PipelineResult>
runPipelineParallel(const std::vector<CompileJob> &Jobs, unsigned Threads = 0);

} // namespace srp

#endif // SRP_PIPELINE_JOB_H
