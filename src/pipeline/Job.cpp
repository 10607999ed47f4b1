//===- pipeline/Job.cpp - First-class compile jobs ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Job.h"
#include "analysis/AnalysisManager.h"
#include "ir/IRParser.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/Trace.h"
#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <thread>

using namespace srp;

namespace {
SRP_STATISTIC(NumParallelJobs, "pipeline", "parallel-jobs",
              "Jobs executed through runPipelineParallel");
SRP_HISTOGRAM(JobMicros, "pipeline", "job-micros",
              "End-to-end wall time of one compile job (us)");

/// The single execution point every consumer funnels through (one-shot
/// CLI and server workers through runCompileJob, the parallel driver
/// directly): runs the pipeline with the job's observability capture
/// armed on the calling thread, so remarks and trace events from
/// concurrent jobs never interleave, and the bytes a `--connect` client
/// receives come from the same code path as a local run's.
PipelineResult executeJob(const CompileJob &Job) {
  std::optional<RemarkEngine> RE;
  std::optional<ScopedThreadRemarkSink> SinkGuard;
  std::optional<trace::LocalCapture> Capture;
  if (Job.WantRemarks) {
    RE.emplace();
    RE->setPassFilter(Job.RemarksFilter);
    SinkGuard.emplace(*RE);
  }
  if (Job.WantTrace)
    Capture.emplace();

  PipelineResult R;
  PipelineBuilder B;
  B.options(Job.Opts);
  if (Job.InputIsIR) {
    auto M = parseIR(Job.Source.str(), R.Errors);
    if (M)
      R = B.run(std::move(M));
  } else {
    R = B.run(Job.Source);
  }

  if (Job.WantRemarks) {
    R.Remarks = RE->remarks();
    R.RemarksCaptured = true;
  }
  if (Job.WantTrace)
    R.TraceJson = Capture->toChromeJson();
  JobMicros.observeSeconds(R.WallSeconds);
  return R;
}
} // namespace

JobResult srp::runCompileJob(const CompileJob &Job) {
  return {executeJob(Job)};
}

uint64_t srp::finalMemoryHash(const ExecutionResult &R) {
  // Order-independent: hash each (object, cells) record separately and
  // combine commutatively, because FinalMemory is an unordered_map.
  auto fnv = [](uint64_t H, uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (B * 8)) & 0xFF;
      H *= 1099511628211ull;
    }
    return H;
  };
  uint64_t Acc = 0;
  for (const auto &[Obj, Cells] : R.FinalMemory) {
    uint64_t H = fnv(14695981039346656037ull, Obj);
    H = fnv(H, Cells.size());
    for (int64_t C : Cells)
      H = fnv(H, static_cast<uint64_t>(C));
    Acc += H * 0x9E3779B97F4A7C15ull; // commutative combine
  }
  return Acc;
}

std::string srp::pipelineOptionsKey(const PipelineOptions &Opts) {
  std::ostringstream OS;
  OS << "mode=" << promotionModeName(Opts.Mode)
     << ";entry=" << Opts.EntryFunction
     << ";verify=" << (Opts.VerifyEachStep
                           ? strictnessName(Opts.VerifyStrictness)
                           : strictnessName(Strictness::Off))
     << ";pressure=" << (Opts.MeasurePressure ? 1 : 0)
     << ";nocache=" << (Opts.DisableAnalysisCache ? 1 : 0)
     << ";interp=" << interpEngineName(Opts.Interp)
     << ";jit=" << Opts.JitThreshold
     << ";boundary=" << (Opts.Promo.CountBoundaryOps ? 1 : 0)
     << ";web=" << (Opts.Promo.WebGranularity ? 1 : 0)
     << ";store-elim=" << (Opts.Promo.AllowStoreElimination ? 1 : 0)
     << ";threshold=" << Opts.Promo.ProfitThreshold
     << ";direct-stores=" << (Opts.Promo.DirectAliasedStores ? 1 : 0);
  return OS.str();
}

namespace {
/// Canonical spelling of a job's observability requests. Folded into the
/// fingerprint and the cache key — a cached entry must carry exactly the
/// capture (remarks on/off, filter, trace on/off) its submission asked
/// for, or a hit could replay the wrong bytes — but kept out of
/// pipelineOptionsKey, which stays purely semantic.
std::string observabilityKey(const CompileJob &Job) {
  return std::string("remarks=") + (Job.WantRemarks ? "1" : "0") +
         ";filter=" + Job.RemarksFilter +
         ";trace=" + (Job.WantTrace ? "1" : "0");
}
} // namespace

uint64_t srp::jobFingerprint(const CompileJob &Job) {
  auto fnv = [](uint64_t H, const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    return H;
  };
  uint64_t H = 14695981039346656037ull;
  H = fnv(H, Job.Source.str());
  H = fnv(H, pipelineOptionsKey(Job.Opts));
  H = fnv(H, Job.InputIsIR ? "ir" : "mc");
  H = fnv(H, observabilityKey(Job));
  return H;
}

std::string srp::resultToJson(const PipelineResult &R,
                              const CompileJob &Job) {
  const PipelineOptions &Opts = Job.Opts;
  std::ostringstream OS;
  OS << "{\n"
     << "  \"file\": \"" << json::escape(Job.Name) << "\",\n"
     << "  \"mode\": \"" << promotionModeName(Opts.Mode) << "\",\n"
     << "  \"entry\": \"" << json::escape(Opts.EntryFunction) << "\",\n"
     << "  \"ok\": " << (R.Ok ? "true" : "false") << ",\n"
     << "  \"errors\": [";
  for (size_t I = 0; I != R.Errors.size(); ++I)
    OS << (I ? ", " : "") << "\"" << json::escape(R.Errors[I]) << "\"";
  OS << "],\n"
     << "  \"exit_value\": " << R.RunAfter.ExitValue << ",\n"
     << "  \"passes\": " << passRecordsToJson(R.Passes, 1) << ",\n"
     << "  \"statistics\": " << stats::toJson(stats::snapshot(), 1)
     << ",\n"
     << "  \"telemetry\": " << stats::metricsToJson(stats::metrics(), 1)
     << ",\n"
     << "  \"analysis\": " << analysisCacheStatsToJson(R.Analysis, 1)
     << ",\n"
     << "  \"interp\": {\n"
     << "    \"engine\": \"" << interpEngineName(Opts.Interp) << "\",\n"
     << "    \"functions_decoded\": "
     << (R.RunBefore.Interp.FunctionsDecoded +
         R.RunAfter.Interp.FunctionsDecoded)
     << ",\n"
     << "    \"decode_cache_hits\": "
     << (R.RunBefore.Interp.DecodeCacheHits +
         R.RunAfter.Interp.DecodeCacheHits)
     << ",\n"
     << "    \"functions_compiled\": "
     << (R.RunBefore.Interp.FunctionsCompiled +
         R.RunAfter.Interp.FunctionsCompiled)
     << ",\n"
     << "    \"native_calls\": "
     << (R.RunBefore.Interp.NativeCalls + R.RunAfter.Interp.NativeCalls)
     << ",\n"
     << "    \"deopts\": "
     << (R.RunBefore.Interp.Deopts + R.RunAfter.Interp.Deopts) << ",\n"
     << "    \"decode_seconds\": "
     << (R.RunBefore.Interp.DecodeSeconds + R.RunAfter.Interp.DecodeSeconds)
     << ",\n"
     << "    \"compile_seconds\": "
     << (R.RunBefore.Interp.CompileSeconds + R.RunAfter.Interp.CompileSeconds)
     << ",\n"
     << "    \"profile_exec_seconds\": " << R.RunBefore.Interp.ExecSeconds
     << ",\n"
     << "    \"measure_exec_seconds\": " << R.RunAfter.Interp.ExecSeconds
     << "\n"
     << "  },\n"
     << "  \"verification\": {\n"
     << "    \"strictness\": \""
     << strictnessName(Opts.VerifyEachStep ? Opts.VerifyStrictness
                                           : Strictness::Off)
     << "\",\n"
     << "    \"passes_verified\": " << R.Verify.PassesVerified << ",\n"
     << "    \"checks_run\": " << R.Verify.ChecksRun << ",\n"
     << "    \"diagnostics\": " << R.Verify.Diagnostics << ",\n"
     << "    \"wall_seconds\": " << R.Verify.WallSeconds << "\n"
     << "  },\n"
     << "  \"validation\": {\n"
     << "    \"passes_validated\": " << R.Verify.Validation.PassesValidated
     << ",\n"
     << "    \"functions_validated\": "
     << R.Verify.Validation.FunctionsValidated << ",\n"
     << "    \"functions_skipped_identical\": "
     << R.Verify.Validation.FunctionsSkippedIdentical << ",\n"
     << "    \"effect_pairs_matched\": "
     << R.Verify.Validation.EffectPairsMatched << ",\n"
     << "    \"obligations_proven\": "
     << R.Verify.Validation.ObligationsProven << ",\n"
     << "    \"obligations_failed\": "
     << R.Verify.Validation.ObligationsFailed << ",\n"
     << "    \"webs_checked\": " << R.Verify.Validation.WebsChecked << ",\n"
     << "    \"webs_proven\": " << R.Verify.Validation.WebsProven << ",\n"
     << "    \"wall_seconds\": " << R.Verify.Validation.WallSeconds << "\n"
     << "  },\n"
     << "  \"counts\": {\n"
     << "    \"static_loads_before\": " << R.StaticBefore.Loads << ",\n"
     << "    \"static_loads_after\": " << R.StaticAfter.Loads << ",\n"
     << "    \"static_stores_before\": " << R.StaticBefore.Stores << ",\n"
     << "    \"static_stores_after\": " << R.StaticAfter.Stores << ",\n"
     << "    \"dynamic_loads_before\": "
     << R.RunBefore.Counts.SingletonLoads << ",\n"
     << "    \"dynamic_loads_after\": " << R.RunAfter.Counts.SingletonLoads
     << ",\n"
     << "    \"dynamic_stores_before\": "
     << R.RunBefore.Counts.SingletonStores << ",\n"
     << "    \"dynamic_stores_after\": "
     << R.RunAfter.Counts.SingletonStores << "\n"
     << "  },\n"
     << "  \"exec\": {\n"
     << "    \"output\": [";
  for (size_t I = 0; I != R.RunAfter.Output.size(); ++I)
    OS << (I ? ", " : "") << R.RunAfter.Output[I];
  {
    char HashBuf[32];
    std::snprintf(HashBuf, sizeof(HashBuf), "%016llx",
                  static_cast<unsigned long long>(finalMemoryHash(R.RunAfter)));
    OS << "],\n"
       << "    \"final_memory_hash\": \"" << HashBuf << "\",\n"
       << "    \"wall_seconds\": " << R.WallSeconds << "\n"
       << "  },\n";
  }
  OS << "  \"pressure\": {\n"
     << "    \"values\": " << R.Pressure.NumValues << ",\n"
     << "    \"edges\": " << R.Pressure.Edges << ",\n"
     << "    \"colors_needed\": " << R.Pressure.ColorsNeeded << ",\n"
     << "    \"max_live\": " << R.Pressure.MaxLive << "\n"
     << "  },\n"
     << "  \"remarks\": ";
  if (R.RemarksCaptured)
    OS << remarksToJson(R.Remarks, 1);
  else
    OS << "null";
  OS << ",\n"
     << "  \"trace\": ";
  if (!R.TraceJson.empty()) {
    // The capture is a complete JSON document ending in '\n'; embed it
    // verbatim minus the terminator (its own inner layout is already
    // byte-stable, which is what matters for report diffs).
    std::string T = R.TraceJson;
    while (!T.empty() && T.back() == '\n')
      T.pop_back();
    OS << T;
  } else {
    OS << "null";
  }
  OS << "\n"
     << "}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===
// JobCache
//===----------------------------------------------------------------------===

std::string JobCache::keyOf(const CompileJob &Job) const {
  // Fingerprint plus the exact options/observability keys and source
  // length: a 64-bit hash collision alone can never alias two jobs.
  return std::to_string(jobFingerprint(Job)) + "#" +
         std::to_string(Job.Source.str().size()) + "#" +
         (Job.InputIsIR ? "ir#" : "mc#") + pipelineOptionsKey(Job.Opts) +
         "#" + observabilityKey(Job);
}

JobCache::EntryPtr JobCache::lookup(const CompileJob &Job) {
  std::string Key = keyOf(Job);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Stats.Misses;
    return nullptr;
  }
  ++Stats.Hits;
  LRU.splice(LRU.begin(), LRU, It->second.Pos);
  return It->second.E;
}

void JobCache::insert(const CompileJob &Job, EntryPtr E) {
  if (!E)
    return;
  std::string Key = keyOf(Job);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    It->second.E = std::move(E);
    LRU.splice(LRU.begin(), LRU, It->second.Pos);
    return;
  }
  while (Map.size() >= Capacity) {
    Map.erase(LRU.back());
    LRU.pop_back();
    ++Stats.Evictions;
  }
  LRU.push_front(Key);
  Map.emplace(Key, Slot{std::move(E), LRU.begin()});
  ++Stats.Insertions;
}

JobCache::EntryPtr JobCache::makeEntry(const CompileJob &Job,
                                       const PipelineResult &R) {
  auto E = std::make_shared<Entry>();
  E->Ok = R.Ok;
  E->ExitValue = R.RunAfter.ExitValue;
  E->Output = R.RunAfter.Output;
  E->FinalMemoryHash = finalMemoryHash(R.RunAfter);
  E->Errors = R.Errors;
  E->ReportJson = resultToJson(R, Job);
  if (R.RemarksCaptured)
    E->RemarksJson = remarksToJson(R.Remarks);
  E->TraceJson = R.TraceJson;
  return E;
}

JobCacheStats JobCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

size_t JobCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

//===----------------------------------------------------------------------===
// Parallel driver
//===----------------------------------------------------------------------===

std::vector<PipelineResult>
srp::runPipelineParallel(const std::vector<CompileJob> &Jobs,
                         unsigned Threads) {
  std::vector<PipelineResult> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = std::min<unsigned>(Threads, static_cast<unsigned>(Jobs.size()));

  std::atomic<size_t> Next{0};
  std::atomic<int64_t> Completed{0};
  // Pooled workers name their trace track and pin it with a start marker
  // (a worker that loses every queue race would otherwise leave no track).
  // The single-threaded path stays on the caller's track.
  auto Worker = [&](unsigned WorkerId, bool Pooled) {
    if (Pooled && trace::enabled()) {
      trace::setThreadName("pipeline/worker-" + std::to_string(WorkerId));
      trace::instant("job", "worker-start");
    }
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Jobs.size();
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      {
        TraceSpan Span;
        if (trace::enabled())
          Span.begin("job", Jobs[I].Name);
        Results[I] = executeJob(Jobs[I]);
      }
      ++NumParallelJobs;
      const int64_t Done = Completed.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled())
        trace::counter("job", "jobs-completed", "jobs", Done + 1);
    }
  };

  if (Threads <= 1) {
    Worker(0, /*Pooled=*/false);
    return Results;
  }

  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back(Worker, T, /*Pooled=*/true);
  for (std::thread &T : Pool)
    T.join();
  return Results;
}
