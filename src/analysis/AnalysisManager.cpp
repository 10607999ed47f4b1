//===- analysis/AnalysisManager.cpp - Cached function analyses ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "ir/Function.h"
#include "profile/ProfileInfo.h" // header-only use; no srp_profile link dep
#include "support/Statistics.h"
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace srp;

SRP_STATISTIC(NumCacheHits, "analysis", "cache-hits",
              "Analysis requests served from the cache");
SRP_STATISTIC(NumCacheMisses, "analysis", "cache-misses",
              "Analysis requests that (re)built the analysis");
SRP_STATISTIC(NumInvalidations, "analysis", "invalidations",
              "Cached analyses dropped by invalidation");
SRP_STATISTIC(NumCFGEditEvents, "analysis", "cfg-edit-events",
              "Cached analyses retired because the CFG epoch moved");
SRP_STATISTIC(NumSSAEditEvents, "analysis", "ssa-edit-events",
              "Cached analyses retired because the body epoch moved");
SRP_STATISTIC(NumDominatorsBuilt, "analysis", "dominators-built",
              "Dominator trees constructed");
SRP_STATISTIC(NumIntervalsBuilt, "analysis", "intervals-built",
              "Interval trees constructed");
SRP_STATISTIC(NumMemSSABuilt, "analysis", "memssa-built",
              "Memory SSA forms constructed");
SRP_STATISTIC(NumProfilesBuilt, "analysis", "profiles-built",
              "Execution profiles constructed");
SRP_STATISTIC(NumStaticFreqBuilt, "analysis", "static-freq-built",
              "Static frequency estimates constructed");
SRP_STATISTIC(NumLivenessBuilt, "analysis", "liveness-built",
              "Liveness analyses constructed");
SRP_STATISTIC(NumBytecodeBuilt, "analysis", "bytecode-built",
              "Interpreter bytecode decodes constructed");
SRP_STATISTIC(NumNativeCodeBuilt, "analysis", "native-code-built",
              "Native-code cache entries constructed");

const char *srp::analysisKindName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Dominators:
    return "dominators";
  case AnalysisKind::Intervals:
    return "intervals";
  case AnalysisKind::MemorySSA:
    return "memssa";
  case AnalysisKind::Profile:
    return "profile";
  case AnalysisKind::StaticFrequency:
    return "static-freq";
  case AnalysisKind::Liveness:
    return "liveness";
  case AnalysisKind::Bytecode:
    return "bytecode";
  case AnalysisKind::NativeCode:
    return "native-code";
  }
  return "unknown";
}

namespace {

/// Whether cached entries of \p K are built from F's CFG / body epoch.
bool readsCFG(AnalysisKind K) {
  return K != AnalysisKind::MemorySSA && K != AnalysisKind::Profile;
}
bool readsBody(AnalysisKind K) {
  return K == AnalysisKind::Liveness || K == AnalysisKind::Bytecode ||
         K == AnalysisKind::NativeCode;
}

Statistic *buildCounterFor(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Dominators:
    return &NumDominatorsBuilt;
  case AnalysisKind::Intervals:
    return &NumIntervalsBuilt;
  case AnalysisKind::MemorySSA:
    return &NumMemSSABuilt;
  case AnalysisKind::Profile:
    return &NumProfilesBuilt;
  case AnalysisKind::StaticFrequency:
    return &NumStaticFreqBuilt;
  case AnalysisKind::Liveness:
    return &NumLivenessBuilt;
  case AnalysisKind::Bytecode:
    return &NumBytecodeBuilt;
  case AnalysisKind::NativeCode:
    return &NumNativeCodeBuilt;
  }
  return nullptr;
}

bool cacheDisabledByEnv() {
  const char *V = std::getenv("SRP_DISABLE_ANALYSIS_CACHE");
  return V && std::strcmp(V, "0") != 0 && std::strcmp(V, "") != 0;
}

} // namespace

AnalysisManager::AnalysisManager(Module *)
    : CachingEnabled(!cacheDisabledByEnv()) {}

AnalysisManager::~AnalysisManager() { clear(); }

const AnalysisManager::Slot *
AnalysisManager::findSlot(const Function &F, AnalysisKind K) const {
  auto It = Cache.find(const_cast<Function *>(&F));
  if (It == Cache.end())
    return nullptr;
  return &It->second.Slots[static_cast<unsigned>(K)];
}

AnalysisManager::Epochs AnalysisManager::epochsOf(const Function &F) {
  return {F.cfgEpoch(), F.bodyEpoch()};
}

bool AnalysisManager::isStale(const Slot &S, const Function &F,
                              AnalysisKind K, bool *CFGMoved) {
  const bool CFG = readsCFG(K) && S.At.CFG != F.cfgEpoch();
  if (CFGMoved)
    *CFGMoved = CFG;
  return CFG || (readsBody(K) && S.At.Body != F.bodyEpoch());
}

bool AnalysisManager::isCached(Function &F, AnalysisKind K) const {
  const Slot *S = findSlot(F, K);
  return S && S->Ptr && !isStale(*S, F, K);
}

void *AnalysisManager::lookup(Function &F, AnalysisKind K) {
  Slot &S = slot(F, K);
  if (!S.Ptr)
    return nullptr;
  bool CFGMoved;
  if (isStale(S, F, K, &CFGMoved)) {
    retire(S);
    ++Stats.Invalidations;
    ++NumInvalidations;
    if (CFGMoved) {
      ++Stats.CFGEditEvents;
      ++NumCFGEditEvents;
    } else {
      ++Stats.SSAEditEvents;
      ++NumSSAEditEvents;
    }
    return nullptr;
  }
  if (!CachingEnabled) {
    retire(S); // forced-miss mode: supersede, keep the old instance alive
    return nullptr;
  }
  recordHit(K);
  return S.Ptr;
}

uint64_t AnalysisManager::generation(Function &F, AnalysisKind K) const {
  const Slot *S = findSlot(F, K);
  return S ? S->Gen : 0;
}

bool AnalysisManager::retire(Slot &S) {
  if (!S.Ptr)
    return false;
  Graveyard.push_back(S); // keeps the instance alive until clear()
  S.Ptr = nullptr;
  S.Destroy = nullptr;
  ++S.Gen;
  return true;
}

void AnalysisManager::retireExecProfile() {
  if (!ExecProfile)
    return;
  Slot S;
  S.Ptr = ExecProfile.release();
  S.Destroy = destroyAs<ProfileInfo>;
  Graveyard.push_back(S);
}

void AnalysisManager::recordHit(AnalysisKind K) {
  ++Stats.Hits;
  ++NumCacheHits;
  if (trace::enabled())
    trace::instant("analysis", std::string("hit:") + analysisKindName(K));
}

namespace {
SRP_HISTOGRAM(BuildMicros, "analysis", "build-micros",
              "Wall time of one analysis build (us), nested builds "
              "included in the outer observation");
} // namespace

void AnalysisManager::recordBuildTime(double Seconds) {
  BuildMicros.observeSeconds(Seconds);
}

void AnalysisManager::recordMiss(AnalysisKind K) {
  ++Stats.Misses;
  ++NumCacheMisses;
  ++Stats.Builds[static_cast<unsigned>(K)];
  if (Statistic *C = buildCounterFor(K))
    ++*C;
  if (trace::enabled())
    trace::instant("analysis", std::string("miss:") + analysisKindName(K));
}

void AnalysisManager::invalidateOne(Function &F, AnalysisKind K) {
  auto It = Cache.find(&F);
  if (It == Cache.end())
    return;
  if (retire(It->second.Slots[static_cast<unsigned>(K)])) {
    ++Stats.Invalidations;
    ++NumInvalidations;
  }
}

void AnalysisManager::invalidate(Function &F) {
  invalidate(F, PreservedAnalyses::none());
}

void AnalysisManager::invalidate(Function &F, AnalysisKind K) {
  invalidate(F, PreservedAnalyses::all().abandon(K));
}

void AnalysisManager::invalidate(Function &F, const PreservedAnalyses &PA) {
  if (PA.areAllPreserved())
    return;
  // Close the preserved-set under the dependency chain: Intervals embed
  // dominator structure, and the static frequency estimate is computed
  // from the interval nesting.
  PreservedAnalyses Eff = PA;
  if (!Eff.isPreserved(AnalysisKind::Dominators))
    Eff.abandon(AnalysisKind::Intervals);
  if (!Eff.isPreserved(AnalysisKind::Intervals))
    Eff.abandon(AnalysisKind::StaticFrequency);
  // Native code is compiled from the decoded bytecode stream: a stale
  // decode implies stale machine code (same instruction indices are baked
  // into the deopt metadata).
  if (!Eff.isPreserved(AnalysisKind::Bytecode))
    Eff.abandon(AnalysisKind::NativeCode);
  for (unsigned I = 0; I != NumAnalysisKinds; ++I) {
    auto K = static_cast<AnalysisKind>(I);
    if (Eff.isPreserved(K))
      continue;
    if (K == AnalysisKind::Profile) {
      // Module-wide: the built ProfileInfo is dropped (executionProfile()
      // rebuilds from the recorded counts) but the measurement stays.
      if (ExecProfile) {
        retireExecProfile();
        ++ProfileGen;
        ++Stats.Invalidations;
        ++NumInvalidations;
      }
      continue;
    }
    invalidateOne(F, K);
  }
}

void AnalysisManager::clear() {
  for (auto &[F, Entry] : Cache)
    for (Slot &S : Entry.Slots)
      if (S.Ptr)
        S.Destroy(S.Ptr);
  Cache.clear();
  for (Slot &S : Graveyard)
    S.Destroy(S.Ptr);
  Graveyard.clear();
  Canonical.clear();
  ExecCounts.clear();
  ExecProfile.reset();
  HaveExecution = false;
  ++ProfileGen;
}

void AnalysisManager::setExecution(
    const std::unordered_map<const BasicBlock *, uint64_t> &BlockCounts) {
  ExecCounts = BlockCounts;
  HaveExecution = true;
  retireExecProfile();
  ++ProfileGen;
}

bool AnalysisManager::hasExecutionProfile() const { return HaveExecution; }

const ProfileInfo &AnalysisManager::executionProfile() {
  assert(HaveExecution && "no execution recorded; call setExecution first");
  if (ExecProfile && CachingEnabled) {
    recordHit(AnalysisKind::Profile);
    return *ExecProfile;
  }
  recordMiss(AnalysisKind::Profile);
  auto PI = std::make_unique<ProfileInfo>();
  for (const auto &[BB, N] : ExecCounts)
    PI->setFrequency(BB, N);
  retireExecProfile(); // forced-miss mode: supersede, don't free
  ExecProfile = std::move(PI);
  ++ProfileGen;
  return *ExecProfile;
}

std::string srp::analysisCacheStatsToJson(const AnalysisCacheStats &S,
                                          unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  std::string In(Indent * 2 + 2, ' ');
  std::ostringstream OS;
  OS << "{\n"
     << In << "\"cache_hits\": " << S.Hits << ",\n"
     << In << "\"cache_misses\": " << S.Misses << ",\n"
     << In << "\"invalidations\": " << S.Invalidations << ",\n"
     << In << "\"cfg_edit_events\": " << S.CFGEditEvents << ",\n"
     << In << "\"ssa_edit_events\": " << S.SSAEditEvents << ",\n"
     << In << "\"built\": {";
  for (unsigned I = 0; I != NumAnalysisKinds; ++I) {
    OS << (I ? ", " : "") << "\""
       << analysisKindName(static_cast<AnalysisKind>(I))
       << "\": " << S.Builds[I];
  }
  OS << "}\n" << Pad << "}";
  return OS.str();
}
