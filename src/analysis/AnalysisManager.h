//===- analysis/AnalysisManager.h - Cached function analyses ---*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style per-function analysis cache with explicit, precise
/// invalidation. The promotion pipeline consumes dominators, interval
/// trees, memory SSA, profile data, static frequency estimates and
/// liveness; before this layer every client recomputed them ad hoc (the
/// same dominator tree was built up to five times per function per run).
///
/// Two mechanisms keep the cache sound:
///
///  1. Edit epochs — every Function carries a CFG epoch and a body epoch
///     that the IR mutators move (ir/Function.h). Each cached entry
///     records the epochs it was built at, and a lookup treats a moved
///     epoch the entry reads as a miss. Dominators, intervals and static
///     frequency read the CFG epoch; liveness, bytecode and native code
///     read both; memory SSA (kept current in place by its updaters) and
///     the profile read neither. No pass has to report what it changed.
///  2. Retire-don't-free — out-of-date analysis instances are moved to a
///     graveyard owned by the manager and released only by `clear()` (or
///     destruction), so snapshots taken before a mutation remain *alive*
///     (readable, never dangling) while `AnalysisHandle::stale()` reports
///     that they are out of date.
///
/// `invalidate()` drops entries explicitly, for callers that want a
/// rebuild although no epoch moved.
///
/// Analyses register through `AnalysisTraits<T>` specialisations declared
/// in their own headers (memory SSA in ssa/, liveness in regalloc/, ...),
/// which keeps the library layering acyclic: this header only knows the
/// same-layer analyses (dominators, intervals); higher-layer builds are
/// instantiated in the calling translation unit.
///
/// Caching can be force-disabled for differential testing with the
/// `SRP_DISABLE_ANALYSIS_CACHE=1` environment knob or programmatically via
/// `setCachingEnabled(false)`: every request then rebuilds (and counts a
/// miss), but results and lifetimes are otherwise identical.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_ANALYSISMANAGER_H
#define SRP_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace srp {

class Function;
class Module;
class ProfileInfo;

/// Identity of every cacheable analysis. `Profile` (execution-derived
/// block frequencies) is module-wide — one interpreter run covers every
/// function — and is managed through setExecution()/executionProfile();
/// the rest are per-function slots served by get<T>().
enum class AnalysisKind : unsigned {
  Dominators,      ///< DominatorTree (analysis/Dominators.h)
  Intervals,       ///< IntervalTree (analysis/Intervals.h)
  MemorySSA,       ///< MemorySSAInfo (ssa/MemorySSA.h): built form + aliases
  Profile,         ///< ProfileInfo from a measured execution (module-wide)
  StaticFrequency, ///< StaticFrequency estimate (profile/ProfileInfo.h)
  Liveness,        ///< Liveness (regalloc/Liveness.h)
  Bytecode,        ///< DecodedFunction (interp/Bytecode.h): interpreter tier
  NativeCode,      ///< jit::NativeCode (jit/NativeJIT.h): x86-64 baseline tier
};
inline constexpr unsigned NumAnalysisKinds = 8;

/// Short stable spelling used in statistics and JSON ("dominators", ...).
const char *analysisKindName(AnalysisKind K);

/// A set of analyses to keep, for explicit AnalysisManager::invalidate
/// calls. Start from all() or none() and chain preserve()/abandon().
/// Invalidation through a preserved-set is dependency-aware: abandoning
/// Dominators takes Intervals and StaticFrequency with it.
class PreservedAnalyses {
  unsigned Mask = 0; // bit set = preserved
  static constexpr unsigned AllMask = (1u << NumAnalysisKinds) - 1;

  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}

public:
  PreservedAnalyses() = default;

  static PreservedAnalyses all() { return PreservedAnalyses(AllMask); }
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= 1u << static_cast<unsigned>(K);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisKind K) {
    Mask &= ~(1u << static_cast<unsigned>(K));
    return *this;
  }
  bool isPreserved(AnalysisKind K) const {
    return Mask & (1u << static_cast<unsigned>(K));
  }
  bool areAllPreserved() const { return Mask == AllMask; }
};

class AnalysisManager;

/// Registration point for cacheable analyses. Specialisations provide:
///   static constexpr AnalysisKind Kind;
///   static std::unique_ptr<T> build(Function &F, AnalysisManager &AM);
/// build() may recursively request other analyses through \p AM.
template <class T> struct AnalysisTraits;

/// Per-run accounting, also mirrored into the global statistics registry
/// (analysis.cache-hits, analysis.dominators-built, ...). Snapshots ride
/// on PipelineResult and feed the `analysis` section of `--stats-json`.
struct AnalysisCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Invalidations = 0;   ///< Slots actually dropped (cached only).
  uint64_t CFGEditEvents = 0;   ///< Entries retired: the CFG epoch moved.
  uint64_t SSAEditEvents = 0;   ///< Entries retired: only the body epoch moved.
  std::array<uint64_t, NumAnalysisKinds> Builds{}; ///< Constructions by kind.

  uint64_t builds(AnalysisKind K) const {
    return Builds[static_cast<unsigned>(K)];
  }

  AnalysisCacheStats &operator+=(const AnalysisCacheStats &R) {
    Hits += R.Hits;
    Misses += R.Misses;
    Invalidations += R.Invalidations;
    CFGEditEvents += R.CFGEditEvents;
    SSAEditEvents += R.SSAEditEvents;
    for (unsigned I = 0; I != NumAnalysisKinds; ++I)
      Builds[I] += R.Builds[I];
    return *this;
  }
};

/// Renders \p S as a JSON object ({"cache_hits": ..., "built": {...}}),
/// two-space indented at \p Indent levels; byte-stable.
std::string analysisCacheStatsToJson(const AnalysisCacheStats &S,
                                     unsigned Indent = 0);

/// A checked reference to a cached analysis: remembers the slot generation
/// at acquisition time and checks the function's edit epochs, so consumers
/// holding results across a mutation can detect staleness instead of
/// silently reading outdated structure. The
/// pointee stays alive (retire-don't-free) until AnalysisManager::clear(),
/// but get() refuses to hand it out once stale.
template <class T> class AnalysisHandle {
  const AnalysisManager *AM = nullptr;
  Function *F = nullptr;
  T *Ptr = nullptr;
  uint64_t Gen = 0;

  friend class AnalysisManager;
  AnalysisHandle(const AnalysisManager &AM, Function &F, T *Ptr, uint64_t Gen)
      : AM(&AM), F(&F), Ptr(Ptr), Gen(Gen) {}

public:
  AnalysisHandle() = default;

  bool valid() const { return Ptr != nullptr; }
  inline bool stale() const;

  /// The analysis, or null once it has been invalidated or rebuilt.
  T *get() const { return stale() ? nullptr : Ptr; }
  T &operator*() const {
    assert(!stale() && "dereferencing a stale analysis handle");
    return *Ptr;
  }
  T *operator->() const { return &operator*(); }
};

/// The cache itself. One instance per pipeline run (single-threaded, like
/// the pass manager). Entries are keyed by function, so edits to another
/// module's functions never touch them.
class AnalysisManager {
public:
  /// \p M is the module the run serves; it only documents intent, since
  /// entries are keyed by function.
  explicit AnalysisManager(Module *M = nullptr);
  ~AnalysisManager();

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// Returns the cached T for \p F, building it on a miss (or always, when
  /// caching is disabled). References stay valid until clear().
  template <class T> T &get(Function &F);

  /// Like get(), but wrapped in a staleness-checked handle.
  template <class T> AnalysisHandle<T> getHandle(Function &F);

  /// True if an entry for \p K is cached and current with F's epochs.
  bool isCached(Function &F, AnalysisKind K) const;

  /// Generation counter of one slot: bumped on every build and every
  /// invalidation. Backs AnalysisHandle::stale() with isCached().
  uint64_t generation(Function &F, AnalysisKind K) const;

  //===-- Execution profile (module-wide) ---------------------------------===
  /// Records a measured execution; block frequencies become available
  /// through executionProfile(). Counts one Profile build.
  void setExecution(
      const std::unordered_map<const BasicBlock *, uint64_t> &BlockCounts);
  bool hasExecutionProfile() const;
  /// The execution-derived frequencies. setExecution must have been
  /// called. Rebuilds from the recorded counts when caching is disabled
  /// or the Profile kind was invalidated.
  const ProfileInfo &executionProfile();

  //===-- Invalidation ----------------------------------------------------===
  /// Drops every analysis cached for \p F.
  void invalidate(Function &F);
  /// Drops \p K and, transitively, the analyses derived from it
  /// (Dominators -> Intervals -> StaticFrequency).
  void invalidate(Function &F, AnalysisKind K);
  /// Drops everything \p PA does not preserve (dependency-aware).
  void invalidate(Function &F, const PreservedAnalyses &PA);
  /// Empties the cache, the graveyard, and the execution profile.
  void clear();

  //===-- Canonical-shape flag --------------------------------------------===
  /// CFG canonicalisation marks functions whose CFG satisfies §4.1
  /// (preheaders exist, no critical interval edges); the IntervalTree
  /// build assigns promotion preheaders only then, because preheader
  /// assignment asserts canonical shape. The flag survives CFG edits
  /// (edge splitting cannot un-canonicalise: it only adds
  /// single-pred/single-succ blocks); clear() resets it.
  void markCanonical(Function &F) { Canonical[&F] = true; }
  bool isCanonical(Function &F) const {
    auto It = Canonical.find(&F);
    return It != Canonical.end() && It->second;
  }

  //===-- Accounting / knobs ----------------------------------------------===
  const AnalysisCacheStats &cacheStats() const { return Stats; }
  bool cachingEnabled() const { return CachingEnabled; }
  /// Force-disables reuse: every get() rebuilds. Used by the differential
  /// cache oracle; also set at construction when the environment variable
  /// SRP_DISABLE_ANALYSIS_CACHE is 1.
  void setCachingEnabled(bool Enabled) { CachingEnabled = Enabled; }

private:
  struct Epochs {
    uint64_t CFG = 0;
    uint64_t Body = 0;
  };
  struct Slot {
    void *Ptr = nullptr;
    void (*Destroy)(void *) = nullptr;
    uint64_t Gen = 0; ///< Bumped on build and on invalidation.
    Epochs At;        ///< F's epochs when the entry was built.
  };
  struct FunctionEntry {
    std::array<Slot, NumAnalysisKinds> Slots{};
  };

  bool CachingEnabled = true;
  std::unordered_map<Function *, FunctionEntry> Cache;
  std::unordered_map<const Function *, bool> Canonical;
  /// Retired (invalidated or superseded) instances; freed by clear().
  std::vector<Slot> Graveyard;

  /// Execution profile state: the recorded counts (rebuild source) and
  /// the built ProfileInfo. Defined out-of-line to keep ProfileInfo an
  /// incomplete type here.
  std::unordered_map<const BasicBlock *, uint64_t> ExecCounts;
  std::unique_ptr<ProfileInfo> ExecProfile;
  bool HaveExecution = false;
  uint64_t ProfileGen = 0;

  AnalysisCacheStats Stats;

  Slot &slot(Function &F, AnalysisKind K) {
    return Cache[&F].Slots[static_cast<unsigned>(K)];
  }
  const Slot *findSlot(const Function &F, AnalysisKind K) const;
  static Epochs epochsOf(const Function &F);
  /// True if an epoch \p K reads moved since \p S was built; \p CFGMoved
  /// tells which one.
  static bool isStale(const Slot &S, const Function &F, AnalysisKind K,
                      bool *CFGMoved = nullptr);

  /// The cached instance of \p K for \p F, or null on a miss. Retires an
  /// out-of-date entry, and any entry when caching is disabled.
  void *lookup(Function &F, AnalysisKind K);

  /// Moves a live slot's instance to the graveyard and bumps its
  /// generation; no-op for empty slots. Returns true if it was live.
  bool retire(Slot &S);
  /// Same retire-don't-free contract for the module-wide execution
  /// profile: references handed out by executionProfile() stay valid
  /// until clear().
  void retireExecProfile();
  void invalidateOne(Function &F, AnalysisKind K);
  void recordHit(AnalysisKind K);
  void recordMiss(AnalysisKind K);
  /// Feeds the analysis.build-micros histogram (out-of-line so the
  /// header-only get<T> template needs no static metric of its own).
  static void recordBuildTime(double Seconds);

  template <class T> static void destroyAs(void *P) {
    delete static_cast<T *>(P);
  }
};

//===----------------------------------------------------------------------===
// Same-layer trait specialisations.
//===----------------------------------------------------------------------===

template <> struct AnalysisTraits<DominatorTree> {
  static constexpr AnalysisKind Kind = AnalysisKind::Dominators;
  static std::unique_ptr<DominatorTree> build(Function &F, AnalysisManager &) {
    return std::make_unique<DominatorTree>(F);
  }
};

template <> struct AnalysisTraits<IntervalTree> {
  static constexpr AnalysisKind Kind = AnalysisKind::Intervals;
  static std::unique_ptr<IntervalTree> build(Function &F,
                                             AnalysisManager &AM) {
    auto IT = std::make_unique<IntervalTree>(F, AM.get<DominatorTree>(F));
    // Promotion preheaders are only well-defined on canonical CFGs; the
    // canonicalisation pass sets the flag, after which every rebuild
    // (e.g. following superblock tail splitting) re-assigns them.
    if (AM.isCanonical(F))
      IT->assignPreheaders(AM.get<DominatorTree>(F));
    return IT;
  }
};

//===----------------------------------------------------------------------===
// Template implementations.
//===----------------------------------------------------------------------===

template <class T> T &AnalysisManager::get(Function &F) {
  using Traits = AnalysisTraits<T>;
  if (void *Cached = lookup(F, Traits::Kind))
    return *static_cast<T *>(Cached);
  recordMiss(Traits::Kind);
  const Epochs At = epochsOf(F);
  std::unique_ptr<T> Built;
  {
    TraceSpan Span;
    if (trace::enabled())
      Span.begin("analysis",
                 std::string("build:") + analysisKindName(Traits::Kind));
    const double T0 = monotonicSeconds();
    Built = Traits::build(F, *this); // may recurse into get()
    recordBuildTime(monotonicSeconds() - T0);
  }
  Slot &S = slot(F, Traits::Kind); // re-fetch: build() may have touched the map
  S.Ptr = Built.release();
  S.Destroy = &destroyAs<T>;
  S.At = At;
  ++S.Gen;
  return *static_cast<T *>(S.Ptr);
}

template <class T>
AnalysisHandle<T> AnalysisManager::getHandle(Function &F) {
  T &Result = get<T>(F);
  return AnalysisHandle<T>(*this, F, &Result,
                           generation(F, AnalysisTraits<T>::Kind));
}

template <class T> bool AnalysisHandle<T>::stale() const {
  constexpr AnalysisKind K = AnalysisTraits<T>::Kind;
  return !Ptr || AM->generation(*F, K) != Gen || !AM->isCached(*F, K);
}

} // namespace srp

#endif // SRP_ANALYSIS_ANALYSISMANAGER_H
