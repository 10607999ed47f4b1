//===- support/Statistics.cpp - Global metrics registry -------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"
#include "support/JSON.h"
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

using namespace srp;

namespace {

/// The process-wide registry. Construction order of namespace-scope
/// metric objects across TUs is unspecified, so the registry itself is
/// a function-local static (constructed on first use, destroyed after all
/// statics that registered into it are no longer bumped).
struct Registry {
  std::mutex Lock;
  std::vector<Statistic *> Stats;
  std::vector<Histogram *> Histograms;
  std::vector<Gauge *> Gauges;

  /// True when \p FullName is already taken by any metric kind.
  bool taken(const std::string &FullName) const {
    for (const Statistic *St : Stats)
      if (St->fullName() == FullName)
        return true;
    for (const Histogram *H : Histograms)
      if (H->fullName() == FullName)
        return true;
    for (const Gauge *G : Gauges)
      if (G->fullName() == FullName)
        return true;
    return false;
  }
};

Registry &registry() {
  static Registry R;
  return R;
}

/// The `component.metric` naming convention (docs/OBSERVABILITY.md §2):
/// lower-case alphanumerics, non-leading/non-trailing hyphens, no dots
/// inside either half.
bool isValidStatToken(const char *S) {
  if (!S || !*S)
    return false;
  for (const char *P = S; *P; ++P) {
    const char C = *P;
    const bool LowerAlnum = (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9');
    if (!LowerAlnum && C != '-')
      return false;
    if (C == '-' && (P == S || !P[1]))
      return false;
  }
  return true;
}

[[noreturn]] void badStatistic(const char *Component, const char *Name,
                               const char *Why) {
  std::fprintf(stderr, "srp: invalid statistic '%s.%s': %s\n",
               Component ? Component : "", Name ? Name : "", Why);
  std::abort();
}

} // namespace

namespace {

/// Shared registration preamble for all three metric kinds: validate the
/// `component.metric` shape and reject duplicate names registry-wide.
void checkAndLock(const char *Component, const char *Name,
                  const std::string &FullName, Registry &R) {
  if (!isValidStatToken(Component) || !isValidStatToken(Name))
    badStatistic(Component, Name,
                 "does not follow the component.metric convention "
                 "(lower-case [a-z0-9-], no leading/trailing hyphen)");
  if (R.taken(FullName))
    badStatistic(Component, Name, "registered twice");
}

} // namespace

Statistic::Statistic(const char *Component, const char *Name,
                     const char *Desc)
    : Component(Component), Name(Name), Desc(Desc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  checkAndLock(Component, Name, fullName(), R);
  R.Stats.push_back(this);
}

//===----------------------------------------------------------------------===
// Histogram
//===----------------------------------------------------------------------===

Histogram::Histogram(const char *Component, const char *Name,
                     const char *Desc)
    : Component(Component), Name(Name), Desc(Desc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  checkAndLock(Component, Name, fullName(), R);
  R.Histograms.push_back(this);
}

uint64_t HistogramSnapshot::upperBound(unsigned I) {
  if (I + 1 >= NumBuckets)
    return UINT64_MAX;
  return uint64_t(1) << I;
}

unsigned Histogram::bucketFor(uint64_t V) {
  if (V <= 1)
    return 0;
  // Smallest I with V <= 2^I, i.e. ceil(log2(V)).
  unsigned I = 64 - static_cast<unsigned>(__builtin_clzll(V - 1));
  return I < HistogramSnapshot::NumBuckets - 1
             ? I
             : HistogramSnapshot::NumBuckets - 1;
}

unsigned Histogram::shardIndex() {
  // Threads are striped over the shard set in arrival order; one thread
  // always lands on the same shard, so per-shard adds never contend with
  // other observe() calls from the same thread.
  static std::atomic<unsigned> NextThread{0};
  thread_local unsigned Index =
      NextThread.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return Index;
}

void Histogram::observe(uint64_t V) {
  Shard &S = Shards[shardIndex()];
  S.Count.fetch_add(1, std::memory_order_relaxed);
  S.Sum.fetch_add(V, std::memory_order_relaxed);
  S.Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::observeSeconds(double Seconds) {
  observe(Seconds > 0 ? static_cast<uint64_t>(Seconds * 1e6) : 0);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Out;
  for (const Shard &S : Shards) {
    Out.Count += S.Count.load(std::memory_order_relaxed);
    Out.Sum += S.Sum.load(std::memory_order_relaxed);
    for (unsigned I = 0; I != HistogramSnapshot::NumBuckets; ++I)
      Out.Buckets[I] += S.Buckets[I].load(std::memory_order_relaxed);
  }
  return Out;
}

void Histogram::resetForTesting() {
  for (Shard &S : Shards) {
    S.Count.store(0, std::memory_order_relaxed);
    S.Sum.store(0, std::memory_order_relaxed);
    for (auto &B : S.Buckets)
      B.store(0, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===
// Gauge
//===----------------------------------------------------------------------===

Gauge::Gauge(const char *Component, const char *Name, const char *Desc)
    : Component(Component), Name(Name), Desc(Desc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  checkAndLock(Component, Name, fullName(), R);
  R.Gauges.push_back(this);
}

StatsSnapshot srp::stats::snapshot() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  StatsSnapshot S;
  for (const Statistic *St : R.Stats)
    S[St->fullName()] = St->get();
  return S;
}

MetricsSnapshot srp::stats::metrics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  MetricsSnapshot M;
  for (const Statistic *St : R.Stats)
    M.Counters[St->fullName()] = St->get();
  for (const Gauge *Ga : R.Gauges)
    M.Gauges[Ga->fullName()] = Ga->get();
  for (const Histogram *H : R.Histograms)
    M.Histograms[H->fullName()] = H->snapshot();
  return M;
}

void srp::stats::reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (Statistic *St : R.Stats)
    St->set(0);
}

void srp::stats::resetForTesting() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (Statistic *St : R.Stats)
    St->set(0);
  for (Gauge *Ga : R.Gauges)
    Ga->set(0);
  for (Histogram *H : R.Histograms)
    H->resetForTesting();
}

size_t srp::stats::numRegistered() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  return R.Stats.size();
}

std::string srp::stats::description(const std::string &FullName) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (const Statistic *St : R.Stats)
    if (St->fullName() == FullName)
      return St->description();
  for (const Histogram *H : R.Histograms)
    if (H->fullName() == FullName)
      return H->description();
  for (const Gauge *Ga : R.Gauges)
    if (Ga->fullName() == FullName)
      return Ga->description();
  return "";
}

std::string srp::jsonEscape(const std::string &S) { return json::escape(S); }

namespace {

/// `component.metric` -> `srp_component_metric` (dots and hyphens are the
/// only characters registration admits beyond [a-z0-9]).
std::string promName(const std::string &FullName) {
  std::string Out = "srp_";
  for (char C : FullName)
    Out += (C == '.' || C == '-') ? '_' : C;
  return Out;
}

void promHeader(std::ostringstream &OS, const std::string &Mangled,
                const std::string &FullName, const std::string &Type) {
  std::string Desc = srp::stats::description(FullName);
  OS << "# HELP " << Mangled << " "
     << (Desc.empty() ? FullName : Desc) << "\n";
  OS << "# TYPE " << Mangled << " " << Type << "\n";
}

} // namespace

std::string srp::stats::metricsToPrometheusText() {
  MetricsSnapshot M = metrics();
  std::ostringstream OS;
  // std::map iteration gives ascending full-name order within each kind;
  // kinds are emitted counters, gauges, histograms. Equal snapshots thus
  // render byte-identically.
  for (const auto &[Name, Value] : M.Counters) {
    std::string Mangled = promName(Name);
    promHeader(OS, Mangled, Name, "counter");
    OS << Mangled << " " << Value << "\n";
  }
  for (const auto &[Name, Value] : M.Gauges) {
    std::string Mangled = promName(Name);
    promHeader(OS, Mangled, Name, "gauge");
    OS << Mangled << " " << Value << "\n";
  }
  for (const auto &[Name, H] : M.Histograms) {
    std::string Mangled = promName(Name);
    promHeader(OS, Mangled, Name, "histogram");
    uint64_t Cumulative = 0;
    for (unsigned I = 0; I != HistogramSnapshot::NumBuckets; ++I) {
      Cumulative += H.Buckets[I];
      OS << Mangled << "_bucket{le=\"";
      if (I + 1 == HistogramSnapshot::NumBuckets)
        OS << "+Inf";
      else
        OS << HistogramSnapshot::upperBound(I);
      OS << "\"} " << Cumulative << "\n";
    }
    OS << Mangled << "_sum " << H.Sum << "\n";
    OS << Mangled << "_count " << H.Count << "\n";
  }
  return OS.str();
}

std::string srp::stats::metricsToJson(const MetricsSnapshot &M,
                                      unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  std::string In1(Indent * 2 + 2, ' ');
  std::string In2(Indent * 2 + 4, ' ');
  std::string In3(Indent * 2 + 6, ' ');
  std::ostringstream OS;
  OS << "{\n";
  OS << In1 << "\"counters\": " << toJson(M.Counters, Indent + 1) << ",\n";

  OS << In1 << "\"gauges\": {";
  bool First = true;
  for (const auto &[Name, Value] : M.Gauges) {
    OS << (First ? "\n" : ",\n")
       << In2 << "\"" << json::escape(Name) << "\": " << Value;
    First = false;
  }
  if (!First)
    OS << "\n" << In1;
  OS << "},\n";

  OS << In1 << "\"histograms\": {";
  First = true;
  for (const auto &[Name, H] : M.Histograms) {
    OS << (First ? "\n" : ",\n") << In2 << "\"" << json::escape(Name)
       << "\": {\n";
    OS << In3 << "\"count\": " << H.Count << ",\n";
    OS << In3 << "\"sum\": " << H.Sum << ",\n";
    OS << In3 << "\"buckets\": [";
    for (unsigned I = 0; I != HistogramSnapshot::NumBuckets; ++I)
      OS << (I ? ", " : "") << H.Buckets[I];
    OS << "]\n" << In2 << "}";
    First = false;
  }
  if (!First)
    OS << "\n" << In1;
  OS << "}\n" << Pad << "}";
  return OS.str();
}

std::string srp::stats::toJson(const StatsSnapshot &S, unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  std::string Inner(Indent * 2 + 2, ' ');
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const auto &[Name, Value] : S) {
    OS << (First ? "\n" : ",\n")
       << Inner << "\"" << json::escape(Name) << "\": " << Value;
    First = false;
  }
  if (!First)
    OS << "\n" << Pad;
  OS << "}";
  return OS.str();
}
