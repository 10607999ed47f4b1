//===- support/Statistics.h - Global metrics registry ----------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide metrics registry of the telemetry plane: named
/// counters (`Statistic`), fixed-bucket latency `Histogram`s, and
/// point-in-time `Gauge`s. Every metric registers itself once
/// (thread-safely) under the name `<component>.<name>` — e.g.
/// `mem2reg.promoted`, `server.service-micros` — and is updated from
/// anywhere in the compiler, including concurrently from the parallel
/// workload driver and the compile server's worker pool:
///
///  - counters are relaxed atomics, so aggregate totals are deterministic
///    regardless of thread interleaving (sums and maxima are
///    order-independent);
///  - histograms shard their buckets across a small fixed set of
///    cacheline-aligned shards indexed per thread, so concurrent
///    `observe()` calls touch distinct atomics and the merged snapshot is
///    still an order-independent sum;
///  - gauges are single relaxed atomics (`set`/`add`/`sub`).
///
/// Naming convention (enforced at registration for all three kinds):
/// `component` is the short lower-case pass or subsystem name (mem2reg,
/// memssa, promotion, interp, pipeline, server, analysis); `name` is a
/// lower-case hyphenated metric, with histograms conventionally suffixed
/// by their unit (`-micros`). Declare at namespace scope in the owning
/// .cpp with SRP_STATISTIC / SRP_HISTOGRAM / SRP_GAUGE.
///
/// `srp::stats::snapshot()` returns an ordered counter name -> value map,
/// `metrics()` the full registry view (counters + histograms + gauges),
/// `metricsToPrometheusText()` renders the whole registry in the
/// Prometheus text exposition format with byte-stable ordering (served by
/// the compile server's `metrics` op), and `metricsToJson()` renders the
/// same view as JSON (the `telemetry` report section). `reset()` zeroes
/// counters between independent measurement runs; `resetForTesting()`
/// additionally clears every histogram shard and gauge so in-process
/// server restarts in tests cannot observe bleed-through.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_STATISTICS_H
#define SRP_SUPPORT_STATISTICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace srp {

/// One named, process-global, thread-safe counter.
class Statistic {
  const char *Component;
  const char *Name;
  const char *Desc;
  std::atomic<uint64_t> Value{0};

public:
  Statistic(const char *Component, const char *Name, const char *Desc);

  const char *component() const { return Component; }
  const char *name() const { return Name; }
  const char *description() const { return Desc; }
  /// `<component>.<name>`, the registry key.
  std::string fullName() const {
    return std::string(Component) + "." + Name;
  }

  uint64_t get() const { return Value.load(std::memory_order_relaxed); }
  void set(uint64_t V) { Value.store(V, std::memory_order_relaxed); }

  Statistic &operator++() {
    Value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Statistic &operator+=(uint64_t N) {
    Value.fetch_add(N, std::memory_order_relaxed);
    return *this;
  }
  /// Raises the counter to \p V if it is currently lower (for peak-style
  /// metrics such as coloring.max-pressure).
  void updateMax(uint64_t V) {
    uint64_t Cur = Value.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Value.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
};

/// Merged (cross-shard) view of one histogram at a point in time.
/// Buckets are non-cumulative; bucket I counts observations V with
/// upperBound(I-1) < V <= upperBound(I) (bucket 0: V <= 1; the last
/// bucket is the +Inf overflow). Prometheus rendering re-accumulates.
struct HistogramSnapshot {
  static constexpr unsigned NumBuckets = 28;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::array<uint64_t, NumBuckets> Buckets{};

  /// Inclusive upper bound of bucket \p I: 1, 2, 4, ..., 2^26, then
  /// UINT64_MAX for the overflow bucket.
  static uint64_t upperBound(unsigned I);
};

/// One named, process-global histogram with power-of-two buckets.
/// `observe()` is wait-free: it picks the calling thread's shard (threads
/// are striped over a fixed shard set) and performs three relaxed atomic
/// adds. Merging shards is done only by snapshot().
class Histogram {
  static constexpr unsigned NumShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Buckets[HistogramSnapshot::NumBuckets]{};
  };

  const char *Component;
  const char *Name;
  const char *Desc;
  Shard Shards[NumShards];

  static unsigned shardIndex();

public:
  Histogram(const char *Component, const char *Name, const char *Desc);

  const char *component() const { return Component; }
  const char *name() const { return Name; }
  const char *description() const { return Desc; }
  std::string fullName() const {
    return std::string(Component) + "." + Name;
  }

  /// Bucket index for value \p V (0 for V <= 1, last bucket for
  /// overflow). Exposed for the bucket-edge tests.
  static unsigned bucketFor(uint64_t V);

  void observe(uint64_t V);
  /// Convenience for wall-time observations: records \p Seconds in
  /// microseconds (negative values clamp to 0).
  void observeSeconds(double Seconds);

  /// Merged view across every shard. Concurrent-safe; values lag in-flight
  /// observations by at most one relaxed load each.
  HistogramSnapshot snapshot() const;

  /// Zeroes every shard (tests only; not safe concurrently with observe).
  void resetForTesting();
};

/// One named, process-global gauge (a value that goes up and down:
/// queue depth, live connections).
class Gauge {
  const char *Component;
  const char *Name;
  const char *Desc;
  std::atomic<int64_t> Value{0};

public:
  Gauge(const char *Component, const char *Name, const char *Desc);

  const char *component() const { return Component; }
  const char *name() const { return Name; }
  const char *description() const { return Desc; }
  std::string fullName() const {
    return std::string(Component) + "." + Name;
  }

  int64_t get() const { return Value.load(std::memory_order_relaxed); }
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  void sub(int64_t N = 1) { Value.fetch_sub(N, std::memory_order_relaxed); }
};

/// Ordered name -> value view of the registry at one point in time.
using StatsSnapshot = std::map<std::string, uint64_t>;

/// Full registry view: every metric kind, each ordered by full name so
/// serialised output is byte-stable.
struct MetricsSnapshot {
  StatsSnapshot Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, HistogramSnapshot> Histograms;
};

namespace stats {

/// All registered counters with their current values (including zeros, so
/// the schema is stable across runs).
StatsSnapshot snapshot();

/// All registered metrics (counters, gauges, histograms), merged and
/// ordered.
MetricsSnapshot metrics();

/// Zeroes every registered counter. Call between independent measurement
/// runs; do not call while pipelines are executing on other threads.
void reset();

/// reset() plus zeroing every histogram shard and gauge. Tests that
/// restart an in-process server would otherwise observe metric
/// bleed-through from the previous instance.
void resetForTesting();

/// Number of registered counters.
size_t numRegistered();

/// Description for a registered full name (any metric kind), or "" if
/// unknown.
std::string description(const std::string &FullName);

/// Renders \p S as a JSON object, keys sorted, two-space indented at
/// \p Indent levels. Byte-stable for equal snapshots.
std::string toJson(const StatsSnapshot &S, unsigned Indent = 0);

/// Renders the whole registry in the Prometheus text exposition format:
/// counters as `counter`, gauges as `gauge`, histograms as cumulative
/// `histogram` series with power-of-two `le` labels. Metric names are
/// mangled `srp_<component>_<name>` (dots and hyphens become
/// underscores); families are emitted in ascending full-name order and
/// every line is derived deterministically from the snapshot, so equal
/// snapshots render byte-identically.
std::string metricsToPrometheusText();

/// Renders \p M as a JSON object {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, buckets: [...]}}}, two-space
/// indented at \p Indent levels. Byte-stable for equal snapshots.
std::string metricsToJson(const MetricsSnapshot &M, unsigned Indent = 0);

} // namespace stats

/// json::escape (support/JSON.h), the one JSON string escaper, under the
/// name the perfbench sources call it by.
std::string jsonEscape(const std::string &S);

} // namespace srp

/// Declares (at namespace or function scope) a registered statistic.
#define SRP_STATISTIC(Var, Component, Name, Desc)                            \
  static ::srp::Statistic Var(Component, Name, Desc)

/// Declares a registered histogram (same naming rules as SRP_STATISTIC).
#define SRP_HISTOGRAM(Var, Component, Name, Desc)                            \
  static ::srp::Histogram Var(Component, Name, Desc)

/// Declares a registered gauge (same naming rules as SRP_STATISTIC).
#define SRP_GAUGE(Var, Component, Name, Desc)                                \
  static ::srp::Gauge Var(Component, Name, Desc)

#endif // SRP_SUPPORT_STATISTICS_H
