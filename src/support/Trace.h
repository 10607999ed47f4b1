//===- support/Trace.h - Chrome-trace event timeline -----------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free-per-thread event timeline rendered as Chrome Trace Event
/// JSON (the format chrome://tracing and Perfetto load). Recording writes
/// only to a thread-local buffer owned by a process-global registry, so
/// worker threads of the parallel workload driver never contend and their
/// events survive thread exit; `trace::toChromeJson()` merges every
/// buffer after the workers have joined — one track (tid) per thread, no
/// interleaved writes by construction.
///
/// Event kinds (Trace Event Format phases):
///  - `TraceSpan` — an `"X"` complete/duration event (RAII scope),
///  - `trace::instant` — an `"i"` instant event (e.g. a cache hit),
///  - `trace::counter` — a `"C"` counter sample (a value over time).
///
/// Collection is off by default, and every recording site reduces to one
/// relaxed atomic load and a branch — the zero-overhead guard the bench
/// smoke comparison enforces. `trace::start()` enables collection
/// (`srpc --trace-out=`, `bench_paper matrix --trace-out=`, or the
/// `SRP_TRACE=1` environment knob via `startIfEnvRequested()`).
///
/// Timestamps are microseconds since `start()`. With
/// `SRP_TRACE_DETERMINISTIC=1` the merge replaces them with per-thread
/// sequence numbers (durations become 1µs), which makes single-threaded
/// traces byte-stable across runs — the CI schema gate diffs two such
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_TRACE_H
#define SRP_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace srp {

namespace trace {

namespace detail {
/// The collection switch. Out-of-line storage, inline fast-path read.
extern std::atomic<bool> Enabled;
/// True while a LocalCapture is armed on the calling thread.
extern thread_local bool LocalArmed;
} // namespace detail

/// True while collection is on — globally, or locally on this thread via
/// LocalCapture. The only cost paid at a disabled recording site.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed) ||
         detail::LocalArmed;
}

/// Clears every buffer, records the epoch, and enables collection.
void start();

/// Disables collection (buffers are kept for toChromeJson()).
void stop();

/// Drops every buffered event (collection state is unchanged).
void reset();

/// Starts collection when SRP_TRACE=1 is set in the environment. Returns
/// true if it did.
bool startIfEnvRequested();

/// Names the calling thread's track ("worker-3"); merged as a
/// `thread_name` metadata event. No-op while disabled.
void setThreadName(const std::string &Name);

/// Records an instant event. \p Cat groups events into filterable tracks
/// ("pass", "analysis", "interp", "job"). No-op while disabled.
void instant(const char *Cat, const std::string &Name);

/// Records a counter sample `Key = Value` under counter track \p Name.
/// No-op while disabled.
void counter(const char *Cat, const std::string &Name, const char *Key,
             int64_t Value);

/// Number of buffered events across all threads (test convenience).
size_t eventCount();

/// Number of thread buffers that recorded at least one event.
size_t threadCount();

/// Merges every thread's buffer into one Chrome Trace Event JSON document
/// (`{"traceEvents": [...]}`, plus one `thread_name` metadata row per
/// track). Call after worker threads have joined. With
/// SRP_TRACE_DETERMINISTIC=1 tracks are ordered by resolved thread name
/// (ties by registration order) and renumbered sequentially, so merged
/// multi-worker timelines — including the compile server's — are
/// byte-stable regardless of which OS thread registered first.
std::string toChromeJson();

/// Captures the calling thread's events into a private per-thread buffer
/// for the object's lifetime, independent of (and in addition to) global
/// collection — the compile server arms one per job so concurrent jobs
/// never interleave, and the one-shot CLI path uses the same capture so
/// local and remote `--trace-out` bytes agree by construction. While
/// armed, `enabled()` is true on this thread; events recorded on other
/// threads are not seen. Not nestable with itself on one thread.
class LocalCapture {
public:
  LocalCapture();
  ~LocalCapture();
  LocalCapture(const LocalCapture &) = delete;
  LocalCapture &operator=(const LocalCapture &) = delete;

  /// Renders the captured events as a single-track Chrome Trace Event
  /// document (track name "job", tid 0), same formatting and
  /// SRP_TRACE_DETERMINISTIC handling as toChromeJson().
  std::string toChromeJson() const;
};

} // namespace trace

/// RAII duration event: records an "X" phase event covering the object's
/// lifetime. When tracing is disabled at construction the object is inert
/// (and stays inert even if tracing starts mid-scope, keeping begin/end
/// paired). Build names only after checking trace::enabled():
///
/// \code
///   TraceSpan Span("pass", "mem2reg");            // static name: cheap
///   TraceSpan Dyn;
///   if (trace::enabled())
///     Dyn.begin("interp", "decode:" + F.name());  // dynamic name
/// \endcode
class TraceSpan {
  double StartSeconds = 0;
  std::string Name;
  const char *Cat = nullptr;
  bool Active = false;
  // Sinks armed at begin() time; end() records to exactly these even if
  // a switch flipped mid-scope, keeping begin/end paired per sink.
  bool ToGlobal = false;
  bool ToLocal = false;

public:
  TraceSpan() = default;
  TraceSpan(const char *Cat, const char *Name) {
    if (trace::enabled())
      begin(Cat, Name);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan() { end(); }

  /// Arms the span (call only when trace::enabled()).
  void begin(const char *Cat, std::string Name);
  /// Records the event now instead of at destruction.
  void end();
};

} // namespace srp

#endif // SRP_SUPPORT_TRACE_H
