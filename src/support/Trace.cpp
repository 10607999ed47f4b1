//===- support/Trace.cpp - Chrome-trace event timeline --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "support/JSON.h"
#include "support/Timer.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

using namespace srp;

std::atomic<bool> srp::trace::detail::Enabled{false};
thread_local bool srp::trace::detail::LocalArmed = false;

namespace {

/// One recorded event. Cat and CounterKey are string literals at every
/// call site, so the buffer stores pointers, not copies.
struct Event {
  char Phase;             ///< 'X' duration, 'i' instant, 'C' counter.
  const char *Cat;
  std::string Name;
  double TsSeconds;       ///< Absolute monotonic time.
  double DurSeconds;      ///< 'X' only.
  const char *CounterKey; ///< 'C' only.
  int64_t CounterValue;   ///< 'C' only.
};

/// Owned by the registry (not the thread), so events survive thread exit
/// and the merge after join() reads them safely. Only the owning thread
/// appends; the registry lock covers only registration and merging.
struct ThreadBuffer {
  unsigned Tid;
  std::string ThreadName;
  std::vector<Event> Events;
};

struct Registry {
  std::mutex Lock;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  double EpochSeconds = 0;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// The calling thread's buffer, registered on first use. The pointer stays
/// valid for the process lifetime: buffers are owned by the registry and
/// never deallocated (reset() only clears their event vectors).
ThreadBuffer &buffer() {
  thread_local ThreadBuffer *TLBuf = nullptr;
  if (!TLBuf) {
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.Lock);
    auto Buf = std::make_unique<ThreadBuffer>();
    Buf->Tid = static_cast<unsigned>(R.Buffers.size());
    TLBuf = Buf.get();
    R.Buffers.push_back(std::move(Buf));
  }
  return *TLBuf;
}

/// The calling thread's private LocalCapture buffer (events plus the
/// arm-time epoch). Owned by the thread, touched by no one else.
struct LocalBuffer {
  std::vector<Event> Events;
  double EpochSeconds = 0;
};

LocalBuffer &localBuffer() {
  thread_local LocalBuffer B;
  return B;
}

/// Routes one event to the sinks armed on this thread: the registry
/// buffer when global collection is on, the private buffer when a
/// LocalCapture is armed. Callers have already established that at least
/// one of the two holds (enabled() was true).
void record(Event E) {
  using srp::trace::detail::Enabled;
  using srp::trace::detail::LocalArmed;
  const bool Global = Enabled.load(std::memory_order_relaxed);
  if (Global && LocalArmed)
    localBuffer().Events.push_back(E); // copy: the global sink moves below
  else if (LocalArmed)
    localBuffer().Events.push_back(std::move(E));
  if (Global)
    buffer().Events.push_back(std::move(E));
}

void formatMicros(std::ostringstream &OS, double Micros) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Micros);
  OS << Buf;
}

} // namespace

void srp::trace::start() {
  reset();
  Registry &R = registry();
  {
    std::lock_guard<std::mutex> G(R.Lock);
    R.EpochSeconds = monotonicSeconds();
  }
  detail::Enabled.store(true, std::memory_order_relaxed);
}

void srp::trace::stop() {
  detail::Enabled.store(false, std::memory_order_relaxed);
}

void srp::trace::reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (auto &Buf : R.Buffers) {
    Buf->Events.clear();
    Buf->ThreadName.clear();
  }
}

bool srp::trace::startIfEnvRequested() {
  const char *Env = std::getenv("SRP_TRACE");
  if (!Env || std::string(Env) != "1")
    return false;
  start();
  return true;
}

void srp::trace::setThreadName(const std::string &Name) {
  // Names only the shared registry track: a LocalCapture renders a fixed
  // single-track document, so per-worker names inside it would break the
  // local/remote byte parity it exists for.
  if (!detail::Enabled.load(std::memory_order_relaxed))
    return;
  buffer().ThreadName = Name;
}

void srp::trace::instant(const char *Cat, const std::string &Name) {
  if (!enabled())
    return;
  record({'i', Cat, Name, monotonicSeconds(), 0, nullptr, 0});
}

void srp::trace::counter(const char *Cat, const std::string &Name,
                         const char *Key, int64_t Value) {
  if (!enabled())
    return;
  record({'C', Cat, Name, monotonicSeconds(), 0, Key, Value});
}

size_t srp::trace::eventCount() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  size_t N = 0;
  for (const auto &Buf : R.Buffers)
    N += Buf->Events.size();
  return N;
}

size_t srp::trace::threadCount() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  size_t N = 0;
  for (const auto &Buf : R.Buffers)
    if (!Buf->Events.empty())
      ++N;
  return N;
}

void TraceSpan::begin(const char *C, std::string N) {
  Cat = C;
  Name = std::move(N);
  StartSeconds = monotonicSeconds();
  Active = true;
  ToGlobal = trace::detail::Enabled.load(std::memory_order_relaxed);
  ToLocal = trace::detail::LocalArmed;
}

void TraceSpan::end() {
  if (!Active)
    return;
  Active = false;
  // A switch may have flipped mid-scope; record to the sinks armed at
  // begin() so begin/end stay paired with what the scope observed.
  Event E{'X', Cat, std::move(Name), StartSeconds,
          monotonicSeconds() - StartSeconds, nullptr, 0};
  if (ToLocal && ToGlobal)
    localBuffer().Events.push_back(E);
  else if (ToLocal)
    localBuffer().Events.push_back(std::move(E));
  if (ToGlobal)
    buffer().Events.push_back(std::move(E));
}

namespace {

bool deterministicMode() {
  const char *Env = std::getenv("SRP_TRACE_DETERMINISTIC");
  return Env && std::string(Env) == "1";
}

/// Emits one track: its thread_name metadata row, then its events.
/// Shared between the global merge and LocalCapture so both documents
/// format (and byte-stabilise) identically.
void emitTrack(std::ostringstream &OS, bool &First, unsigned Tid,
               const std::string &DisplayName,
               const std::vector<Event> &Events, double EpochSeconds,
               bool Deterministic) {
  auto comma = [&] {
    OS << (First ? "\n" : ",\n") << "  ";
    First = false;
  };
  comma();
  OS << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
     << Tid << ", \"args\": {\"name\": \"" << json::escape(DisplayName)
     << "\"}}";
  uint64_t Seq = 0;
  for (const Event &E : Events) {
    comma();
    OS << "{\"name\": \"" << json::escape(E.Name) << "\", \"cat\": \""
       << E.Cat << "\", \"ph\": \"" << E.Phase << "\", \"ts\": ";
    if (Deterministic)
      OS << Seq++;
    else
      formatMicros(OS, (E.TsSeconds - EpochSeconds) * 1e6);
    if (E.Phase == 'X') {
      OS << ", \"dur\": ";
      if (Deterministic)
        OS << 1;
      else
        formatMicros(OS, E.DurSeconds * 1e6);
    }
    OS << ", \"pid\": 1, \"tid\": " << Tid;
    if (E.Phase == 'i')
      OS << ", \"s\": \"t\"";
    if (E.Phase == 'C')
      OS << ", \"args\": {\"" << E.CounterKey << "\": " << E.CounterValue
         << "}";
    OS << "}";
  }
}

} // namespace

std::string srp::trace::toChromeJson() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);

  const bool Deterministic = deterministicMode();

  std::vector<const ThreadBuffer *> Tracks;
  for (const auto &Buf : R.Buffers)
    if (!Buf->Events.empty())
      Tracks.push_back(Buf.get());

  auto resolvedName = [](const ThreadBuffer *B) {
    if (!B->ThreadName.empty())
      return B->ThreadName;
    return B->Tid == 0 ? std::string("main")
                       : "thread-" + std::to_string(B->Tid);
  };

  // Registration order is scheduler-dependent (whichever worker records
  // first gets tid 1): in deterministic mode, order tracks by resolved
  // name instead and renumber, so merged multi-worker timelines are
  // byte-stable in CI.
  if (Deterministic)
    std::stable_sort(Tracks.begin(), Tracks.end(),
                     [&](const ThreadBuffer *A, const ThreadBuffer *B) {
                       const std::string NA = resolvedName(A);
                       const std::string NB = resolvedName(B);
                       return NA != NB ? NA < NB : A->Tid < B->Tid;
                     });

  std::ostringstream OS;
  OS << "{\"traceEvents\": [";
  bool First = true;
  for (size_t I = 0; I != Tracks.size(); ++I)
    emitTrack(OS, First,
              Deterministic ? static_cast<unsigned>(I) : Tracks[I]->Tid,
              resolvedName(Tracks[I]), Tracks[I]->Events, R.EpochSeconds,
              Deterministic);
  if (!First)
    OS << "\n";
  OS << "]}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===
// LocalCapture
//===----------------------------------------------------------------------===

srp::trace::LocalCapture::LocalCapture() {
  LocalBuffer &B = localBuffer();
  B.Events.clear();
  B.EpochSeconds = monotonicSeconds();
  detail::LocalArmed = true;
}

srp::trace::LocalCapture::~LocalCapture() { detail::LocalArmed = false; }

std::string srp::trace::LocalCapture::toChromeJson() const {
  const LocalBuffer &B = localBuffer();
  std::ostringstream OS;
  OS << "{\"traceEvents\": [";
  bool First = true;
  if (!B.Events.empty())
    emitTrack(OS, First, /*Tid=*/0, "job", B.Events, B.EpochSeconds,
              deterministicMode());
  if (!First)
    OS << "\n";
  OS << "]}\n";
  return OS.str();
}
