//===- perfbench/src/Tracer.h - In-memory span buffer ----------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span buffer. The benchmark opens a span around each
/// call it makes into a layer; every span records its name, start, end,
/// parent and job id. Spans stay in memory and are written out once, as
/// a Chrome trace, when the benchmark ends.
///
/// A span's self time is its duration minus the time its children cover.
/// Self times over a job's span tree therefore add up to the job's wall.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_TRACER_H
#define SRP_PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace srp::perfbench {

struct Span {
  const char *Name = ""; ///< static storage (literals, interned names)
  double Start = 0, End = 0;
  int Parent = -1;
  uint32_t Job = 0;
};

class Tracer {
public:
  /// Spans opened from now on belong to job \p Id.
  void setJob(uint32_t Id) { Job = Id; }

  void begin(const char *Name);
  void end();

  /// Records an already-finished child of the open span that lasted
  /// \p Seconds, laid out after the open span's earlier children. For
  /// time a layer reports about itself (the interpreter's decode and
  /// JIT-compile seconds) rather than time the benchmark can bracket.
  void addMeasuredChild(const char *Name, double Seconds);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self seconds of every span, indexed like spans().
  std::vector<double> selfSeconds() const;

  /// Writes every span as a Chrome trace ("X" events, one track per job).
  bool writeChromeTrace(const std::string &Path,
                        const std::map<std::string, std::string> &Meta) const;

private:
  std::vector<Span> Spans;
  int Open = -1;
  uint32_t Job = 0;
};

/// RAII span.
class SpanScope {
  Tracer &T;

public:
  SpanScope(Tracer &T, const char *Name) : T(T) { T.begin(Name); }
  ~SpanScope() { T.end(); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
};

} // namespace srp::perfbench

#endif // SRP_PERFBENCH_TRACER_H
