//===- support/Remarks.cpp - Optimization remarks -------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/Remarks.h"
#include "support/JSON.h"
#include <sstream>

using namespace srp;

namespace {
/// The global sink. Relaxed is enough: installation happens-before the
/// pipeline run that emits into it (setSink is called on the same thread
/// that later spawns workers, and thread creation synchronises).
std::atomic<RemarkEngine *> GlobalSink{nullptr};

/// The calling thread's override (remarks::setThreadSink). Shadows the
/// global sink so a server worker's per-job capture never sees remarks
/// from jobs running concurrently on other workers.
thread_local RemarkEngine *ThreadSink = nullptr;
} // namespace

const char *srp::remarkKindName(RemarkKind K) {
  switch (K) {
  case RemarkKind::Passed:
    return "passed";
  case RemarkKind::Missed:
    return "missed";
  case RemarkKind::Analysis:
    return "analysis";
  }
  return "analysis";
}

RemarkEngine *srp::remarks::sink() {
  if (RemarkEngine *RE = ThreadSink)
    return RE;
  return GlobalSink.load(std::memory_order_relaxed);
}

RemarkEngine *srp::remarks::globalSink() {
  return GlobalSink.load(std::memory_order_relaxed);
}

void srp::remarks::setSink(RemarkEngine *RE) {
  GlobalSink.store(RE, std::memory_order_relaxed);
}

void srp::remarks::setThreadSink(RemarkEngine *RE) { ThreadSink = RE; }

std::string Remark::argValue(const std::string &Key) const {
  for (const RemarkArg &A : Args) {
    if (A.Key != Key)
      continue;
    switch (A.Ty) {
    case RemarkArg::Type::Int:
      return std::to_string(A.IntVal);
    case RemarkArg::Type::Bool:
      return A.IntVal ? "true" : "false";
    case RemarkArg::Type::Str:
      return A.StrVal;
    }
  }
  return "";
}

void RemarkEngine::record(Remark R) {
  if (!wants(R.Pass))
    return;
  std::lock_guard<std::mutex> G(Lock);
  Remarks.push_back(std::move(R));
}

std::vector<Remark> RemarkEngine::remarks() const {
  std::lock_guard<std::mutex> G(Lock);
  return Remarks;
}

size_t RemarkEngine::size() const {
  std::lock_guard<std::mutex> G(Lock);
  return Remarks.size();
}

void RemarkEngine::clear() {
  std::lock_guard<std::mutex> G(Lock);
  Remarks.clear();
}

std::string srp::remarksToJson(const std::vector<Remark> &Remarks,
                               unsigned Indent) {
  const std::string Pad(Indent * 2, ' ');
  const std::string P1(Indent * 2 + 2, ' ');
  const std::string P2(Indent * 2 + 4, ' ');
  const std::string P3(Indent * 2 + 6, ' ');
  std::ostringstream OS;
  OS << "{\n" << P1 << "\"remark_count\": " << Remarks.size() << ",\n"
     << P1 << "\"remarks\": [";
  bool FirstRemark = true;
  for (const Remark &R : Remarks) {
    OS << (FirstRemark ? "\n" : ",\n") << P2 << "{\n"
       << P3 << "\"kind\": \"" << remarkKindName(R.Kind) << "\",\n"
       << P3 << "\"pass\": \"" << json::escape(R.Pass) << "\",\n"
       << P3 << "\"name\": \"" << json::escape(R.Name) << "\"";
    if (!R.Function.empty())
      OS << ",\n" << P3 << "\"function\": \"" << json::escape(R.Function)
         << "\"";
    if (!R.Interval.empty())
      OS << ",\n" << P3 << "\"interval\": \"" << json::escape(R.Interval)
         << "\",\n" << P3 << "\"interval_depth\": " << R.IntervalDepth;
    if (!R.Web.empty())
      OS << ",\n" << P3 << "\"web\": \"" << json::escape(R.Web) << "\"";
    OS << ",\n" << P3 << "\"args\": {";
    bool FirstArg = true;
    for (const RemarkArg &A : R.Args) {
      OS << (FirstArg ? "" : ", ") << "\"" << json::escape(A.Key) << "\": ";
      switch (A.Ty) {
      case RemarkArg::Type::Int:
        OS << A.IntVal;
        break;
      case RemarkArg::Type::Bool:
        OS << (A.IntVal ? "true" : "false");
        break;
      case RemarkArg::Type::Str:
        OS << "\"" << json::escape(A.StrVal) << "\"";
        break;
      }
      FirstArg = false;
    }
    OS << "}\n" << P2 << "}";
    FirstRemark = false;
  }
  if (!FirstRemark)
    OS << "\n" << P1;
  OS << "]\n" << Pad << "}";
  return OS.str();
}
