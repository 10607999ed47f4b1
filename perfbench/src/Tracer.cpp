//===- perfbench/src/Tracer.cpp - In-memory span buffer -------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include <algorithm>
#include <cstdio>

using namespace srp;
using namespace srp::perfbench;

void Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.Job = Job;
  S.Start = monotonicSeconds();
  Spans.push_back(S);
  Open = static_cast<int>(Spans.size()) - 1;
}

void Tracer::end() {
  Span &S = Spans[Open];
  S.End = monotonicSeconds();
  Open = S.Parent;
}

void Tracer::addMeasuredChild(const char *Name, double Seconds) {
  double Start = Spans[Open].Start;
  for (size_t I = Open + 1; I != Spans.size(); ++I)
    if (Spans[I].Parent == Open)
      Start = std::max(Start, Spans[I].End);
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.Job = Job;
  S.Start = Start;
  S.End = Start + Seconds;
  Spans.push_back(S);
}

std::vector<double> Tracer::selfSeconds() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] += Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  return Self;
}

bool Tracer::writeChromeTrace(
    const std::string &Path,
    const std::map<std::string, std::string> &Meta) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  const double Epoch = Spans.empty() ? 0 : Spans.front().Start;
  std::fprintf(Out, "{\"metadata\": {");
  bool First = true;
  for (const auto &[Key, Value] : Meta) {
    std::fprintf(Out, "%s\"%s\": \"%s\"", First ? "" : ", ",
                 jsonEscape(Key).c_str(), jsonEscape(Value).c_str());
    First = false;
  }
  std::fprintf(Out, "},\n\"traceEvents\": [");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 I ? "," : "", S.Name, S.Job, (S.Start - Epoch) * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent);
  }
  std::fprintf(Out, "\n]}\n");
  return std::fclose(Out) == 0;
}
