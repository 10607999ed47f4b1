//===- tests/ServerTest.cpp - compile-server tests ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process CompileServer tests: wire-protocol round trips, concurrent
/// jobs with overlapping function names staying ExecutionResult-identical
/// to sequential one-shot runs (per-job isolation), job-cache hits over
/// the wire, bounded-queue backpressure, protocol-error handling, the
/// ping/stats/shutdown lifecycle, the worker pool's liveness (prompt
/// answers while a thread sits in wait(), a short job overtaking a long
/// one) and the I/O thread's: sockets released once their clients hang
/// up, prompt shutdown with idle clients, and a client that stops reading
/// stalling no one.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/JSON.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <gtest/gtest.h>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace srp;
using namespace srp::server;

namespace {

/// Unique per-test socket path so parallel ctest invocations (and crashed
/// prior runs) cannot collide.
std::string testSocketPath(const char *Tag) {
  return "/tmp/srp-servertest-" + std::to_string(getpid()) + "-" + Tag +
         ".sock";
}

/// Every program shares the global/function names `acc`, `helper`, and
/// `main` — concurrent jobs must not alias each other's analyses or
/// modules even when symbol names collide across jobs.
std::string overlappingProgram(int K) {
  std::string N = std::to_string(6 + K);
  std::string B = std::to_string(K);
  return "int acc = 0;\n"
         "int helper(int n) { acc = acc + n; return acc; }\n"
         "int main() {\n"
         "  int i;\n"
         "  for (i = 0; i < " + N + "; i++) helper(i + " + B + ");\n"
         "  print(acc);\n"
         "  return acc;\n"
         "}\n";
}

CompileJob makeJob(const std::string &Src, PromotionMode Mode,
                   const std::string &Name) {
  CompileJob J;
  J.Name = Name;
  J.Source = SourceText(Src);
  J.Opts.Mode = Mode;
  return J;
}

struct RunningServer {
  CompileServer Srv;
  explicit RunningServer(ServerOptions O) : Srv(std::move(O)) {
    std::string Err;
    if (!Srv.start(Err)) {
      ADD_FAILURE() << "server start failed: " << Err;
      Started = false;
    }
  }
  ~RunningServer() {
    if (Started) {
      Srv.requestShutdown();
      Srv.wait();
    }
  }
  bool Started = true;
};

/// Open file descriptors of this process.
size_t openFdCount() {
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return 0;
  size_t N = 0;
  while (const dirent *E = ::readdir(D))
    N += E->d_name[0] != '.';
  ::closedir(D);
  return N;
}

/// A raw client socket connected to \p Path, or -1.
int connectRaw(const std::string &Path) {
  int FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (FD >= 0 &&
      ::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(FD);
    return -1;
  }
  return FD;
}

/// Jobs that have left a server queue so far, process-wide.
uint64_t jobsDequeued() {
  return stats::metrics().Histograms["server.queue-wait-micros"].Count;
}

TEST(ServerTest, ProtocolRequestRoundTrip) {
  CompileJob J = makeJob(overlappingProgram(0), PromotionMode::Superblock,
                         "round.mc");
  J.Opts.EntryFunction = "main";
  J.Opts.Promo.ProfitThreshold = 7;
  J.Opts.Promo.WebGranularity = false;
  J.InputIsIR = false;
  J.WantRemarks = true;
  J.RemarksFilter = "mem2reg";
  J.WantTrace = true;

  std::string Line = encodeCompileRequest(J, 42);
  json::Value Req;
  std::string Err;
  ASSERT_TRUE(json::parse(Line, Req, Err)) << Err;

  CompileJob Back;
  uint64_t Id = 0;
  ASSERT_TRUE(decodeCompileRequest(Req, Back, Id, Err)) << Err;
  EXPECT_EQ(Id, 42u);
  EXPECT_EQ(Back.Name, J.Name);
  EXPECT_EQ(Back.Source.str(), J.Source.str());
  EXPECT_EQ(Back.InputIsIR, J.InputIsIR);
  EXPECT_EQ(Back.Opts.Mode, J.Opts.Mode);
  EXPECT_EQ(Back.Opts.Promo.ProfitThreshold, J.Opts.Promo.ProfitThreshold);
  EXPECT_EQ(Back.Opts.Promo.WebGranularity, J.Opts.Promo.WebGranularity);
  EXPECT_EQ(Back.WantRemarks, J.WantRemarks);
  EXPECT_EQ(Back.RemarksFilter, J.RemarksFilter);
  EXPECT_EQ(Back.WantTrace, J.WantTrace);
  // Same work on both sides of the wire: same cache identity.
  EXPECT_EQ(jobFingerprint(Back), jobFingerprint(J));
  EXPECT_EQ(pipelineOptionsKey(Back.Opts), pipelineOptionsKey(J.Opts));
}

TEST(ServerTest, ProtocolBadRequestsAreRejected) {
  json::Value Req;
  std::string Err;
  // Missing source.
  ASSERT_TRUE(json::parse(R"({"op":"compile","id":3})", Req, Err));
  CompileJob J;
  uint64_t Id = 0;
  EXPECT_FALSE(decodeCompileRequest(Req, J, Id, Err));
  // Unknown mode.
  ASSERT_TRUE(json::parse(
      R"({"op":"compile","id":3,"source":"void main() {}","mode":"turbo"})",
      Req, Err));
  EXPECT_FALSE(decodeCompileRequest(Req, J, Id, Err));
}

// Satellite of the compile-server PR: N concurrent jobs with overlapping
// function names and distinct promotion modes through the server must be
// ExecutionResult-identical to sequential one-shot runs.
TEST(ServerTest, ConcurrentJobsMatchSequentialOneShot) {
  const int NumPrograms = 4;
  std::vector<CompileJob> Jobs;
  for (int P = 0; P != NumPrograms; ++P)
    for (PromotionMode M : allPromotionModes())
      // Appended: GCC 12 misreports `"p" + std::string` as -Wrestrict.
      Jobs.push_back(makeJob(overlappingProgram(P), M,
                             std::string("p")
                                 .append(std::to_string(P))
                                 .append("-")
                                 .append(promotionModeName(M))));

  // Sequential ground truth through the same job API the CLI uses.
  struct Expected {
    bool Ok;
    int64_t ExitValue;
    std::vector<int64_t> Output;
    uint64_t MemHash;
  };
  std::vector<Expected> Want;
  for (const CompileJob &J : Jobs) {
    JobResult R = runCompileJob(J);
    ASSERT_TRUE(R.ok()) << J.Name;
    Want.push_back({R.ok(), R.Pipeline.RunAfter.ExitValue,
                    R.Pipeline.RunAfter.Output,
                    finalMemoryHash(R.Pipeline.RunAfter)});
  }

  ServerOptions O;
  O.SocketPath = testSocketPath("parity");
  O.Threads = 2;
  O.QueueCapacity = 8;
  O.CacheEntries = 1; // all jobs distinct: every one runs the pipeline
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  const unsigned NumClients = 4;
  std::vector<CompileResponse> Got(Jobs.size());
  std::vector<std::string> ClientErrs(NumClients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != NumClients; ++C)
    Threads.emplace_back([&, C] {
      Client Cl;
      std::string Err;
      if (!Cl.connect(O.SocketPath, Err)) {
        ClientErrs[C] = Err;
        return;
      }
      for (size_t I = C; I < Jobs.size(); I += NumClients)
        if (!Cl.compile(Jobs[I], Got[I], Err)) {
          ClientErrs[C] = Jobs[I].Name + ": " + Err;
          return;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : ClientErrs)
    EXPECT_TRUE(E.empty()) << E;

  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(Got[I].Ok, Want[I].Ok) << Jobs[I].Name;
    EXPECT_EQ(Got[I].ExitValue, Want[I].ExitValue) << Jobs[I].Name;
    EXPECT_EQ(Got[I].Output, Want[I].Output) << Jobs[I].Name;
    EXPECT_EQ(Got[I].FinalMemoryHash, Want[I].MemHash) << Jobs[I].Name;
    EXPECT_FALSE(Got[I].ReportJson.empty()) << Jobs[I].Name;
  }

  ServerStats St = S.Srv.stats();
  EXPECT_EQ(St.JobsSubmitted, Jobs.size());
  EXPECT_EQ(St.JobsCompleted, Jobs.size());
  EXPECT_EQ(St.JobsFailed, 0u);
}

TEST(ServerTest, CacheHitReturnsIdenticalReport) {
  ServerOptions O;
  O.SocketPath = testSocketPath("cache");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  CompileJob J = makeJob(overlappingProgram(1), PromotionMode::Paper,
                         "cached.mc");
  CompileResponse R1, R2;
  ASSERT_TRUE(Cl.compile(J, R1, Err)) << Err;
  ASSERT_TRUE(R1.Ok);
  EXPECT_FALSE(R1.CacheHit);

  ASSERT_TRUE(Cl.compile(J, R2, Err)) << Err;
  ASSERT_TRUE(R2.Ok);
  EXPECT_TRUE(R2.CacheHit);
  // The cached entry carries the original resultToJson bytes, so the
  // resubmission's report is byte-identical, not merely equivalent.
  EXPECT_EQ(R2.ReportJson, R1.ReportJson);
  EXPECT_EQ(R2.ExitValue, R1.ExitValue);
  EXPECT_EQ(R2.Output, R1.Output);
  EXPECT_EQ(R2.FinalMemoryHash, R1.FinalMemoryHash);

  ServerStats St = S.Srv.stats();
  EXPECT_EQ(St.JobsSubmitted, 2u);
  EXPECT_EQ(St.JobsCompleted, 1u); // second answered from cache
  EXPECT_GE(St.Cache.Hits, 1u);
}

TEST(ServerTest, PipelineFailuresTravelInBand) {
  ServerOptions O;
  O.SocketPath = testSocketPath("fail");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  CompileJob Bad = makeJob("void main() { undeclared = 1; }",
                           PromotionMode::Paper, "bad.mc");
  CompileResponse R;
  // Transport succeeds; the failure is in the response body.
  ASSERT_TRUE(Cl.compile(Bad, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_FALSE(R.ReportJson.empty());

  ServerStats St = S.Srv.stats();
  EXPECT_EQ(St.JobsFailed, 1u);
}

// An integer literal beyond the int64 range once threw out of the lexer
// and took the whole daemon down; it must come back as an ordinary failed
// job, and the daemon must go on serving.
TEST(ServerTest, OversizedLiteralIsAnErrorResponse) {
  ServerOptions O;
  O.SocketPath = testSocketPath("literal");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(makeJob("int main() { return 99999999999999999999; }",
                                 PromotionMode::Paper, "big.mc"),
                         R, Err))
      << Err;
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("out of range"), std::string::npos);

  CompileResponse Next;
  ASSERT_TRUE(Cl.compile(makeJob(overlappingProgram(1), PromotionMode::Paper,
                                 "next.mc"),
                         Next, Err))
      << Err;
  EXPECT_TRUE(Next.Ok);
  EXPECT_TRUE(Cl.ping(Err)) << Err;
  EXPECT_EQ(S.Srv.stats().JobsFailed, 1u);
}

// Textual IR declaring a function without blocks once crashed the worker
// in mem2reg and took the daemon down; the parser now refuses it, so the
// job fails alone and the daemon keeps serving.
TEST(ServerTest, BlocklessIRFunctionIsAnErrorResponse) {
  ServerOptions O;
  O.SocketPath = testSocketPath("blockless");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  CompileJob Bad =
      makeJob("func void @main() {\n}\n", PromotionMode::Paper, "e.ir");
  Bad.InputIsIR = true;
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(Bad, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("function 'main' has no blocks"),
            std::string::npos)
      << R.Errors[0];

  CompileResponse Next;
  ASSERT_TRUE(Cl.compile(makeJob(overlappingProgram(1), PromotionMode::Paper,
                                 "next.mc"),
                         Next, Err))
      << Err;
  EXPECT_TRUE(Next.Ok);
  EXPECT_TRUE(Cl.ping(Err)) << Err;
  EXPECT_EQ(S.Srv.stats().JobsFailed, 1u);
}

// Mini-C nested past the front end's limit once overflowed the stack of
// the worker compiling it and took the whole daemon down; it must come
// back as an ordinary failed job. The deepest input the limit accepts, of
// every shape, must compile and run on a worker thread, and the daemon
// must go on serving.
TEST(ServerTest, TooDeepNestingIsAnErrorResponse) {
  ServerOptions O;
  O.SocketPath = testSocketPath("nesting");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(makeJob(test::nestedProgram(
                                     test::Nesting::Parentheses, 20000),
                                 PromotionMode::Paper, "deep.mc"),
                         R, Err))
      << Err;
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("nesting deeper than"), std::string::npos)
      << R.Errors[0];

  for (test::Nesting Shape :
       {test::Nesting::Parentheses, test::Nesting::UnaryChain,
        test::Nesting::BinaryChain, test::Nesting::Statements}) {
    CompileResponse Deepest;
    ASSERT_TRUE(Cl.compile(
        makeJob(test::nestedProgram(Shape, test::deepestAccepted(Shape)),
                PromotionMode::Paper, "deepest.mc"),
        Deepest, Err))
        << Err;
    EXPECT_TRUE(Deepest.Ok);
  }
  EXPECT_TRUE(Cl.ping(Err)) << Err;
  EXPECT_EQ(S.Srv.stats().JobsFailed, 1u);
}

// A static memory image beyond the interpreter's cell budget once aborted
// the process with std::bad_alloc; it must come back as an ordinary failed
// job, and the daemon must go on serving.
TEST(ServerTest, MemoryOverBudgetIsAnErrorResponse) {
  ServerOptions O;
  O.SocketPath = testSocketPath("cells");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(
      makeJob("int a[2000000000];\n"
              "int main() { a[1] = 3; print(a[1]); return 0; }\n",
              PromotionMode::Paper, "cells.mc"),
      R, Err))
      << Err;
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("exceeds the budget"), std::string::npos)
      << R.Errors[0];

  CompileResponse Next;
  ASSERT_TRUE(Cl.compile(makeJob(overlappingProgram(2), PromotionMode::Paper,
                                 "next.mc"),
                         Next, Err))
      << Err;
  EXPECT_TRUE(Next.Ok);
  EXPECT_TRUE(Cl.ping(Err)) << Err;
  EXPECT_EQ(S.Srv.stats().JobsFailed, 1u);
}

// Floods the server through a raw socket — many requests written before
// any response is read — with a capacity-1 queue. Every request must
// still be answered (the server stops reading the connection while its
// next job finds the queue full; nothing is dropped) and the server must
// record that backpressure engaged.
TEST(ServerTest, BackpressureBlocksWithoutDroppingJobs) {
  ServerOptions O;
  O.SocketPath = testSocketPath("pressure");
  O.Threads = 1;
  O.QueueCapacity = 1;
  O.CacheEntries = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  int FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(FD, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                O.SocketPath.c_str());
  ASSERT_EQ(::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);

  const int NumRequests = 12;
  std::string Burst;
  for (int I = 0; I != NumRequests; ++I) {
    // Distinct sources so the job cache cannot absorb the flood.
    CompileJob J = makeJob(overlappingProgram(I), PromotionMode::Paper,
                           "flood-" + std::to_string(I));
    Burst += encodeCompileRequest(J, uint64_t(I + 1)) + "\n";
  }
  size_t Off = 0;
  while (Off < Burst.size()) {
    ssize_t N = ::send(FD, Burst.data() + Off, Burst.size() - Off, 0);
    ASSERT_GT(N, 0);
    Off += size_t(N);
  }

  std::string Acc;
  int Responses = 0;
  std::vector<bool> SeenId(NumRequests + 1, false);
  char Chunk[4096];
  while (Responses < NumRequests) {
    ssize_t N = ::recv(FD, Chunk, sizeof(Chunk), 0);
    ASSERT_GT(N, 0) << "connection closed before all responses arrived";
    Acc.append(Chunk, size_t(N));
    size_t NL;
    while ((NL = Acc.find('\n')) != std::string::npos) {
      std::string Line = Acc.substr(0, NL);
      Acc.erase(0, NL + 1);
      json::Value Doc;
      std::string Err;
      ASSERT_TRUE(json::parse(Line, Doc, Err)) << Err;
      CompileResponse R;
      ASSERT_TRUE(decodeCompileResponse(Doc, R, Err)) << Err;
      EXPECT_TRUE(R.Ok) << "request " << R.Id;
      ASSERT_GE(R.Id, 1u);
      ASSERT_LE(R.Id, uint64_t(NumRequests));
      EXPECT_FALSE(SeenId[size_t(R.Id)]) << "duplicate response";
      SeenId[size_t(R.Id)] = true;
      ++Responses;
    }
  }
  ::close(FD);

  ServerStats St = S.Srv.stats();
  EXPECT_EQ(St.JobsSubmitted, uint64_t(NumRequests));
  EXPECT_EQ(St.JobsCompleted, uint64_t(NumRequests));
  EXPECT_GE(St.BackpressureWaits, 1u) << "capacity-1 queue never filled";
}

TEST(ServerTest, ProtocolErrorsAreAnsweredAndCounted) {
  ServerOptions O;
  O.SocketPath = testSocketPath("proto");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  const char *BadLines[] = {
      "this is not json",
      R"({"op":"frobnicate"})",
      R"({"op":"compile","id":9})", // missing source
  };
  for (const char *Bad : BadLines) {
    std::string Resp;
    ASSERT_TRUE(Cl.roundTrip(Bad, Resp, Err)) << Err;
    json::Value Doc;
    ASSERT_TRUE(json::parse(Resp, Doc, Err)) << Err;
    EXPECT_FALSE(Doc.get("ok").asBool(true)) << Bad;
    EXPECT_FALSE(Doc.get("error").asString().empty()) << Bad;
  }
  // The connection survives garbage and still serves real work.
  CompileJob J = makeJob(overlappingProgram(2), PromotionMode::Paper,
                         "after-garbage.mc");
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(J, R, Err)) << Err;
  EXPECT_TRUE(R.Ok);

  EXPECT_EQ(S.Srv.stats().ProtocolErrors, 3u);
}

// Observability over the wire: a job submitted with WantRemarks/WantTrace
// must come back with the exact bytes a local one-shot run produces —
// the server executes through the same executeJob capture path, and
// SRP_TRACE_DETERMINISTIC=1 replaces wall-clock timestamps with sequence
// numbers so the comparison is byte-exact, not merely structural.
TEST(ServerTest, RemarksAndTraceRoundTripMatchOneShot) {
  ::setenv("SRP_TRACE_DETERMINISTIC", "1", 1);

  CompileJob J = makeJob(overlappingProgram(2), PromotionMode::Paper,
                         "observed.mc");
  J.WantRemarks = true;
  J.WantTrace = true;

  JobResult Local = runCompileJob(J);
  ASSERT_TRUE(Local.ok());
  ASSERT_TRUE(Local.Pipeline.RemarksCaptured);
  ASSERT_FALSE(Local.Pipeline.TraceJson.empty());
  const std::string WantRemarks = remarksToJson(Local.Pipeline.Remarks);
  const std::string WantTrace = Local.Pipeline.TraceJson;

  ServerOptions O;
  O.SocketPath = testSocketPath("observability");
  O.Threads = 2;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  CompileResponse R1;
  ASSERT_TRUE(Cl.compile(J, R1, Err)) << Err;
  ASSERT_TRUE(R1.Ok);
  EXPECT_FALSE(R1.CacheHit);
  EXPECT_EQ(R1.RemarksJson, WantRemarks);
  EXPECT_EQ(R1.TraceJson, WantTrace);

  // Cache-hit replay: the stored entry carries the original documents,
  // byte-identical on resubmission.
  CompileResponse R2;
  ASSERT_TRUE(Cl.compile(J, R2, Err)) << Err;
  ASSERT_TRUE(R2.Ok);
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_EQ(R2.RemarksJson, WantRemarks);
  EXPECT_EQ(R2.TraceJson, WantTrace);

  ::unsetenv("SRP_TRACE_DETERMINISTIC");
}

// The observability request is part of the job identity: the same source
// with different remark filters (or no capture at all) must occupy
// distinct cache slots — a collision would replay another variant's
// documents — while a plain job stays document-free.
TEST(ServerTest, RemarksFilterIsPartOfJobIdentity) {
  ServerOptions O;
  O.SocketPath = testSocketPath("remarkfilter");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  CompileJob Plain = makeJob(overlappingProgram(0), PromotionMode::Paper,
                             "filtered.mc");
  CompileJob All = Plain;
  All.WantRemarks = true;
  CompileJob Filtered = Plain;
  Filtered.WantRemarks = true;
  Filtered.RemarksFilter = "mem2reg";

  // Distinct fingerprints, same semantic options key.
  EXPECT_NE(jobFingerprint(Plain), jobFingerprint(All));
  EXPECT_NE(jobFingerprint(All), jobFingerprint(Filtered));
  EXPECT_EQ(pipelineOptionsKey(Plain.Opts), pipelineOptionsKey(All.Opts));

  CompileResponse RPlain, RAll, RFiltered;
  ASSERT_TRUE(Cl.compile(Plain, RPlain, Err)) << Err;
  ASSERT_TRUE(Cl.compile(All, RAll, Err)) << Err;
  ASSERT_TRUE(Cl.compile(Filtered, RFiltered, Err)) << Err;
  ASSERT_TRUE(RPlain.Ok && RAll.Ok && RFiltered.Ok);

  // Three submissions, three pipeline runs: no variant hit another's slot.
  EXPECT_FALSE(RPlain.CacheHit);
  EXPECT_FALSE(RAll.CacheHit);
  EXPECT_FALSE(RFiltered.CacheHit);
  EXPECT_EQ(S.Srv.stats().JobsCompleted, 3u);

  EXPECT_TRUE(RPlain.RemarksJson.empty());
  ASSERT_FALSE(RAll.RemarksJson.empty());
  ASSERT_FALSE(RFiltered.RemarksJson.empty());

  // The filtered document matches a local filtered run and is a strict
  // subset of the unfiltered one.
  JobResult Local = runCompileJob(Filtered);
  ASSERT_TRUE(Local.ok());
  EXPECT_EQ(RFiltered.RemarksJson, remarksToJson(Local.Pipeline.Remarks));
  EXPECT_LT(RFiltered.RemarksJson.size(), RAll.RemarksJson.size());
  EXPECT_NE(RFiltered.RemarksJson.find("mem2reg"), std::string::npos);
}

// The `metrics` op serves the process-wide registry in Prometheus text
// form: service-time histogram populated by the jobs the server just ran,
// queue-depth gauge present, byte-stable across back-to-back scrapes of
// an idle server.
TEST(ServerTest, MetricsOpServesPrometheusSnapshot) {
  ServerOptions O;
  O.SocketPath = testSocketPath("metrics");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;

  CompileJob J = makeJob(overlappingProgram(1), PromotionMode::Paper,
                         "metrics.mc");
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(J, R, Err)) << Err;
  ASSERT_TRUE(R.Ok);

  std::string Prom;
  ASSERT_TRUE(Cl.requestMetrics(Prom, Err)) << Err;
  EXPECT_NE(Prom.find("# TYPE srp_server_service_micros histogram"),
            std::string::npos);
  EXPECT_NE(Prom.find("srp_server_service_micros_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(Prom.find("# TYPE srp_server_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(Prom.find("# TYPE srp_server_queue_wait_micros histogram"),
            std::string::npos);

  // The histogram counted at least this server's job (the registry is
  // process-global, so parallel pipelines may have added more).
  size_t CountAt = Prom.find("srp_server_service_micros_count ");
  ASSERT_NE(CountAt, std::string::npos);
  long Count = std::strtol(
      Prom.c_str() + CountAt + std::strlen("srp_server_service_micros_count "),
      nullptr, 10);
  EXPECT_GE(Count, 1);

  // Idle server: consecutive scrapes are byte-identical.
  std::string Prom2;
  ASSERT_TRUE(Cl.requestMetrics(Prom2, Err)) << Err;
  EXPECT_EQ(Prom, Prom2);
}

// `srpc -serve`'s main thread sits in wait(). It once slept on the
// condition the job runner slept on and absorbed the enqueue's wake-up, so
// every job waited out a 200 ms poll before it ran.
TEST(ServerTest, JobsAreAnsweredPromptlyWhileAThreadWaits) {
  ServerOptions O;
  O.SocketPath = testSocketPath("waiter");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);
  std::thread Waiter([&] { S.Srv.wait(); });

  Client Cl;
  std::string Err;
  EXPECT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  for (int I = 0; I != 10 && Cl.connected(); ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // A distinct leading comment per job misses the job cache.
    CompileJob J = makeJob("// job " + std::to_string(I) +
                               "\nint main() { print(1); return 0; }\n",
                           PromotionMode::Paper, "quick.mc");
    CompileResponse R;
    const double T0 = monotonicSeconds();
    EXPECT_TRUE(Cl.compile(J, R, Err)) << Err;
    const double Ms = (monotonicSeconds() - T0) * 1e3;
    EXPECT_TRUE(R.Ok && !R.CacheHit) << "job " << I;
    EXPECT_LT(Ms, 100.0) << "job " << I;
  }
  S.Srv.requestShutdown();
  Waiter.join();
}

// With two workers, a short job submitted once a long job has left the
// queue runs beside it. The old dispatcher ran a lone queued job inline
// and held every later one until it finished.
TEST(ServerTest, ShortJobOvertakesLongJob) {
  ServerOptions O;
  O.SocketPath = testSocketPath("overtake");
  O.Threads = 2;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  CompileJob Long = makeJob("int main() {\n"
                            "  int i;\n"
                            "  int s = 0;\n"
                            "  for (i = 0; i < 1000000; i++) s = s + (i & 7);\n"
                            "  print(s);\n"
                            "  return 0;\n"
                            "}\n",
                            PromotionMode::None, "long.mc");
  Long.Opts.Interp = InterpEngine::Walk;
  const uint64_t Dequeued = jobsDequeued();
  std::atomic<bool> LongAnswered{false};
  CompileResponse LongResp;
  std::string LongErr;
  std::thread LongClient([&] {
    Client Cl;
    if (Cl.connect(O.SocketPath, LongErr))
      Cl.compile(Long, LongResp, LongErr);
    LongAnswered.store(true);
  });
  const double Deadline = monotonicSeconds() + 30;
  while (jobsDequeued() == Dequeued && monotonicSeconds() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(jobsDequeued(), Dequeued) << "the long job never left the queue";

  Client Cl;
  std::string Err;
  CompileResponse Short;
  EXPECT_TRUE(Cl.connect(O.SocketPath, Err) &&
              Cl.compile(makeJob(overlappingProgram(1), PromotionMode::Paper,
                                 "short.mc"),
                         Short, Err))
      << Err;
  EXPECT_FALSE(LongAnswered.load()) << "the short job waited for the long one";
  EXPECT_TRUE(Short.Ok);
  LongClient.join();
  EXPECT_TRUE(LongErr.empty()) << LongErr;
  EXPECT_TRUE(LongResp.Ok);
}

// A connection whose client hung up once kept its socket open until
// shutdown: one leaked descriptor per finished connection.
TEST(ServerTest, FinishedConnectionsReleaseTheirSockets) {
  ServerOptions O;
  O.SocketPath = testSocketPath("reap");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  const size_t Baseline = openFdCount();
  ASSERT_GT(Baseline, 0u);
  const unsigned NumClients = 50;
  for (unsigned I = 0; I != NumClients; ++I) {
    Client Cl;
    std::string Err;
    ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
    ASSERT_TRUE(Cl.ping(Err)) << Err;
  }
  // The server sees each client's EOF at once and closes its socket.
  const double Deadline = monotonicSeconds() + 5;
  while (openFdCount() > Baseline && monotonicSeconds() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(openFdCount(), Baseline);
  EXPECT_EQ(S.Srv.stats().Connections, NumClients);
}

// wait() once returned only when the accept loop's and every connection
// reader's 200 ms poll tick came round, so idle clients held shutdown up.
TEST(ServerTest, ShutdownIsPromptWithIdleClients) {
  ServerOptions O;
  O.SocketPath = testSocketPath("prompt");
  O.Threads = 1;
  CompileServer Srv(O);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;

  // Three clients, each answered once and then left idle.
  const std::string Ping = "{\"op\":\"ping\"}\n";
  int FDs[3];
  for (int &FD : FDs) {
    FD = connectRaw(O.SocketPath);
    ASSERT_GE(FD, 0);
    ASSERT_EQ(::send(FD, Ping.data(), Ping.size(), 0), ssize_t(Ping.size()));
    char C = 0;
    while (C != '\n')
      ASSERT_EQ(::recv(FD, &C, 1, 0), 1) << "no answer to ping";
  }
  const double T0 = monotonicSeconds();
  Srv.requestShutdown();
  Srv.wait();
  EXPECT_LT((monotonicSeconds() - T0) * 1e3, 100.0);
  for (int FD : FDs) {
    char C;
    EXPECT_EQ(::recv(FD, &C, 1, 0), 0) << "the server left a client open";
    ::close(FD);
  }
}

// One thread serves every socket, so a client that stops reading must
// cost the others nothing: the server stops reading that client instead of
// waiting on its socket or queuing responses for it without bound.
TEST(ServerTest, ClientThatStopsReadingStallsNoOne) {
  ServerOptions O;
  O.SocketPath = testSocketPath("slowreader");
  O.Threads = 1;
  RunningServer S(O);
  ASSERT_TRUE(S.Started);

  int Slow = connectRaw(O.SocketPath);
  ASSERT_GE(Slow, 0);
  const std::string Req = "{\"op\":\"metrics\"}\n";
  while (::send(Slow, Req.data(), Req.size(), MSG_DONTWAIT) > 0) {
  }
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);

  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  const double T0 = monotonicSeconds();
  EXPECT_TRUE(Cl.ping(Err)) << Err;
  EXPECT_LT((monotonicSeconds() - T0) * 1e3, 100.0);
  ::close(Slow);
}

TEST(ServerTest, PingStatsShutdownLifecycle) {
  ServerOptions O;
  O.SocketPath = testSocketPath("life");
  O.Threads = 1;
  CompileServer Srv(O);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  ASSERT_TRUE(Srv.running());

  Client Cl;
  ASSERT_TRUE(Cl.connect(O.SocketPath, Err)) << Err;
  EXPECT_TRUE(Cl.ping(Err)) << Err;

  CompileJob J = makeJob(overlappingProgram(3), PromotionMode::MemOptOnly,
                         "life.mc");
  CompileResponse R;
  ASSERT_TRUE(Cl.compile(J, R, Err)) << Err;
  EXPECT_TRUE(R.Ok);

  std::string StatsJson;
  ASSERT_TRUE(Cl.requestStats(StatsJson, Err)) << Err;
  json::Value Doc;
  ASSERT_TRUE(json::parse(StatsJson, Doc, Err)) << Err;
  EXPECT_EQ(Doc.get("jobs_submitted").asInt(-1), 1);
  EXPECT_EQ(Doc.get("jobs_completed").asInt(-1), 1);
  EXPECT_EQ(Doc.get("connections").asInt(-1), 1);
  EXPECT_TRUE(Doc.get("job_cache").isObject());
  EXPECT_TRUE(Doc.get("analysis_cache").isObject());

  ASSERT_TRUE(Cl.requestShutdown(Err)) << Err;
  Srv.wait();
  EXPECT_FALSE(Srv.running());
  // Socket file is gone: a fresh server can bind the same path.
  CompileServer Again(O);
  ASSERT_TRUE(Again.start(Err)) << Err;
  Again.requestShutdown();
  Again.wait();
}

} // namespace
