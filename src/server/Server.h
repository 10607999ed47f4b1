//===- server/Server.h - Long-running compile server -----------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `srpc --serve`: the pipeline as a long-running service. A
/// CompileServer listens on a unix-domain socket, speaks the
/// newline-delimited JSON protocol of server/Protocol.h, and runs
/// accepted compile jobs on a fixed pool of workers:
///
///   one I/O thread ----------> bounded job queue --> N workers
///   (every socket; answers      (FIFO)              (runCompileJob, one
///    admin ops and cache hits,                       job each)
///    sends every response) <------ Done list --------'
///
/// The I/O thread polls the listening socket, every connection and a
/// wake socket without a timeout, and it alone touches a connection's
/// buffers. Backpressure lives in its poll mask: a connection is not read
/// while its next compile job finds the queue full or while its client
/// has not taken earlier responses, so a flooding client is throttled at
/// its own socket instead of ballooning server memory.
///
/// Jobs share exactly two pieces of process-wide mutable state, both
/// deliberately: the statistics registry (atomic counters) and the
/// JobCache (finished results keyed by source + options, answering
/// identical resubmissions without a run). Everything else — Module,
/// AnalysisManager, PipelineResult — is per-job, so concurrent jobs
/// with overlapping function names cannot alias each other's analyses
/// (tests/ServerTest.cpp pins this). See docs/SERVER.md.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SERVER_SERVER_H
#define SRP_SERVER_SERVER_H

#include "pipeline/Job.h"
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace srp {
namespace server {

struct ServerOptions {
  /// Filesystem path of the unix-domain socket. An existing socket file
  /// is replaced (stale sockets from a crashed server would otherwise
  /// wedge restarts).
  std::string SocketPath = "/tmp/srpc.sock";
  /// Worker threads (0 = hardware concurrency).
  unsigned Threads = 0;
  /// Bounded queue capacity; a connection whose next job finds the
  /// queue full is not read until a worker takes one.
  unsigned QueueCapacity = 64;
  /// JobCache capacity (finished results kept for resubmission).
  size_t CacheEntries = 128;
};

/// Counters exposed through the "stats" protocol op and the bench load
/// generator. Analysis/interp numbers are aggregated over every job the
/// server ran (cache hits answered without a run contribute nothing).
struct ServerStats {
  uint64_t Connections = 0;
  uint64_t JobsSubmitted = 0; ///< compile requests accepted
  uint64_t JobsCompleted = 0; ///< pipeline runs finished (Ok or not)
  uint64_t JobsFailed = 0;    ///< finished with Ok = false
  uint64_t ProtocolErrors = 0;
  uint64_t BackpressureWaits = 0; ///< compile jobs held by a full queue
  JobCacheStats Cache;
  /// Summed per-job analysis-cache accounting (AnalysisManager).
  uint64_t AnalysisHits = 0;
  uint64_t AnalysisMisses = 0;
  /// Summed per-job bytecode decode accounting (interpreter tier).
  uint64_t DecodeCacheHits = 0;
  uint64_t FunctionsDecoded = 0;
  double UptimeSeconds = 0;

  double analysisHitRate() const {
    uint64_t T = AnalysisHits + AnalysisMisses;
    return T ? double(AnalysisHits) / double(T) : 0.0;
  }
  double decodeHitRate() const {
    uint64_t T = DecodeCacheHits + FunctionsDecoded;
    return T ? double(DecodeCacheHits) / double(T) : 0.0;
  }
};

class CompileServer {
public:
  explicit CompileServer(ServerOptions Opts);
  ~CompileServer();

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds the socket and starts the I/O thread and the workers.
  /// Returns false with \p Err set on socket errors.
  bool start(std::string &Err);

  /// Blocks until a shutdown request ({"op":"shutdown"} or
  /// requestShutdown()) has drained the queue and joined every thread.
  void wait();

  /// Thread-safe shutdown trigger; wait() returns once complete.
  void requestShutdown();

  bool running() const { return Running.load(); }
  ServerStats stats() const;

private:
  struct Connection;
  struct QueuedJob {
    /// Owned by the I/O thread, which keeps it until the job is answered.
    Connection *Conn = nullptr;
    uint64_t Id = 0;
    CompileJob Job;
    double EnqueuedAt = 0; ///< feeds the server.queue-wait-micros histogram
  };

  void ioLoop();
  std::string handleLine(Connection &C, const std::string &Line);
  std::string queueHeld(Connection &C);
  void workerLoop(unsigned Id);
  void runJob(const QueuedJob &QJ);
  void wake();

  ServerOptions Opts;
  int ListenFD = -1;
  int WakeFD[2] = {-1, -1}; ///< wake() writes [1]; the I/O thread polls [0]
  double StartedAt = 0;
  std::atomic<bool> Running{false};

  /// Guards the queue, the finished jobs' response lines (Done) and
  /// Stopping. Each change the I/O thread waits for is followed by a
  /// wake(), so its poll needs no timeout.
  std::mutex QueueMu;
  std::condition_variable QueueNotEmpty;
  std::deque<QueuedJob> Queue;
  std::vector<std::pair<Connection *, std::string>> Done;
  bool Stopping = false;

  JobCache Cache;

  mutable std::mutex StatsMu;
  ServerStats Stats;

  std::thread IOThread;
  std::vector<std::thread> Workers;
};

/// Convenience for `srpc --serve`: start, print one "listening" line,
/// block until shutdown, unlink the socket. Returns a process exit code.
int serveForever(const ServerOptions &Opts);

} // namespace server
} // namespace srp

#endif // SRP_SERVER_SERVER_H
