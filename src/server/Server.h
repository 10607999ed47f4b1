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
///   connection readers --> bounded job queue --> N workers
///        (backpressure)        (FIFO)          (runCompileJob, one job
///                                               each, one response per
///                                               job as it finishes)
///
/// The bounded queue is the backpressure mechanism: when it is full,
/// connection readers block before reading the next request, so a
/// flooding client is throttled at its own socket instead of ballooning
/// server memory.
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
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  /// Bounded queue capacity; readers block when it is full.
  unsigned QueueCapacity = 64;
  /// JobCache capacity (finished results kept for resubmission).
  size_t CacheEntries = 128;
  /// Log connection/job lines to stderr.
  bool Verbose = false;
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
  uint64_t BackpressureWaits = 0; ///< times a reader blocked on a full queue
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

  /// Binds the socket and starts the accept thread and the workers.
  /// Returns false with \p Err set on socket errors.
  bool start(std::string &Err);

  /// Blocks until a shutdown request ({"op":"shutdown"} or
  /// requestShutdown()) has drained the queue and joined every thread.
  void wait();

  /// Thread-safe shutdown trigger; wait() returns once complete.
  void requestShutdown();

  bool running() const { return Running.load(); }
  const ServerOptions &options() const { return Opts; }
  ServerStats stats() const;

private:
  struct Connection;
  struct QueuedJob {
    std::shared_ptr<Connection> Conn;
    uint64_t Id = 0;
    CompileJob Job;
    double EnqueuedAt = 0; ///< feeds the server.queue-wait-micros histogram
  };
  /// A connection's reader thread; Done is set under ConnMu once the
  /// reader has let go of its connection, so the accept loop can join it.
  struct Reader {
    std::thread Thread;
    bool Done = false;
  };

  void acceptLoop();
  void connectionLoop(std::shared_ptr<Connection> Conn);
  void reapReaders();
  void workerLoop(unsigned Id);
  void runJob(const QueuedJob &QJ);
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line);
  bool enqueue(QueuedJob QJ); ///< blocks on full queue; false on shutdown
  void respond(const std::shared_ptr<Connection> &Conn,
               const std::string &Line);

  ServerOptions Opts;
  int ListenFD = -1;
  double StartedAt = 0;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};

  /// Stopping is set under QueueMu, so none of these conditions can miss
  /// it. Only wait() sleeps on StopRequested: a worker or a reader that
  /// shared it could absorb the notify meant for the other.
  std::mutex QueueMu;
  std::condition_variable QueueNotFull, QueueNotEmpty, StopRequested;
  std::deque<QueuedJob> Queue;

  JobCache Cache;

  mutable std::mutex StatsMu;
  ServerStats Stats;

  std::thread AcceptThread;
  std::vector<std::thread> Workers;
  std::mutex ConnMu;
  std::list<Reader> Readers;
};

/// Convenience for `srpc --serve`: start, print one "listening" line
/// (unless quiet), block until shutdown, unlink the socket. Returns a
/// process exit code.
int serveForever(const ServerOptions &Opts, bool Quiet = false);

} // namespace server
} // namespace srp

#endif // SRP_SERVER_SERVER_H
