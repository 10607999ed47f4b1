//===- server/Server.cpp - Long-running compile server --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "server/Protocol.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <list>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace srp;
using namespace srp::server;

namespace {
SRP_STATISTIC(NumServerConnections, "server", "connections",
              "Client connections accepted by the compile server");
SRP_STATISTIC(NumServerJobs, "server", "jobs-submitted",
              "Compile jobs accepted by the compile server");
SRP_STATISTIC(NumServerCacheHits, "server", "cache-hits",
              "Jobs answered from the shared job cache");
SRP_STATISTIC(NumServerCacheMisses, "server", "cache-misses",
              "Jobs that required a pipeline run");
SRP_STATISTIC(NumServerBackpressure, "server", "backpressure-waits",
              "Compile jobs held back because the job queue was full");
SRP_HISTOGRAM(QueueWaitMicros, "server", "queue-wait-micros",
              "Time a job spent queued before a worker took it (us)");
SRP_HISTOGRAM(ServiceMicros, "server", "service-micros",
              "Pipeline wall time of one served job (us), cache hits "
              "excluded");
SRP_GAUGE(QueueDepth, "server", "queue-depth",
          "Jobs currently waiting in the job queue");
} // namespace

/// One accepted client. Only the I/O thread touches it; a queued job
/// carries its address, so it is closed once the client has hung up and
/// no job still owes it a response.
struct CompileServer::Connection {
  int FD = -1;
  std::string In, Out; ///< unparsed requests; unsent responses
  unsigned Owed = 0;   ///< jobs queued or running for this client
  bool HungUp = false; ///< the peer is gone: read and send nothing more
  std::optional<QueuedJob> Held; ///< a compile job that found the queue full
};

namespace {
/// The "stats" op response body.
json::Value serverStatsJson(const ServerStats &S) {
  json::Value R = json::Value::object();
  R.set("connections", json::Value::integer(int64_t(S.Connections)));
  R.set("jobs_submitted", json::Value::integer(int64_t(S.JobsSubmitted)));
  R.set("jobs_completed", json::Value::integer(int64_t(S.JobsCompleted)));
  R.set("jobs_failed", json::Value::integer(int64_t(S.JobsFailed)));
  R.set("protocol_errors", json::Value::integer(int64_t(S.ProtocolErrors)));
  R.set("backpressure_waits",
        json::Value::integer(int64_t(S.BackpressureWaits)));
  json::Value Cache = json::Value::object();
  Cache.set("hits", json::Value::integer(int64_t(S.Cache.Hits)));
  Cache.set("misses", json::Value::integer(int64_t(S.Cache.Misses)));
  Cache.set("insertions", json::Value::integer(int64_t(S.Cache.Insertions)));
  Cache.set("evictions", json::Value::integer(int64_t(S.Cache.Evictions)));
  Cache.set("hit_rate", json::Value::number(S.Cache.hitRate()));
  R.set("job_cache", std::move(Cache));
  json::Value An = json::Value::object();
  An.set("hits", json::Value::integer(int64_t(S.AnalysisHits)));
  An.set("misses", json::Value::integer(int64_t(S.AnalysisMisses)));
  An.set("hit_rate", json::Value::number(S.analysisHitRate()));
  R.set("analysis_cache", std::move(An));
  json::Value By = json::Value::object();
  By.set("decode_cache_hits",
         json::Value::integer(int64_t(S.DecodeCacheHits)));
  By.set("functions_decoded",
         json::Value::integer(int64_t(S.FunctionsDecoded)));
  By.set("hit_rate", json::Value::number(S.decodeHitRate()));
  R.set("bytecode_cache", std::move(By));
  R.set("uptime_seconds", json::Value::number(S.UptimeSeconds));
  return R;
}
} // namespace

CompileServer::CompileServer(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheEntries) {
  if (!Opts.QueueCapacity)
    Opts.QueueCapacity = 1;
}

CompileServer::~CompileServer() {
  requestShutdown();
  wait();
  for (int FD : WakeFD)
    if (FD >= 0)
      ::close(FD);
}

bool CompileServer::start(std::string &Err) {
  if (Running.load())
    return true;
  sockaddr_un Addr{};
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  if (WakeFD[0] < 0 && ::socketpair(AF_UNIX, SOCK_STREAM, 0, WakeFD) < 0) {
    Err = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  ListenFD = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (ListenFD < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Replace a stale socket file (e.g. from a crashed server); a live
  // server on the same path loses its socket, so callers pick distinct
  // paths per instance (the smoke gate and the bench do).
  ::unlink(Opts.SocketPath.c_str());
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFD, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    Err = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  if (::listen(ListenFD, 64) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  StartedAt = monotonicSeconds();
  Stopping = false;
  Running.store(true);
  IOThread = std::thread([this] { ioLoop(); });
  unsigned N = Opts.Threads ? Opts.Threads
                            : std::max(1u, std::thread::hardware_concurrency());
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  return true;
}

void CompileServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping = true;
  }
  QueueNotEmpty.notify_all();
  wake();
}

void CompileServer::wake() {
  // A full wake socket already holds a wake-up the I/O thread has not
  // taken, so a send that would block is dropped.
  ::send(WakeFD[1], "w", 1, MSG_DONTWAIT | MSG_NOSIGNAL);
}

void CompileServer::wait() {
  if (!Running.load())
    return;
  // The I/O thread returns once shutdown is requested and every queued
  // job has been answered, so the workers find the queue empty.
  IOThread.join();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  ::close(ListenFD);
  ListenFD = -1;
  ::unlink(Opts.SocketPath.c_str());
  Running.store(false);
}

ServerStats CompileServer::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ServerStats S = Stats;
  S.Cache = Cache.stats();
  S.UptimeSeconds = monotonicSeconds() - StartedAt;
  return S;
}

void CompileServer::ioLoop() {
  std::list<Connection> Conns;
  std::vector<pollfd> Polled;
  std::vector<std::pair<Connection *, std::string>> Finished;
  bool AtFdLimit = false;
  char Chunk[1 << 16];
  auto HangUp = [](Connection &C) {
    C.HungUp = true;
    C.Out.clear();
    C.Held.reset();
  };
  for (;;) {
    bool Stop;
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Finished.swap(Done);
      Stop = Stopping;
    }
    for (auto &[C, Line] : Finished) {
      --C->Owed;
      if (!C->HungUp)
        C->Out += Line;
    }
    Finished.clear();

    // One request per connection per round, so a pipelining client cannot
    // starve the others; then send each client what it will take.
    bool Busy = false;
    for (auto It = Conns.begin(); It != Conns.end();) {
      Connection &C = *It;
      std::string Reply;
      size_t NL = C.In.find('\n');
      if (C.Held) {
        Reply = queueHeld(C);
      } else if (!C.HungUp && C.Out.empty() && NL != std::string::npos) {
        std::string Line = C.In.substr(0, NL);
        C.In.erase(0, NL + 1);
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        if (!Line.empty())
          Reply = handleLine(C, Line);
      }
      if (!Reply.empty())
        C.Out += Reply + "\n";
      if (!C.HungUp && !C.Out.empty()) {
        ssize_t N = ::send(C.FD, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
        if (N >= 0)
          C.Out.erase(0, size_t(N));
        else if (errno != EAGAIN && errno != EWOULDBLOCK)
          HangUp(C);
      }
      if (C.HungUp && !C.Owed) {
        ::close(C.FD);
        It = Conns.erase(It);
        AtFdLimit = false;
        continue;
      }
      Busy |= C.Owed || !C.Out.empty();
      ++It;
    }
    if (Stop && !Busy)
      break; // every accepted job has been answered

    // A connection with a request to serve makes the next round start at
    // once; otherwise only a socket or wake() starts it.
    bool Ready = false;
    Polled.assign({{WakeFD[0], POLLIN, 0},
                   {Stop || AtFdLimit ? -1 : ListenFD, POLLIN, 0}});
    for (const Connection &C : Conns) {
      bool HasLine = C.In.find('\n') != std::string::npos;
      Ready |= !C.HungUp && !C.Held && C.Out.empty() && HasLine;
      short Events = !C.Out.empty() ? POLLOUT : C.Held || HasLine ? 0 : POLLIN;
      Polled.push_back({C.HungUp ? -1 : C.FD, Events, 0});
    }
    if (::poll(Polled.data(), Polled.size(), Ready ? 0 : -1) < 0)
      continue;
    if (Polled[0].revents)
      ::recv(WakeFD[0], Chunk, sizeof(Chunk), MSG_DONTWAIT);
    if (Polled[1].revents) {
      int FD = ::accept4(ListenFD, nullptr, nullptr, SOCK_NONBLOCK);
      if (FD >= 0) {
        Conns.emplace_back().FD = FD;
        ++NumServerConnections;
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Stats.Connections;
      } else if (errno == EMFILE || errno == ENFILE) {
        // The waiting client keeps the listener readable: leave it out of
        // the poll set until a connection closes instead of spinning.
        AtFdLimit = true;
      }
    }
    auto It = Conns.begin();
    for (size_t I = 2; I != Polled.size(); ++I, ++It) {
      if (!(Polled[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Got = ::recv(It->FD, Chunk, sizeof(Chunk), 0);
      if (Got > 0)
        It->In.append(Chunk, size_t(Got));
      else if (Got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
        HangUp(*It); // EOF or error: queued jobs' responses are dropped
    }
  }
  for (Connection &C : Conns)
    ::close(C.FD);
}

std::string CompileServer::handleLine(Connection &C, const std::string &Line) {
  json::Value Req;
  std::string Err;
  if (!json::parse(Line, Req, Err)) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    return encodeErrorResponse(0, "bad request: " + Err);
  }
  std::string Op = Req.get("op").asString("compile");

  if (Op == "ping") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("server", json::Value::string("srpc"));
    R.set("protocol", json::Value::integer(ProtocolVersion));
    R.set("pid", json::Value::integer(static_cast<int64_t>(::getpid())));
    return R.dump();
  }
  if (Op == "stats") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("stats", serverStatsJson(stats()));
    return R.dump();
  }
  if (Op == "metrics") {
    // The scrape endpoint: the whole process-global registry (counters,
    // gauges, histograms) in Prometheus text exposition format.
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("prometheus", json::Value::string(stats::metricsToPrometheusText()));
    return R.dump();
  }
  if (Op == "shutdown") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("shutting_down", json::Value::boolean(true));
    requestShutdown(); // the I/O loop sends this answer before it exits
    return R.dump();
  }
  if (Op != "compile") {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    return encodeErrorResponse(0, "unknown op '" + Op + "'");
  }

  QueuedJob QJ;
  QJ.Conn = &C;
  if (!decodeCompileRequest(Req, QJ.Job, QJ.Id, Err)) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    return encodeErrorResponse(QJ.Id, Err);
  }
  ++NumServerJobs;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.JobsSubmitted;
  }

  // Shared-cache fast path: identical (source, options) answered from
  // memory, without touching the queue or the pool.
  if (JobCache::EntryPtr E = Cache.lookup(QJ.Job)) {
    ++NumServerCacheHits;
    if (trace::enabled())
      trace::instant("server", "job-cache-hit");
    return encodeCompileResponse(QJ.Id, *E, /*CacheHit=*/true);
  }
  ++NumServerCacheMisses;

  C.Held = std::move(QJ);
  std::string Reply = queueHeld(C);
  if (C.Held) {
    ++NumServerBackpressure;
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.BackpressureWaits;
  }
  return Reply;
}

/// Moves C's held job into the queue, or answers it during shutdown. The
/// job stays held while the queue is full; a worker that takes a job from
/// a full queue wakes the I/O thread to try again.
std::string CompileServer::queueHeld(Connection &C) {
  std::unique_lock<std::mutex> Lock(QueueMu);
  if (Stopping) {
    Lock.unlock();
    uint64_t Id = C.Held->Id;
    C.Held.reset();
    return encodeErrorResponse(Id, "server shutting down");
  }
  if (Queue.size() >= Opts.QueueCapacity)
    return "";
  C.Held->EnqueuedAt = monotonicSeconds();
  Queue.push_back(std::move(*C.Held));
  QueueDepth.set(static_cast<int64_t>(Queue.size()));
  Lock.unlock();
  C.Held.reset();
  ++C.Owed;
  QueueNotEmpty.notify_one();
  return "";
}

void CompileServer::workerLoop(unsigned Id) {
  if (trace::enabled())
    trace::setThreadName("server/worker-" + std::to_string(Id));
  while (true) {
    QueuedJob QJ;
    bool WasFull = false;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueNotEmpty.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // drained: accepted jobs always get a response
      WasFull = Queue.size() >= Opts.QueueCapacity;
      QJ = std::move(Queue.front());
      Queue.pop_front();
      QueueDepth.set(static_cast<int64_t>(Queue.size()));
    }
    if (WasFull)
      wake();
    QueueWaitMicros.observeSeconds(monotonicSeconds() - QJ.EnqueuedAt);
    runJob(QJ);
  }
}

void CompileServer::runJob(const QueuedJob &QJ) {
  TraceSpan Span;
  if (trace::enabled())
    Span.begin("job", QJ.Job.Name);
  JobResult Out = runCompileJob(QJ.Job);
  Span.end();
  const PipelineResult &R = Out.Pipeline;
  // The report's telemetry is snapshotted before this job's service time
  // is recorded.
  JobCache::EntryPtr E = JobCache::makeEntry(QJ.Job, R);
  ServiceMicros.observeSeconds(R.WallSeconds);
  Cache.insert(QJ.Job, E);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.JobsCompleted;
    if (!R.Ok)
      ++Stats.JobsFailed;
    Stats.AnalysisHits += R.Analysis.Hits;
    Stats.AnalysisMisses += R.Analysis.Misses;
    Stats.DecodeCacheHits += R.RunBefore.Interp.DecodeCacheHits +
                             R.RunAfter.Interp.DecodeCacheHits;
    Stats.FunctionsDecoded += R.RunBefore.Interp.FunctionsDecoded +
                              R.RunAfter.Interp.FunctionsDecoded;
  }
  std::string Line =
      encodeCompileResponse(QJ.Id, *E, /*CacheHit=*/false) + "\n";
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Done.emplace_back(QJ.Conn, std::move(Line));
  }
  wake();
}

int srp::server::serveForever(const ServerOptions &Opts) {
  CompileServer Server(Opts);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "srpc: serving on %s (threads=%u, queue=%u, cache=%zu)\n",
               Opts.SocketPath.c_str(), Opts.Threads, Opts.QueueCapacity,
               Opts.CacheEntries);
  Server.wait();
  ServerStats S = Server.stats();
  std::fprintf(stderr,
               "srpc: served %llu jobs (%llu cache hits) over %llu "
               "connections in %.1fs\n",
               static_cast<unsigned long long>(S.JobsCompleted),
               static_cast<unsigned long long>(S.Cache.Hits),
               static_cast<unsigned long long>(S.Connections),
               S.UptimeSeconds);
  return 0;
}
