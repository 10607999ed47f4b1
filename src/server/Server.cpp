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
              "Times a connection reader blocked on a full job queue");
SRP_HISTOGRAM(QueueWaitMicros, "server", "queue-wait-micros",
              "Time a job spent queued before a worker took it (us)");
SRP_HISTOGRAM(ServiceMicros, "server", "service-micros",
              "Pipeline wall time of one served job (us), cache hits "
              "excluded");
SRP_GAUGE(QueueDepth, "server", "queue-depth",
          "Jobs currently waiting in the job queue");
} // namespace

/// One accepted client. Shared between its reader thread and any queued
/// jobs still owing it a response; writes are serialised by WriteMu.
struct CompileServer::Connection {
  int FD = -1;
  std::mutex WriteMu;
  std::atomic<bool> Closed{false};

  ~Connection() {
    if (FD >= 0)
      ::close(FD);
  }
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
}

bool CompileServer::start(std::string &Err) {
  if (Running.load())
    return true;
  sockaddr_un Addr{};
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  ListenFD = ::socket(AF_UNIX, SOCK_STREAM, 0);
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
  Stopping.store(false);
  Running.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  unsigned N = Opts.Threads ? Opts.Threads
                            : std::max(1u, std::thread::hardware_concurrency());
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  return true;
}

void CompileServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping.store(true);
  }
  QueueNotEmpty.notify_all();
  QueueNotFull.notify_all();
  StopRequested.notify_all();
}

void CompileServer::wait() {
  if (!Running.load())
    return;
  {
    std::unique_lock<std::mutex> Lock(QueueMu);
    StopRequested.wait(Lock, [&] { return Stopping.load(); });
  }
  // The accept loop and the readers poll their fds with a timeout and
  // re-check Stopping, so a blocked accept/read never outlives the flag
  // by more than one tick; the workers drain the queue first.
  AcceptThread.join();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  std::list<Reader> Left;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Left.swap(Readers);
  }
  for (Reader &R : Left)
    R.Thread.join();
  if (ListenFD >= 0) {
    ::close(ListenFD);
    ListenFD = -1;
  }
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

void CompileServer::acceptLoop() {
  while (!Stopping.load()) {
    reapReaders();
    pollfd PFD{ListenFD, POLLIN, 0};
    int N = ::poll(&PFD, 1, 200);
    if (N <= 0)
      continue;
    int FD = ::accept(ListenFD, nullptr, nullptr);
    if (FD < 0)
      continue;
    auto Conn = std::make_shared<Connection>();
    Conn->FD = FD;
    ++NumServerConnections;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Connections;
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "srpc-server: connection accepted\n");
    std::lock_guard<std::mutex> Lock(ConnMu);
    Reader &R = Readers.emplace_back();
    R.Thread = std::thread([this, &R, Conn = std::move(Conn)]() mutable {
      // The socket closes when the last holder lets go: this reader, or
      // the last queued job that still owes the client a response.
      connectionLoop(std::move(Conn));
      std::lock_guard<std::mutex> Lock(ConnMu);
      R.Done = true;
    });
  }
}

void CompileServer::reapReaders() {
  std::lock_guard<std::mutex> Lock(ConnMu);
  Readers.remove_if([](Reader &R) {
    if (R.Done)
      R.Thread.join(); // it has nothing left to do but return
    return R.Done;
  });
}

void CompileServer::connectionLoop(std::shared_ptr<Connection> Conn) {
  std::string Buf;
  char Chunk[4096];
  while (!Stopping.load() && !Conn->Closed.load()) {
    pollfd PFD{Conn->FD, POLLIN, 0};
    int N = ::poll(&PFD, 1, 200);
    if (N <= 0)
      continue;
    ssize_t Got = ::recv(Conn->FD, Chunk, sizeof(Chunk), 0);
    if (Got <= 0) {
      // EOF or error: the peer is gone. Queued jobs still holding the
      // connection will find Closed set and skip their writes.
      Conn->Closed.store(true);
      break;
    }
    Buf.append(Chunk, static_cast<size_t>(Got));
    size_t Start = 0;
    for (size_t NL = Buf.find('\n', Start); NL != std::string::npos;
         NL = Buf.find('\n', Start)) {
      std::string Line = Buf.substr(Start, NL - Start);
      Start = NL + 1;
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        handleLine(Conn, Line);
    }
    Buf.erase(0, Start);
  }
}

void CompileServer::handleLine(const std::shared_ptr<Connection> &Conn,
                               const std::string &Line) {
  json::Value Req;
  std::string Err;
  if (!json::parse(Line, Req, Err)) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    respond(Conn, encodeErrorResponse(0, "bad request: " + Err));
    return;
  }
  std::string Op = Req.get("op").asString("compile");

  if (Op == "ping") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("server", json::Value::string("srpc"));
    R.set("protocol", json::Value::integer(ProtocolVersion));
    R.set("pid", json::Value::integer(static_cast<int64_t>(::getpid())));
    respond(Conn, R.dump());
    return;
  }
  if (Op == "stats") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("stats", serverStatsJson(stats()));
    respond(Conn, R.dump());
    return;
  }
  if (Op == "metrics") {
    // The scrape endpoint: the whole process-global registry (counters,
    // gauges, histograms) in Prometheus text exposition format.
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("prometheus", json::Value::string(stats::metricsToPrometheusText()));
    respond(Conn, R.dump());
    return;
  }
  if (Op == "shutdown") {
    json::Value R = json::Value::object();
    R.set("ok", json::Value::boolean(true));
    R.set("shutting_down", json::Value::boolean(true));
    respond(Conn, R.dump());
    if (Opts.Verbose)
      std::fprintf(stderr, "srpc-server: shutdown requested\n");
    requestShutdown();
    return;
  }
  if (Op != "compile") {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    respond(Conn, encodeErrorResponse(0, "unknown op '" + Op + "'"));
    return;
  }

  QueuedJob QJ;
  QJ.Conn = Conn;
  if (!decodeCompileRequest(Req, QJ.Job, QJ.Id, Err)) {
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.ProtocolErrors;
    }
    respond(Conn, encodeErrorResponse(QJ.Id, Err));
    return;
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
    respond(Conn, encodeCompileResponse(QJ.Id, *E, /*CacheHit=*/true));
    return;
  }
  ++NumServerCacheMisses;

  uint64_t Id = QJ.Id;
  if (!enqueue(std::move(QJ)))
    respond(Conn, encodeErrorResponse(Id, "server shutting down"));
}

bool CompileServer::enqueue(QueuedJob QJ) {
  std::unique_lock<std::mutex> Lock(QueueMu);
  if (Queue.size() >= Opts.QueueCapacity) {
    ++NumServerBackpressure;
    std::lock_guard<std::mutex> SLock(StatsMu);
    ++Stats.BackpressureWaits;
  }
  QueueNotFull.wait(Lock, [&] {
    return Stopping.load() || Queue.size() < Opts.QueueCapacity;
  });
  if (Stopping.load())
    return false;
  QJ.EnqueuedAt = monotonicSeconds();
  Queue.push_back(std::move(QJ));
  QueueDepth.set(static_cast<int64_t>(Queue.size()));
  QueueNotEmpty.notify_one();
  return true;
}

void CompileServer::workerLoop(unsigned Id) {
  if (trace::enabled())
    trace::setThreadName("server/worker-" + std::to_string(Id));
  while (true) {
    QueuedJob QJ;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueNotEmpty.wait(Lock,
                         [&] { return Stopping.load() || !Queue.empty(); });
      if (Queue.empty())
        return; // drained: accepted jobs always get a response
      QJ = std::move(Queue.front());
      Queue.pop_front();
      QueueDepth.set(static_cast<int64_t>(Queue.size()));
    }
    QueueNotFull.notify_one();
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
  ServiceMicros.observeSeconds(R.WallSeconds);
  JobCache::EntryPtr E = JobCache::makeEntry(QJ.Job, R, Out.ReportJson);
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
  if (Opts.Verbose)
    std::fprintf(stderr, "srpc-server: job '%s' %s\n", QJ.Job.Name.c_str(),
                 R.Ok ? "ok" : "FAILED");
  respond(QJ.Conn, encodeCompileResponse(QJ.Id, *E, /*CacheHit=*/false));
}

void CompileServer::respond(const std::shared_ptr<Connection> &Conn,
                            const std::string &Line) {
  if (!Conn || Conn->Closed.load())
    return;
  std::lock_guard<std::mutex> Lock(Conn->WriteMu);
  std::string Out = Line + "\n";
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t N = ::send(Conn->FD, Out.data() + Sent, Out.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      Conn->Closed.store(true);
      return;
    }
    Sent += static_cast<size_t>(N);
  }
}

int srp::server::serveForever(const ServerOptions &Opts, bool Quiet) {
  CompileServer Server(Opts);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Quiet)
    std::fprintf(stderr,
                 "srpc: serving on %s (threads=%u, queue=%u, cache=%zu)\n",
                 Opts.SocketPath.c_str(), Opts.Threads, Opts.QueueCapacity,
                 Opts.CacheEntries);
  Server.wait();
  if (!Quiet) {
    ServerStats S = Server.stats();
    std::fprintf(stderr,
                 "srpc: served %llu jobs (%llu cache hits) over %llu "
                 "connections in %.1fs\n",
                 static_cast<unsigned long long>(S.JobsCompleted),
                 static_cast<unsigned long long>(S.Cache.Hits),
                 static_cast<unsigned long long>(S.Connections),
                 S.UptimeSeconds);
  }
  return 0;
}
