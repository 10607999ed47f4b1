//===- perfbench/src/ServerLoad.h - Compile-server load generator -*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an in-process CompileServer through its unix socket with a
/// fixed number of client connections, each a closed loop (a client sends
/// its next request only after the previous response arrived).
///
/// Traffic comes in rounds. A round submits every distinct job of the
/// workload three times, in three passes, each pass in a seed-shuffled
/// order split over the connections. Each round gives the sources a fresh
/// leading comment, so its first pass misses the server's JobCache and
/// its other two passes hit it: two thirds of the requests are hits by
/// construction, not by timing.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_SERVERLOAD_H
#define SRP_PERFBENCH_SERVERLOAD_H

#include "Bench.h"
#include "server/Client.h"
#include "server/Server.h"
#include <memory>

namespace srp::perfbench {

/// What the clients saw during some rounds.
struct ServerTraffic {
  std::vector<double> RttSeconds; ///< one per response, failures included
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;
  /// Per distinct job: the report's deterministic counts, as first seen
  /// ("" before the job's first response).
  std::vector<std::string> CountsText;
};

/// The code-quality counts of one report (its `counts` and `pressure`
/// sections).
struct ReportCounts {
  uint64_t StaticAfter = 0, DynAfter = 0, Colors = 0;
};
bool parseReportCounts(const std::string &ReportJson, ReportCounts &Out);

class ServerLoad {
public:
  /// \p W must outlive this object.
  explicit ServerLoad(const Workload &W);
  ~ServerLoad();
  ServerLoad(const ServerLoad &) = delete;
  ServerLoad &operator=(const ServerLoad &) = delete;

  /// Starts the server on \p SocketPath and connects the clients.
  bool start(const std::string &SocketPath, std::string &Err);

  /// Runs round \p Round (its three passes) and adds what the clients saw
  /// to \p Out.
  void runRound(unsigned Round, uint64_t Seed, ServerTraffic &Out);

  /// The server's `stats` (JSON) and `metrics` (Prometheus text) ops.
  bool query(std::string &StatsJson, std::string &Prometheus,
             std::string &Err);

private:
  const Workload &W;
  std::unique_ptr<server::CompileServer> Server;
  std::vector<std::unique_ptr<server::Client>> Clients;
};

} // namespace srp::perfbench

#endif // SRP_PERFBENCH_SERVERLOAD_H
