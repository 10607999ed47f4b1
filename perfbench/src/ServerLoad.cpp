//===- perfbench/src/ServerLoad.cpp - Compile-server load generator -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ServerLoad.h"
#include "support/JSON.h"
#include "support/Timer.h"
#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <thread>

using namespace srp;
using namespace srp::perfbench;

namespace {

/// The report's `counts` and `pressure` sections as one small JSON
/// object, or "" when the report lacks them.
std::string countsText(const std::string &Report) {
  std::string Out = "{";
  for (const char *Key : {"\"counts\": {", "\"pressure\": {"}) {
    size_t B = Report.find(Key);
    size_t E = B == std::string::npos ? B : Report.find('}', B);
    if (E == std::string::npos)
      return "";
    Out += (Out.size() > 1 ? ", " : "") + Report.substr(B, E + 1 - B);
  }
  return Out + "}";
}

/// One client's closed loop over a pass: claims the next job of \p Order
/// until the pass is exhausted.
void clientLoop(server::Client &Client, const Workload &W,
                const std::vector<CompileJob> &Jobs,
                const std::vector<size_t> &Order, std::atomic<size_t> &Next,
                ServerTraffic &Out,
                std::vector<std::string> &CountsText) {
  for (size_t I = Next++; I < Order.size(); I = Next++) {
    const size_t J = Order[I];
    server::CompileResponse Resp;
    std::string Err;
    const double T0 = monotonicSeconds();
    const bool Answered = Client.compile(Jobs[J], Resp, Err);
    Out.RttSeconds.push_back(monotonicSeconds() - T0);
    ++Out.Attempted;

    std::string Why;
    if (!Answered)
      Why = "transport error: " + Err;
    else if (!Resp.Ok)
      Why = "error response: " +
            (Resp.Errors.empty() ? std::string("?") : Resp.Errors.front());
    else
      Why = checkOracle(W.Programs[W.Jobs[J].Prog].Expected, Resp.Output,
                        Resp.ExitValue, Resp.FinalMemoryHash);
    if (Why.empty()) {
      // Each job occurs once per pass and passes are joined, so slot J is
      // never shared between the client threads.
      std::string Counts = countsText(Resp.ReportJson);
      std::string &Seen = CountsText[J];
      if (Counts.empty())
        Why = "report has no counts";
      else if (Seen.empty())
        Seen = Counts;
      else if (Seen != Counts)
        Why = "deterministic counts differ between repetitions";
    }
    if (!Why.empty()) {
      ++Out.Failed;
      if (Out.FirstFailure.empty())
        Out.FirstFailure = Jobs[J].Name + ": " + Why;
    }
  }
}

} // namespace

bool srp::perfbench::parseReportCounts(const std::string &Text,
                                       ReportCounts &Out) {
  json::Value V;
  std::string Err;
  if (!json::parse(Text, V, Err) || !V.has("counts") || !V.has("pressure"))
    return false;
  const json::Value &C = V.get("counts");
  Out.StaticAfter = C.get("static_loads_after").asInt() +
                    C.get("static_stores_after").asInt();
  Out.DynAfter = C.get("dynamic_loads_after").asInt() +
                 C.get("dynamic_stores_after").asInt();
  Out.Colors = V.get("pressure").get("colors_needed").asInt();
  return true;
}

ServerLoad::ServerLoad(const Workload &W) : W(W) {}

ServerLoad::~ServerLoad() {
  Clients.clear(); // disconnect first, so connection threads wind down
  if (Server) {
    Server->requestShutdown();
    Server->wait();
  }
}

bool ServerLoad::start(const std::string &SocketPath, std::string &Err) {
  server::ServerOptions Opts;
  Opts.SocketPath = SocketPath;
  Opts.Threads = W.ServerThreads;
  if (Opts.CacheEntries < W.Jobs.size()) {
    Err = "JobCache smaller than one round of distinct jobs";
    return false;
  }
  Server = std::make_unique<server::CompileServer>(Opts);
  if (!Server->start(Err))
    return false;
  for (unsigned I = 0; I != W.Connections; ++I) {
    Clients.push_back(std::make_unique<server::Client>());
    if (!Clients.back()->connect(SocketPath, Err))
      return false;
  }
  return true;
}

void ServerLoad::runRound(unsigned Round, uint64_t Seed,
                          ServerTraffic &Out) {
  // A leading comment per round changes the JobCache key, not the program.
  std::vector<SourceText> Sources;
  for (const Program &P : W.Programs)
    Sources.emplace_back("// round " + std::to_string(Round) + "\n" +
                         P.Source.str());
  std::vector<CompileJob> Jobs;
  for (const BenchJob &J : W.Jobs) {
    Jobs.push_back(J.Job);
    Jobs.back().Source = Sources[J.Prog];
  }
  Out.CountsText.resize(Jobs.size());

  std::mt19937_64 Rng(Seed * 1'000'003 + Round);
  for (unsigned Pass = 0; Pass != 3; ++Pass) {
    std::vector<size_t> Order(Jobs.size());
    std::iota(Order.begin(), Order.end(), size_t(0));
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::atomic<size_t> Next{0};
    std::vector<ServerTraffic> PerClient(Clients.size());
    std::vector<std::thread> Threads;
    for (size_t C = 0; C != Clients.size(); ++C)
      Threads.emplace_back([&, C] {
        clientLoop(*Clients[C], W, Jobs, Order, Next, PerClient[C],
                   Out.CountsText);
      });
    for (std::thread &T : Threads)
      T.join();
    for (const ServerTraffic &P : PerClient) {
      Out.RttSeconds.insert(Out.RttSeconds.end(), P.RttSeconds.begin(),
                            P.RttSeconds.end());
      Out.Attempted += P.Attempted;
      Out.Failed += P.Failed;
      if (Out.FirstFailure.empty())
        Out.FirstFailure = P.FirstFailure;
    }
  }
}

bool ServerLoad::query(std::string &StatsJson, std::string &Prometheus,
                       std::string &Err) {
  return !Clients.empty() && Clients.front()->requestStats(StatsJson, Err) &&
         Clients.front()->requestMetrics(Prometheus, Err);
}
