//===- bench/bench_paper.cpp - The paper's tables and ablations -----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One driver for the paper's evaluation: §5's Tables 1-3, Ablations A-D
/// and the compile-time tools around them, one subcommand each (--help
/// lists them). With no subcommand it prints every paper table and
/// ablation. `--json` prints BENCH_paper.json; `--check=FILE` also
/// compares every count in FILE's "counts" section with this run's.
///
/// Every table reads one memo of pipeline results keyed by workload and
/// variant, so each job runs once per process. Each directional claim a
/// table prints is checked, and a false one makes the exit status 1.
///
//===----------------------------------------------------------------------===//

#include "WorkloadUtil.h"
#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "regalloc/Coloring.h"
#include "ssa/SSAUpdater.h"
#include "support/JSON.h"
#include "support/Options.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace srp;
using namespace srp::bench;

namespace {

using ull = unsigned long long;

unsigned Threads = 0;   ///< --threads; 0 = every core (matrix text: sweep)
bool StatsJson = false; ///< --stats-json (matrix)
unsigned Failures = 0;  ///< failed pipeline jobs
bool ClaimsHold = true;

/// Prints a directional claim with its verdict; a false one fails the run.
void claim(bool Holds, const std::string &Text) {
  std::printf("%s: %s\n", Holds ? "holds" : "FAILS", Text.c_str());
  ClaimsHold &= Holds;
}

void noteFailure(const std::string &Job, const PipelineResult &R) {
  ++Failures;
  std::fprintf(stderr, "FAILED %s: %s\n", Job.c_str(),
               R.Errors.empty() ? "?" : R.Errors[0].c_str());
}

std::vector<Workload> allWorkloads() {
  std::vector<Workload> All = paperWorkloads();
  All.insert(All.end(), extraWorkloads().begin(), extraWorkloads().end());
  return All;
}

/// The configurations the tables compare: the six promotion modes in
/// allPromotionModes() order, then paper mode with all webs of a variable
/// merged into one unit, then paper mode with DirectAliasedStores.
enum Variant : unsigned {
  None, Paper, NoProfile, Baseline, Superblock, MemOpt, Whole, Direct,
  NumVariants
};
const char *const VariantNames[NumVariants] = {
    "none", "paper", "noprofile", "baseline", "superblock", "memopt",
    "whole", "direct"};

PipelineOptions variantOptions(unsigned V) {
  PipelineOptions O;
  O.Mode = V < Whole ? allPromotionModes()[V] : PromotionMode::Paper;
  O.Promo.WebGranularity = V != Whole;
  O.Promo.DirectAliasedStores = V == Direct;
  return O;
}

/// The memo: one pipeline run per (workload, variant), made on first use.
const PipelineResult &result(const Workload &W, unsigned V) {
  static std::map<std::pair<std::string, unsigned>, PipelineResult> Memo;
  auto [It, New] = Memo.try_emplace({W.Name, V});
  if (New) {
    It->second =
        PipelineBuilder().options(variantOptions(V)).run(loadWorkload(W.File));
    if (!It->second.Ok)
      noteFailure(std::string(W.Name) + "/" + VariantNames[V], It->second);
  }
  return It->second;
}

uint64_t memopsBefore(const Workload &W) {
  return result(W, Paper).RunBefore.Counts.memOps();
}
uint64_t memopsAfter(const Workload &W, unsigned V) {
  return result(W, V).RunAfter.Counts.memOps();
}
/// Dynamic memops after \p V summed over all workloads; None leaves every
/// program as it was before promotion.
uint64_t suite(unsigned V) {
  uint64_t Sum = 0;
  for (const Workload &W : allWorkloads())
    Sum += memopsAfter(W, V);
  return Sum;
}

struct Timing {
  double Min = 0, Median = 0;
};
Timing minMedian(std::vector<double> Secs) {
  std::sort(Secs.begin(), Secs.end());
  return {Secs.front(), Secs[Secs.size() / 2]};
}

//===-- Tables 1-3 --------------------------------------------------------===//

// Paper Table 1's % improvement of loads, stores and total (negative =
// growth), in paperWorkloads() order; gcc stands in for the "sc" row.
const double PaperTable1[][3] = {
    {-14.3, 2.5, -9.1}, {-3.6, -4.2, -3.9}, {-5.8, 2.9, -2.1},
    {-5.6, -0.3, -2.9}, {-0.8, 4.7, 1.3},   {-11.3, 7.3, -6.6},
    {1.0, 1.4, 1.2},    {-5.0, 0.9, -2.8}};

void table1() {
  std::printf("Table 1: Effect of register promotion on static counts of "
              "memory operations\n");
  std::printf("(paper %% in parentheses; negative = static count grew)\n\n");
  std::printf("%-9s %7s %7s %7s | %7s %7s %7s | %7s %7s %7s\n", "bench",
              "ld-bef", "ld-aft", "ld%", "st-bef", "st-aft", "st%", "tot-bef",
              "tot-aft", "tot%");
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    const Workload &W = paperWorkloads()[I];
    const StaticCounts &B = result(W, Paper).StaticBefore,
                       &A = result(W, Paper).StaticAfter;
    std::printf("%-9s %7u %7u %6.1f%% | %7u %7u %6.1f%% | %7u %7u %6.1f%%\n",
                W.Name, B.Loads, A.Loads, improvementPct(B.Loads, A.Loads),
                B.Stores, A.Stores, improvementPct(B.Stores, A.Stores),
                B.total(), A.total(), improvementPct(B.total(), A.total()));
    std::printf("%-9s %23s (%.1f%%) %18s (%.1f%%) %20s (%.1f%%)\n", "",
                "paper:", PaperTable1[I][0], "", PaperTable1[I][1], "",
                PaperTable1[I][2]);
  }
}

// Paper Table 2's dynamic load improvement (%). The compress column is
// partly unreadable in the scan; 9.0 is a midrange stand-in.
const double PaperTable2[] = {25.5, 16.5, 25.7, 13.1, 8.0, 4.9, 9.0, 0.2};

void table2() {
  std::printf("Table 2: Effect of register promotion on dynamic counts of "
              "memory operations\n\n");
  std::printf("%-9s %12s %12s %8s %10s | %12s %12s %8s\n", "bench", "mem-bef",
              "mem-aft", "imp%", "paper-ld%", "ld-bef", "ld-aft", "ld%");
  uint64_t SumBefore = 0, SumAfter = 0;
  bool NeverWorse = true;
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    const Workload &W = paperWorkloads()[I];
    const DynamicCounts &B = result(W, Paper).RunBefore.Counts,
                        &A = result(W, Paper).RunAfter.Counts;
    SumBefore += B.memOps();
    SumAfter += A.memOps();
    NeverWorse &= A.memOps() <= B.memOps();
    std::printf("%-9s %12llu %12llu %7.1f%% %9.1f%% | %12llu %12llu %7.1f%%\n",
                W.Name, ull(B.memOps()), ull(A.memOps()),
                improvementPct(B.memOps(), A.memOps()), PaperTable2[I],
                ull(B.SingletonLoads), ull(A.SingletonLoads),
                improvementPct(B.SingletonLoads, A.SingletonLoads));
  }
  std::printf("\nsuite:    %12llu %12llu %7.1f%%  (paper headline: ~12%% "
              "of scalar memops removed)\n",
              ull(SumBefore), ull(SumAfter),
              improvementPct(SumBefore, SumAfter));
  claim(NeverWorse, "promotion never adds dynamic memops to a workload");
}

struct RoutineRow {
  std::string Name;
  PressureReport Before, After;
};

/// Table 3's routines of \p W: those whose value count promotion changed
/// (the paper selected "routines that had opportunities for promotion").
std::vector<RoutineRow> transformedRoutines(const Workload &W) {
  auto measureAll = [](const PipelineResult &R) {
    std::map<std::string, PressureReport> Out;
    if (R.M)
      for (const auto &F : R.M->functions())
        Out[F->name()] = measureRegisterPressure(*F);
    return Out;
  };
  std::map<std::string, PressureReport> After = measureAll(result(W, Paper));
  std::vector<RoutineRow> Rows;
  for (const auto &[Name, B] : measureAll(result(W, None)))
    if (After[Name].NumValues != B.NumValues)
      Rows.push_back({Name, B, After[Name]});
  return Rows;
}

void table3() {
  std::printf("Table 3: Effect of register promotion on register pressure\n");
  std::printf("(colors needed to color the register interference graph; "
              "routines with promotion opportunities)\n\n");
  std::printf("%-9s %-18s %10s %10s %8s %9s %9s\n", "bench", "routine",
              "col-bef", "col-aft", "delta", "live-bef", "live-aft");
  std::vector<std::pair<unsigned, unsigned>> Colors; // before, after
  for (const Workload &W : paperWorkloads())
    for (const RoutineRow &R : transformedRoutines(W)) {
      const unsigned B = R.Before.ColorsNeeded, A = R.After.ColorsNeeded;
      std::printf("%-9s %-18s %10u %10u %+8d %9u %9u\n", W.Name,
                  R.Name.c_str(), B, A, int(A) - int(B), R.Before.MaxLive,
                  R.After.MaxLive);
      Colors.push_back({B, A});
    }
  // "More pronounced on routines that require smaller numbers of colors",
  // as the mean relative rise below the median color count and above it.
  std::sort(Colors.begin(), Colors.end());
  const unsigned Median = Colors.empty() ? 0 : Colors[Colors.size() / 2].first;
  unsigned Raised = 0, Lowered = 0, N[2] = {0, 0};
  double Rise[2] = {0, 0}; // [0] at or above the median, [1] below
  for (const auto &[B, A] : Colors) {
    Raised += A > B;
    Lowered += A < B;
    Rise[B < Median] += (double(A) - B) / std::max(1u, B);
    ++N[B < Median];
  }
  std::printf("\n%u of %zu transformed routines need more colors after "
              "promotion, %u need fewer\n",
              Raised, Colors.size(), Lowered);
  claim(Raised > Lowered, "promotion raises register pressure (paper)");
  for (unsigned S = 0; S != 2; ++S)
    Rise[S] = N[S] ? 100 * Rise[S] / N[S] : 0;
  claim(Rise[1] > Rise[0],
        "the mean rise is larger below " + std::to_string(Median) +
            " colors (" + std::to_string(int(Rise[1] + 0.5)) +
            "%) than at or above (" + std::to_string(int(Rise[0] + 0.5)) +
            "%) (paper)");
}

//===-- Ablations A-D -----------------------------------------------------===//

void webs() {
  std::printf("Ablation A: SSA-web granularity vs whole-variable units\n\n");
  std::printf("%-9s %12s %12s %12s | %9s %9s\n", "bench", "mem-none",
              "mem-webs", "mem-whole", "webs-prom", "whole-prom");
  bool NeverWorse = true;
  for (const Workload &W : allWorkloads()) {
    NeverWorse &= memopsAfter(W, Paper) <= memopsAfter(W, Whole);
    std::printf("%-9s %12llu %12llu %12llu | %9u %9u\n", W.Name,
                ull(memopsBefore(W)), ull(memopsAfter(W, Paper)),
                ull(memopsAfter(W, Whole)), result(W, Paper).Promo.WebsPromoted,
                result(W, Whole).Promo.WebsPromoted);
  }
  std::printf("\nsuite memops:  webs=%llu  whole-variable=%llu\n",
              ull(suite(Paper)), ull(suite(Whole)));
  claim(NeverWorse, "per-web units leave no more memops than whole-variable "
                    "units on any workload");
}

void baseline() {
  std::printf("Ablation B: paper promoter vs loop baseline vs superblock "
              "vs static-profile vs direct-stores\n\n");
  std::printf("%-9s %11s %11s %11s %11s %11s %11s | %7s %7s\n", "bench",
              "none", "baseline", "superblk", "no-profile", "paper",
              "direct", "base%", "paper%");
  const unsigned Cols[] = {Baseline, Superblock, NoProfile, Paper, Direct};
  for (const Workload &W : allWorkloads()) {
    std::printf("%-9s %11llu", W.Name, ull(memopsBefore(W)));
    for (unsigned V : Cols)
      std::printf(" %11llu", ull(memopsAfter(W, V)));
    std::printf(" | %6.1f%% %6.1f%%\n",
                improvementPct(memopsBefore(W), memopsAfter(W, Baseline)),
                improvementPct(memopsBefore(W), memopsAfter(W, Paper)));
  }
  std::printf("\nsuite: none=%llu", ull(suite(None)));
  for (unsigned V : Cols)
    std::printf(" %s=%llu (%.1f%%)",
                V == NoProfile ? "no-profile" : VariantNames[V],
                ull(suite(V)), improvementPct(suite(None), suite(V)));
  std::printf("\n");
  claim(suite(Paper) <= suite(Baseline),
        "the paper promoter leaves no more memops than the loop baseline, "
        "suite-wide");
}

/// Ablation C's input: \p N stacked diamonds. The global x is defined at
/// entry and read in every join block; one store clone goes into each
/// left arm, so the number of clones m grows with n.
struct UpdateScenario {
  std::unique_ptr<Module> M = std::make_unique<Module>("bench");
  MemoryObject *X = M->createGlobal("x", 0);
  Function *F = M->createFunction("f", Type::Void);
  MemoryName *X0 = nullptr;
  std::vector<MemoryName *> Clones;

  explicit UpdateScenario(unsigned N) {
    BasicBlock *Cur = F->createBlock("entry");
    StoreInst *St0 = IRBuilder(Cur).store(X, M->constant(1));
    F->setEntryMemoryName(X, F->createMemoryName(X));
    X0 = F->createMemoryName(X);
    St0->addMemDef(X0);
    for (unsigned I = 0; I != N; ++I) {
      BasicBlock *L = F->createBlock(), *R = F->createBlock(),
                 *J = F->createBlock();
      IRBuilder(Cur).condBr(M->constant(1), L, R);
      Clones.push_back(F->createMemoryName(X));
      IRBuilder(L).store(X, M->constant(2))->addMemDef(Clones.back());
      IRBuilder(L).br(J);
      IRBuilder(R).br(J);
      IRBuilder BJ(J);
      LoadInst *Ld = BJ.load(X);
      Ld->addMemOperand(X0);
      BJ.print(Ld);
      Cur = J;
    }
    IRBuilder(Cur).ret()->addMemOperand(X0);
  }
};

struct UpdateRow {
  unsigned N;
  SSAUpdateStats Stats[2]; ///< [0] batch, [1] per-definition
  Timing Time[2];
};

/// Both updaters at n = 8, 64 and 256, 7 timed runs each; computed once.
const std::vector<UpdateRow> &updateRows() {
  static const std::vector<UpdateRow> Rows = [] {
    std::vector<UpdateRow> Rs;
    for (unsigned N : {8u, 64u, 256u}) {
      UpdateRow Row{N, {}, {}};
      for (unsigned PerDef = 0; PerDef != 2; ++PerDef) {
        std::vector<double> Secs;
        for (unsigned Rep = 0; Rep != 7; ++Rep) {
          UpdateScenario S(N);
          DominatorTree DT(*S.F);
          const double T0 = monotonicSeconds();
          Row.Stats[PerDef] =
              PerDef ? updateSSAPerClonedDef(*S.F, DT, {S.X0}, S.Clones)
                     : updateSSAForClonedResources(*S.F, DT, {S.X0}, S.Clones);
          Secs.push_back(monotonicSeconds() - T0);
        }
        Row.Time[PerDef] = minMedian(Secs);
      }
      Rs.push_back(Row);
    }
    return Rs;
  }();
  return Rows;
}

void ssaUpdate() {
  std::printf("Ablation C: batch SSA update vs per-definition update "
              "(n diamonds, m = n cloned stores; us, 7 runs)\n\n");
  std::printf("%5s | %9s %9s %5s %8s | %9s %9s %5s %8s\n", "n", "batch-min",
              "batch-med", "idf", "renamed", "pdef-min", "pdef-med", "idf",
              "renamed");
  bool OneIDF = true, Linear = true, Superlinear = true;
  const UpdateRow *Prev = nullptr;
  for (const UpdateRow &R : updateRows()) {
    std::printf("%5u", R.N);
    for (unsigned P = 0; P != 2; ++P)
      std::printf(" | %9.1f %9.1f %5u %8u", R.Time[P].Min * 1e6,
                  R.Time[P].Median * 1e6, R.Stats[P].IDFComputations,
                  R.Stats[P].UsesRenamed);
    std::printf("\n");
    OneIDF &= R.Stats[0].IDFComputations == 1 &&
              R.Stats[1].IDFComputations == R.N;
    // Renamed uses per clone: flat for linear work, growing for more.
    if (Prev) {
      Linear &= double(R.Stats[0].UsesRenamed) / R.N <=
                double(Prev->Stats[0].UsesRenamed) / Prev->N;
      Superlinear &= double(R.Stats[1].UsesRenamed) / R.N >
                     double(Prev->Stats[1].UsesRenamed) / Prev->N;
    }
    Prev = &R;
  }
  std::printf("\n");
  claim(OneIDF, "the batch update computes one IDF per update, the "
                "per-definition update one per clone");
  claim(Linear, "batch renames per clone do not grow with n (linear)");
  claim(Superlinear, "per-definition renames per clone grow with n "
                     "(superlinear)");
}

void memopt() {
  std::printf("Ablation D: classic memory-SSA RLE+DSE vs register "
              "promotion\n\n");
  std::printf("%-9s %12s %12s %12s | %8s %8s\n", "bench", "none", "rle+dse",
              "promotion", "rle%", "promo%");
  std::string Exceptions;
  for (const Workload &W : allWorkloads()) {
    const uint64_t NoneN = memopsBefore(W), Opt = memopsAfter(W, MemOpt),
                   Promo = memopsAfter(W, Paper);
    if (Opt < Promo)
      Exceptions += std::string(Exceptions.empty() ? "" : ", ") + W.Name +
                    " (" + std::to_string(Opt) + " vs " +
                    std::to_string(Promo) + ")";
    std::printf("%-9s %12llu %12llu %12llu | %7.1f%% %7.1f%%\n", W.Name,
                ull(NoneN), ull(Opt), ull(Promo), improvementPct(NoneN, Opt),
                improvementPct(NoneN, Promo));
  }
  std::printf("\nsuite: none=%llu rle+dse=%llu (%.1f%%) promotion=%llu "
              "(%.1f%%)\n",
              ull(suite(None)), ull(suite(MemOpt)),
              improvementPct(suite(None), suite(MemOpt)), ull(suite(Paper)),
              improvementPct(suite(None), suite(Paper)));
  claim(suite(Paper) < suite(MemOpt),
        "promotion leaves fewer memops than RLE+DSE, suite-wide");
  std::printf("RLE+DSE leaves fewer memops than promotion on: %s\n",
              Exceptions.empty() ? "no workload" : Exceptions.c_str());
}

//===-- Compile-time tools ------------------------------------------------===//

void passTime() {
  std::printf("Pass time: paper mode, median ms of 7 runs\n\n");
  for (const Workload &W : paperWorkloads()) {
    std::vector<std::vector<double>> PerPass;
    std::vector<double> Job;
    PipelineResult R;
    for (unsigned Rep = 0; Rep != 7; ++Rep) {
      R = PipelineBuilder().mode(PromotionMode::Paper).run(
          loadWorkload(W.File));
      if (!R.Ok)
        noteFailure(std::string(W.Name) + "/paper", R);
      PerPass.resize(R.Passes.size());
      for (size_t P = 0; P != R.Passes.size(); ++P)
        PerPass[P].push_back(R.Passes[P].WallSeconds);
      Job.push_back(R.WallSeconds);
    }
    if (&W == &paperWorkloads().front()) {
      std::printf("%-9s", "bench");
      for (const PassRecord &P : R.Passes)
        std::printf(" %12s", P.Name.c_str());
      std::printf(" | %8s %8s\n", "job", "job-min");
    }
    std::printf("%-9s", W.Name);
    for (const std::vector<double> &S : PerPass)
      std::printf(" %12.3f", minMedian(S).Median * 1e3);
    std::printf(" | %8.3f %8.3f\n", minMedian(Job).Median * 1e3,
                minMedian(Job).Min * 1e3);
  }
}

struct CacheTotals {
  AnalysisCacheStats Cached, Uncached;
  double CachedSec = 0, UncachedSec = 0;
};

/// The six-mode matrix's analysis accounting: cached from the memo, then
/// every job once more with the cache force-disabled.
const CacheTotals &cacheTotals() {
  static const CacheTotals T = [] {
    CacheTotals T;
    for (const Workload &W : allWorkloads())
      for (unsigned V = None; V != Whole; ++V) {
        const PipelineResult &C = result(W, V);
        PipelineResult U = PipelineBuilder()
                               .options(variantOptions(V))
                               .disableAnalysisCache(true)
                               .run(loadWorkload(W.File));
        if (!U.Ok)
          noteFailure(std::string(W.Name) + "/" + VariantNames[V] +
                          " (uncached)",
                      U);
        T.Cached += C.Analysis;
        T.Uncached += U.Analysis;
        T.CachedSec += C.WallSeconds;
        T.UncachedSec += U.WallSeconds;
      }
    return T;
  }();
  return T;
}

void analysisCache() {
  const CacheTotals &T = cacheTotals();
  std::printf("analysis cache payoff: 54 jobs (9 workloads x 6 modes)\n\n");
  std::printf("  %-16s %12s %12s %8s\n", "builds", "cached", "uncached",
              "saved");
  for (unsigned I = 0; I != NumAnalysisKinds; ++I) {
    const uint64_t C = T.Cached.Builds[I], U = T.Uncached.Builds[I];
    std::printf("  %-16s %12llu %12llu %7.1f%%\n",
                analysisKindName(AnalysisKind(I)), ull(C), ull(U),
                improvementPct(U, C));
  }
  const uint64_t Requests = T.Cached.Hits + T.Cached.Misses;
  std::printf("\n  requests %llu, hits %llu (%.1f%%), invalidations %llu\n",
              ull(Requests), ull(T.Cached.Hits),
              100.0 * double(T.Cached.Hits) / double(Requests),
              ull(T.Cached.Invalidations));
  // The cached jobs ran first, so they also paid any warm-up.
  std::printf("  job wall summed: cached %.3f s, uncached %.3f s (%.2fx)\n",
              T.CachedSec, T.UncachedSec,
              T.CachedSec > 0 ? T.UncachedSec / T.CachedSec : 1.0);
}

/// The 54-job matrix: every workload under the six modes, each
/// workload's jobs sharing one SourceText.
std::vector<CompileJob> matrixJobs() {
  std::vector<CompileJob> Jobs;
  for (const Workload &W : allWorkloads()) {
    SourceText Src(loadWorkload(W.File));
    for (PromotionMode Mode : allPromotionModes()) {
      CompileJob J;
      J.Name = std::string(W.Name) + "/" + promotionModeName(Mode);
      J.Source = Src;
      J.Opts.Mode = Mode;
      Jobs.push_back(std::move(J));
    }
  }
  return Jobs;
}

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Runs \p Jobs on \p T workers; returns the wall seconds.
double runJobs(const std::vector<CompileJob> &Jobs, unsigned T,
               std::vector<PipelineResult> &Results) {
  const double T0 = monotonicSeconds();
  Results = runPipelineParallel(Jobs, T);
  const double Wall = monotonicSeconds() - T0;
  for (size_t I = 0; I != Results.size(); ++I)
    if (!Results[I].Ok)
      noteFailure(Jobs[I].Name, Results[I]);
  return Wall;
}

void matrix() {
  const std::vector<CompileJob> Jobs = matrixJobs();
  std::vector<PipelineResult> Results;
  if (StatsJson) {
    stats::reset();
    const unsigned T = Threads ? Threads : cores(), Before = Failures;
    const double Wall = runJobs(Jobs, T, Results);
    std::printf("{\n  \"jobs\": [");
    for (size_t I = 0; I != Results.size(); ++I)
      std::printf("%s\n    {\"name\": \"%s\", \"ok\": %s, "
                  "\"dynamic_memops_after\": %llu, \"wall_seconds\": %.6f}",
                  I ? "," : "", json::escape(Jobs[I].Name).c_str(),
                  Results[I].Ok ? "true" : "false",
                  ull(Results[I].RunAfter.Counts.memOps()),
                  Results[I].WallSeconds);
    std::printf("\n  ],\n  \"job_count\": %zu,\n  \"failures\": %u,\n"
                "  \"threads\": %u,\n  \"wall_seconds\": %.6f,\n"
                "  \"statistics\": %s\n}\n",
                Jobs.size(), Failures - Before, T, Wall,
                stats::toJson(stats::snapshot(), 1).c_str());
    return;
  }
  std::printf("workload matrix: %zu jobs (%u cores)\n", Jobs.size(), cores());
  std::vector<unsigned> Sweep = {1};
  if (Threads)
    Sweep.push_back(Threads);
  for (unsigned T = 2; !Threads && T < cores() * 2; T *= 2)
    Sweep.push_back(std::min(T, cores()));
  double Base = 0;
  for (unsigned T : Sweep) {
    const unsigned Before = Failures;
    const double Wall = runJobs(Jobs, T, Results);
    Base = T == 1 ? Wall : Base;
    std::printf("  threads=%-3u %8.3f s  speedup %.2fx  failures %u\n", T,
                Wall, Base / Wall, Failures - Before);
  }
}

void validatorOverhead() {
  const unsigned T = Threads ? Threads : cores();
  double Wall[2];
  unsigned Failed[2];
  TransValidateStats V; // only the semantic leg validates
  for (unsigned L = 0; L != 2; ++L) {
    std::vector<CompileJob> Jobs = matrixJobs();
    for (CompileJob &J : Jobs)
      J.Opts.VerifyStrictness = L ? Strictness::Semantic : Strictness::Full;
    std::vector<PipelineResult> Results;
    const unsigned Before = Failures;
    Wall[L] = runJobs(Jobs, T, Results);
    Failed[L] = Failures - Before;
    for (const PipelineResult &R : Results)
      V += R.Verify.Validation;
  }
  Failures += V.ObligationsFailed != 0;
  std::printf("validator overhead: 54 jobs, threads=%u\n", T);
  std::printf("  verify=full      %8.3f s  failures %u\n", Wall[0], Failed[0]);
  std::printf("  verify=semantic  %8.3f s  failures %u\n", Wall[1], Failed[1]);
  std::printf("  delta            %8.3f s  (%.2fx, %.1f ms/job)\n",
              Wall[1] - Wall[0], Wall[1] / Wall[0],
              (Wall[1] - Wall[0]) * 1e3 / 54);
  std::printf("  validated        %llu passes, %llu functions (%llu skipped "
              "identical)\n",
              ull(V.PassesValidated), ull(V.FunctionsValidated),
              ull(V.FunctionsSkippedIdentical));
  std::printf("  proven           %llu obligations (%llu failed), %llu/%llu "
              "webs, %llu effect pairs, %.3f s inside the validator\n",
              ull(V.ObligationsProven), ull(V.ObligationsFailed),
              ull(V.WebsProven), ull(V.WebsChecked),
              ull(V.EffectPairsMatched), V.WallSeconds);
}

//===-- BENCH_paper.json --------------------------------------------------===//

/// The committed document. "counts" holds what no engine choice can move
/// and --check compares; "engine_counts" is recorded. It holds no
/// timings: one run's numbers would rewrite it with noise.
struct Doc {
  std::vector<std::pair<std::string, uint64_t>> Counts, EngineCounts;
};

Doc collect() {
  Doc D;
  auto add = [&](const std::string &Key, uint64_t V) {
    D.Counts.emplace_back(Key, V);
  };
  for (const Workload &W : allWorkloads()) {
    const std::string P = std::string(W.Name) + "/";
    const PipelineResult &R = result(W, Paper);
    add(P + "before/static_loads", R.StaticBefore.Loads);
    add(P + "before/static_stores", R.StaticBefore.Stores);
    add(P + "before/dyn_memops", R.RunBefore.Counts.memOps());
    add(P + "before/dyn_loads", R.RunBefore.Counts.SingletonLoads);
    for (unsigned V = 0; V != NumVariants; ++V) {
      const PipelineResult &RV = result(W, V);
      const std::string Q = P + VariantNames[V] + "/";
      add(Q + "static_loads", RV.StaticAfter.Loads);
      add(Q + "static_stores", RV.StaticAfter.Stores);
      add(Q + "dyn_memops", RV.RunAfter.Counts.memOps());
      add(Q + "dyn_loads", RV.RunAfter.Counts.SingletonLoads);
      add(Q + "webs_promoted", RV.Promo.WebsPromoted);
    }
  }
  for (const Workload &W : paperWorkloads())
    for (const RoutineRow &R : transformedRoutines(W)) {
      const std::string P = std::string(W.Name) + "/routine/" + R.Name + "/";
      add(P + "colors_before", R.Before.ColorsNeeded);
      add(P + "colors_after", R.After.ColorsNeeded);
      add(P + "max_live_before", R.Before.MaxLive);
      add(P + "max_live_after", R.After.MaxLive);
    }
  // Recorded, never compared: the bytecode and native-code kinds and every
  // uncached count. Of these only native-code builds differ by engine
  // (none under the walker or the bytecode engine, which decode as the
  // native one does).
  const CacheTotals &C = cacheTotals();
  for (unsigned K = 0; K != NumAnalysisKinds; ++K) {
    const std::string Name = analysisKindName(AnalysisKind(K));
    (K < unsigned(AnalysisKind::Bytecode) ? D.Counts : D.EngineCounts)
        .emplace_back("analysis/cached/" + Name, C.Cached.Builds[K]);
    D.EngineCounts.emplace_back("analysis/uncached/" + Name,
                                C.Uncached.Builds[K]);
  }
  for (const UpdateRow &U : updateRows())
    for (unsigned PerDef = 0; PerDef != 2; ++PerDef) {
      const SSAUpdateStats &S = U.Stats[PerDef];
      const std::string P = std::string("ssa-update/") +
                            (PerDef ? "per-def/" : "batch/") +
                            std::to_string(U.N) + "/";
      add(P + "idf_computations", S.IDFComputations);
      add(P + "phis_inserted", S.PhisInserted);
      add(P + "phis_deleted", S.PhisDeleted);
      add(P + "defs_deleted", S.DefsDeleted);
      add(P + "uses_renamed", S.UsesRenamed);
    }
  return D;
}

void writeJson(const Doc &D) {
  std::printf("{\n  \"bench\": \"bench_paper\",\n  \"engine\": \"%s\",\n",
              interpEngineName(defaultInterpEngine()));
  auto section = [](const char *Name,
                    const std::vector<std::pair<std::string, uint64_t>> &Es,
                    const char *End) {
    std::printf("  \"%s\": {", Name);
    for (size_t I = 0; I != Es.size(); ++I)
      std::printf("%s\n    \"%s\": %llu", I ? "," : "", Es[I].first.c_str(),
                  ull(Es[I].second));
    std::printf("\n  }%s\n", End);
  };
  section("counts", D.Counts, ",");
  section("engine_counts", D.EngineCounts, "\n}");
}

/// Compares this run's counts with \p Path's; returns how many differ.
unsigned check(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  json::Value File;
  std::string Err;
  if (!json::parse(Text.str(), File, Err) || !File.get("counts").isObject()) {
    std::printf("check: no \"counts\" in %s %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  std::map<std::string, std::pair<std::string, std::string>> Keys;
  for (const auto &[Key, V] : File.get("counts").members())
    Keys[Key].first = V.dump();
  for (const auto &[Key, V] : collect().Counts)
    Keys[Key].second = std::to_string(V);
  unsigned Diffs = 0;
  for (const auto &[Key, Values] : Keys)
    if (Values.first != Values.second && ++Diffs)
      std::printf("check: %s: expected %s, actual %s\n", Key.c_str(),
                  Values.first.empty() ? "none" : Values.first.c_str(),
                  Values.second.empty() ? "none" : Values.second.c_str());
  std::printf("check: %zu counts against %s, %u differ\n", Keys.size(),
              Path.c_str(), Diffs);
  return Diffs;
}

// The first seven are the paper tables and ablations, the default set.
const std::pair<const char *, void (*)()> Commands[] = {
    {"table1", table1},         {"table2", table2},
    {"table3", table3},         {"webs", webs},
    {"baseline", baseline},     {"ssa-update", ssaUpdate},
    {"memopt", memopt},         {"pass-time", passTime},
    {"analysis-cache", analysisCache}, {"matrix", matrix},
    {"validator-overhead", validatorOverhead}};

} // namespace

int main(int argc, char **argv) {
  std::vector<void (*)()> Run;
  bool Json = false;
  std::string CheckPath, TracePath, Unknown;
  opt::OptionParser OP("bench_paper", "[subcommand...] [options]");
  OP.positional("subcommand", [&](const std::string &V) {
    auto It = std::find_if(std::begin(Commands), std::end(Commands),
                           [&](const auto &C) { return V == C.first; });
    if (It == std::end(Commands))
      Unknown = V;
    else
      Run.push_back(It->second);
  });
  OP.value("threads", "<n>",
           "matrix, validator-overhead: worker threads (default: every "
           "core; matrix text sweeps 1, 2, 4, .., cores)",
           [&](const std::string &V) {
             Threads = unsigned(std::atoi(V.c_str()));
             return Threads > 0;
           });
  OP.flag("stats-json", "matrix: JSON report", [&] { StatsJson = true; });
  OP.value("trace-out", "<file>", "write a Chrome trace of the run",
           [&](const std::string &V) {
             TracePath = V;
             return !V.empty();
           });
  OP.flag("json", "print BENCH_paper.json on stdout", [&] { Json = true; });
  OP.value("check", "<file>",
           "also fail when a count differs from <file>'s \"counts\"",
           [&](const std::string &V) {
             CheckPath = V;
             return !V.empty();
           });
  OP.epilog("subcommands: table1 table2 table3 (Tables 1-3), webs baseline "
            "ssa-update memopt\n(Ablations A-D; these seven are the default), "
            "pass-time analysis-cache matrix\nvalidator-overhead\n");
  switch (OP.parse(argc, argv)) {
  case opt::ParseResult::Ok:
    break;
  case opt::ParseResult::Help:
    return 0;
  case opt::ParseResult::Error:
    return 2;
  }
  if (!Unknown.empty()) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n%s",
                 Unknown.c_str(), OP.helpText().c_str());
    return 2;
  }

  if (Json) {
    writeJson(collect());
    return Failures ? 1 : 0;
  }
  if (Run.empty()) // the paper tables and ablations
    for (size_t I = 0; I != 7; ++I)
      Run.push_back(Commands[I].second);
  if (!TracePath.empty())
    trace::start();
  for (void (*Table)() : Run) {
    Table();
    std::printf("\n");
  }
  const unsigned Diffs = CheckPath.empty() ? 0 : check(CheckPath);
  if (!TracePath.empty()) {
    trace::stop();
    std::ofstream Out(TracePath);
    Out << trace::toChromeJson();
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
      return 2;
    }
  }
  if (Failures || !ClaimsHold || Diffs) {
    std::fprintf(stderr, "bench_paper: %u failed jobs, %u differing counts, "
                         "%s\n",
                 Failures, Diffs, ClaimsHold ? "claims hold" : "a claim FAILS");
    return 1;
  }
  return 0;
}
