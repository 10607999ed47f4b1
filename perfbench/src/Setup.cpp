//===- perfbench/src/Setup.cpp - Workloads and the reference oracle -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "frontend/Lowering.h"
#include "gen/ProgramGen.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include <cstring>
#include <fstream>
#include <sstream>

using namespace srp;
using namespace srp::perfbench;

namespace {

/// The paper's nine SPECInt95 stand-ins (Tables 1-3), in table order.
const char *const PaperPrograms[] = {"go",       "li",      "ijpeg",
                                     "perl",     "m88ksim", "gcc",
                                     "compress", "vortex",  "eqntott"};

/// The long-running workloads behind the Full-verification hotspot.
const char *const LargePrograms[] = {"spice", "mpeg", "db"};

/// The fixed shape of the corpus-semantic workload: how many generated
/// programs of each class a run takes (each then runs in all six modes).
/// Rows classify by instructions the reference run executes: [16, 64),
/// [64, 256), [256, 1024), [1024, 2048]; columns by source bytes: below
/// 512, 1024, 2048, and the rest. The counts follow how often each class
/// occurs among generated programs; classes rarer than 1 in 100, and
/// programs running longer than 2048 instructions, are not taken. The seed
/// decides which programs fill the classes, so it changes the programs
/// but hardly the workload's totals.
constexpr unsigned CorpusQuota[4][4] = {
    {21, 5, 0, 0},
    {20, 35, 14, 0},
    {7, 36, 33, 5},
    {0, 9, 19, 4},
};

/// Generator seeds every corpus set-up draws even when the classes filled
/// sooner (they usually do): it keeps set-up work, and so setup_s, nearly
/// the same for every seed.
constexpr uint64_t MinCorpusDraws = 600;

/// Generator seeds a corpus may draw before set-up gives up.
constexpr uint64_t MaxCorpusDraws = 100'000;

/// Fuel for the reference run; the pipeline uses the same budget.
constexpr uint64_t OracleFuel = 200'000'000;

bool readFile(const std::string &Path, std::string &Text, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot open " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  return true;
}

/// Compiles \p Source and runs it once on the tree-walker. This is the
/// reference every job of the program is checked against: it shares only
/// the frontend with the pipeline under test, not a single pass.
bool runOracle(const std::string &Source, Oracle &O, std::string &Err) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = compileMiniC(Source, Errors);
  if (!M) {
    Err = Errors.empty() ? "compile failed" : Errors.front();
    return false;
  }
  ExecutionResult R = Interpreter(*M, OracleFuel, InterpEngine::Walk).run();
  if (!R.Ok) {
    Err = "reference run failed: " + R.Error;
    return false;
  }
  O.Output = std::move(R.Output);
  O.ExitValue = R.ExitValue;
  O.MemoryHash = finalMemoryHash(R);
  O.Instructions = R.Counts.Instructions;
  return true;
}

/// The corpus class of a program (see CorpusQuota), or null when no
/// class takes it.
unsigned *corpusSlot(unsigned (&Left)[4][4], uint64_t Insts, size_t Bytes) {
  if (Insts < 16 || Insts > 2048)
    return nullptr;
  unsigned Row = Insts < 64 ? 0 : Insts < 256 ? 1 : Insts < 1024 ? 2 : 3;
  unsigned Col = Bytes < 512 ? 0 : Bytes < 1024 ? 1 : Bytes < 2048 ? 2 : 3;
  return Left[Row][Col] ? &Left[Row][Col] : nullptr;
}

/// One job per (program, mode), in program-major order.
void addAllModes(Workload &W, size_t Prog, const PipelineOptions &Base) {
  for (PromotionMode Mode : allPromotionModes()) {
    BenchJob J;
    J.Prog = Prog;
    J.Job.Name = W.Programs[Prog].Name + "/" + promotionModeName(Mode);
    J.Job.Source = W.Programs[Prog].Source;
    J.Job.Opts = Base;
    J.Job.Opts.Mode = Mode;
    W.Jobs.push_back(std::move(J));
  }
}

bool addFilePrograms(Workload &W, const std::string &Root,
                     const char *const *Begin, const char *const *End,
                     std::string &Err) {
  for (const char *const *P = Begin; P != End; ++P) {
    Program Prog;
    Prog.Name = std::string(*P) + ".mc";
    std::string Text;
    if (!readFile(Root + "/workloads/" + Prog.Name, Text, Err))
      return false;
    if (!runOracle(Text, Prog.Expected, Err)) {
      Err = Prog.Name + ": " + Err;
      return false;
    }
    Prog.Source = SourceText(std::move(Text));
    W.Programs.push_back(std::move(Prog));
  }
  return true;
}

} // namespace

const std::vector<std::string> &srp::perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "paper-oneshot", "large-full", "corpus-semantic", "server-mixed"};
  return Names;
}

bool srp::perfbench::setUpWorkload(const std::string &Name, uint64_t Seed,
                                   const std::string &Root, Workload &W,
                                   std::string &Err) {
  W = Workload();
  PipelineOptions Base;
  if (Name == "paper-oneshot" || Name == "server-mixed") {
    if (!addFilePrograms(W, Root, std::begin(PaperPrograms),
                         std::end(PaperPrograms), Err))
      return false;
    for (size_t P = 0; P != W.Programs.size(); ++P)
      addAllModes(W, P, Base);
    W.TailPercentile = 99;
    if (Name == "server-mixed") {
      // Every third job again on the native engine, JIT on first call:
      // the only traffic that exercises the JIT.
      const size_t NumPaperJobs = W.Jobs.size();
      for (size_t I = 0; I < NumPaperJobs; I += 3) {
        BenchJob J = W.Jobs[I];
        J.Job.Name += "/native";
        J.Job.Opts.Interp = InterpEngine::Native;
        J.Job.Opts.JitThreshold = 1;
        W.Jobs.push_back(std::move(J));
      }
      W.ServerThreads = 2;
      W.Connections = 2;
    }
    return true;
  }
  if (Name == "large-full") {
    if (!addFilePrograms(W, Root, std::begin(LargePrograms),
                         std::end(LargePrograms), Err))
      return false;
    Base.VerifyStrictness = Strictness::Full;
    for (size_t P = 0; P != W.Programs.size(); ++P)
      addAllModes(W, P, Base);
    W.TailPercentile = 90;
    return true;
  }
  if (Name == "corpus-semantic") {
    Base.VerifyStrictness = Strictness::Semantic;
    unsigned Left[4][4];
    std::memcpy(Left, CorpusQuota, sizeof(Left));
    size_t Wanted = 0;
    for (const auto &Row : CorpusQuota)
      for (unsigned Q : Row)
        Wanted += Q;
    // Consecutive generator seeds rotate through all seven shape profiles.
    const uint64_t First = Seed * 1'000'003;
    for (uint64_t S = First;
         W.Programs.size() < Wanted || S - First < MinCorpusDraws; ++S) {
      if (S - First == MaxCorpusDraws) {
        Err = "corpus classes still unfilled after " +
              std::to_string(MaxCorpusDraws) + " programs";
        return false;
      }
      Program Prog;
      std::string Text = gen::generateProgram(S, gen::biasedConfig(S));
      std::string OracleErr;
      if (!runOracle(Text, Prog.Expected, OracleErr))
        continue;
      unsigned *Slot =
          corpusSlot(Left, Prog.Expected.Instructions, Text.size());
      if (!Slot)
        continue;
      --*Slot;
      Prog.Name = "gen-" + std::to_string(S) + "-" +
                  gen::shapeProfileName(gen::profileForSeed(S));
      Prog.Source = SourceText(std::move(Text));
      W.Programs.push_back(std::move(Prog));
      addAllModes(W, W.Programs.size() - 1, Base);
    }
    return true;
  }
  Err = "unknown workload '" + Name + "'";
  return false;
}

std::string srp::perfbench::checkOracle(const Oracle &O,
                                        const std::vector<int64_t> &Output,
                                        int64_t ExitValue,
                                        uint64_t MemoryHash) {
  if (Output != O.Output)
    return "printed output differs from the reference run";
  if (ExitValue != O.ExitValue)
    return "exit value " + std::to_string(ExitValue) + " != reference " +
           std::to_string(O.ExitValue);
  if (MemoryHash != O.MemoryHash)
    return "final memory differs from the reference run";
  return "";
}

Counters srp::perfbench::countersOf(const PipelineResult &R) {
  Counters C;
  C.StaticBefore = R.StaticBefore.total();
  C.StaticAfter = R.StaticAfter.total();
  C.DynBefore = R.RunBefore.Counts.memOps();
  C.DynAfter = R.RunAfter.Counts.memOps();
  C.Insts = R.RunBefore.Counts.Instructions + R.RunAfter.Counts.Instructions;
  C.WebsPromoted = R.Promo.WebsPromoted + R.Baseline.VariablesPromoted +
                   R.Superblock.VariablesPromoted;
  C.ChecksRun = R.Verify.ChecksRun;
  C.ObligationsProven = R.Verify.Validation.ObligationsProven;
  C.Colors = R.Pressure.ColorsNeeded;
  return C;
}

std::string Counters::diff(const Counters &O) const {
  std::string D;
  auto Field = [&](const char *Name, uint64_t A, uint64_t B) {
    if (A != B)
      D += (D.empty() ? "" : ", ") + std::string(Name) + ": " +
           std::to_string(A) + " != " + std::to_string(B);
  };
  Field("static_before", StaticBefore, O.StaticBefore);
  Field("static_after", StaticAfter, O.StaticAfter);
  Field("dyn_before", DynBefore, O.DynBefore);
  Field("dyn_after", DynAfter, O.DynAfter);
  Field("insts", Insts, O.Insts);
  Field("webs_promoted", WebsPromoted, O.WebsPromoted);
  Field("checks_run", ChecksRun, O.ChecksRun);
  Field("obligations_proven", ObligationsProven, O.ObligationsProven);
  Field("colors", Colors, O.Colors);
  return D;
}
