//===- gen/ProgramGen.cpp - Promotion-targeted Mini-C generator -----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "gen/ProgramGen.h"
#include "support/RNG.h"
#include <cassert>
#include <cctype>
#include <sstream>
#include <utility>
#include <vector>

using namespace srp;
using namespace srp::gen;

const char *srp::gen::shapeProfileName(ShapeProfile P) {
  switch (P) {
  case ShapeProfile::Default:       return "default";
  case ShapeProfile::DeepLoops:     return "deep-loops";
  case ShapeProfile::Irreducible:   return "irreducible";
  case ShapeProfile::MultiLiveIn:   return "multi-live-in";
  case ShapeProfile::Aliased:       return "aliased";
  case ShapeProfile::CallHeavy:     return "call-heavy";
  case ShapeProfile::GuardedStores: return "guarded-stores";
  }
  return "?";
}

bool srp::gen::parseShapeProfile(const std::string &Name, ShapeProfile &Out) {
  for (ShapeProfile P : allShapeProfiles())
    if (Name == shapeProfileName(P)) {
      Out = P;
      return true;
    }
  return false;
}

const std::array<ShapeProfile, NumShapeProfiles> &srp::gen::allShapeProfiles() {
  static const std::array<ShapeProfile, NumShapeProfiles> All = {
      ShapeProfile::Default,     ShapeProfile::DeepLoops,
      ShapeProfile::Irreducible, ShapeProfile::MultiLiveIn,
      ShapeProfile::Aliased,     ShapeProfile::CallHeavy,
      ShapeProfile::GuardedStores};
  return All;
}

GenConfig GenConfig::forProfile(ShapeProfile P) {
  GenConfig C;
  switch (P) {
  case ShapeProfile::Default:
    break; // the defaults *are* the Default profile
  case ShapeProfile::DeepLoops:
    C.MaxLoopDepth = 4;
    C.LoopWeight = 35;
    C.ExtraStmts = 1;
    break;
  case ShapeProfile::Irreducible:
    C.IrreducibleChance = 85;
    C.MultiLiveInChance = 25;
    C.LoopWeight = 15;
    break;
  case ShapeProfile::MultiLiveIn:
    C.IrreducibleChance = 90;
    C.MultiLiveInChance = 95;
    break;
  case ShapeProfile::Aliased:
    C.AliasedWeight = 30;
    C.GuardedStoreWeight = 0;
    C.ExtraStmts = 1;
    break;
  case ShapeProfile::CallHeavy:
    C.MaxFunctions = 5;
    C.CallWeight = 30;
    C.ExtraStmts = 1;
    break;
  case ShapeProfile::GuardedStores:
    C.GuardedStoreWeight = 30;
    C.LoopWeight = 20;
    break;
  }
  return C;
}

ShapeProfile srp::gen::profileForSeed(uint64_t Seed) {
  return allShapeProfiles()[Seed % NumShapeProfiles];
}

GenConfig srp::gen::biasedConfig(uint64_t Seed) {
  return biasedConfig(Seed, profileForSeed(Seed));
}

GenConfig srp::gen::biasedConfig(uint64_t Seed, ShapeProfile Profile) {
  GenConfig C = GenConfig::forProfile(Profile);
  // Deterministic per-seed jitter of the size knobs, decoupled from the
  // program-content RNG stream so changing the jitter scheme does not
  // invalidate golden programs generated from explicit configs.
  RNG Jitter(Seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  C.MaxFunctions = std::max(1u, C.MaxFunctions + unsigned(Jitter.below(3)) - 1);
  C.MaxLoopDepth = std::max(1u, C.MaxLoopDepth + unsigned(Jitter.below(2)));
  C.ExtraStmts += unsigned(Jitter.below(3));
  C.AllowPointerWrites = Jitter.chance(4, 5);
  return C;
}

//===----------------------------------------------------------------------===
// Generator implementation.
//===----------------------------------------------------------------------===

struct ProgramGen::Impl {
  RNG Rand;
  GenConfig Cfg;
  std::ostringstream OS;
  std::vector<std::string> Globals;
  std::vector<std::pair<std::string, unsigned>> Arrays;
  std::vector<std::string> Fields; ///< "s.f" spellings
  /// Functions generated so far (callable from later functions, so the
  /// call graph is acyclic): name, arity, returns-int.
  struct Callee {
    std::string Name;
    unsigned Arity;
    bool ReturnsInt;
    uint64_t Cost; ///< estimated dynamic instructions per call
  };
  std::vector<Callee> Callables;
  std::vector<std::string> ScalarLocals; ///< in-scope locals of current fn
  std::vector<std::string> ReadOnly;     ///< induction vars and params
  unsigned NameCounter = 0;
  unsigned LoopDepth = 0;
  bool PointerToGlobal0 = false;

  //===--------------------------------------------------------------------===
  // Dynamic-cost accounting. Deep counted-loop nests that call helpers
  // which contain loops of their own multiply execution counts, and an
  // unlucky seed can overrun the interpreters' fuel. Every production
  // charges a rough per-execution instruction estimate scaled by the
  // product of the enclosing trip counts; call emission is suppressed
  // once a call site would contribute more than CallBudget dynamic
  // instructions, which caps whole programs far below the fuel limit.
  //===--------------------------------------------------------------------===
  uint64_t CurMult = 1;  ///< product of enclosing trip counts
  uint64_t FnCost = 0;   ///< estimated dynamic cost of the current function
  static constexpr uint64_t CallBudget = 200'000;

  void charge(uint64_t Instrs) { FnCost += Instrs * CurMult; }

  /// Whether a call to \p C fits the budget at the current loop depth.
  bool affordableCall(const Callee &C) {
    return CurMult * (C.Cost + 2 + C.Arity) <= CallBudget;
  }

  Impl(uint64_t Seed, GenConfig Cfg) : Rand(Seed), Cfg(Cfg) {}

  std::string fresh(const char *Prefix) {
    std::string Name = Prefix;
    Name += std::to_string(NameCounter++);
    return Name;
  }

  std::string indent(unsigned Depth) { return std::string(Depth * 2, ' '); }

  bool hasIntCallee() {
    for (const Callee &C : Callables)
      if (C.ReturnsInt && affordableCall(C))
        return true;
    return false;
  }

  const Callee &pickIntCallee() {
    for (;;) {
      const Callee &C = Callables[Rand.below(Callables.size())];
      if (C.ReturnsInt && affordableCall(C))
        return C;
    }
  }

  /// A random readable scalar location (global, field, local, param).
  std::string scalarRef() {
    unsigned Pools = 0;
    if (!Globals.empty())
      ++Pools;
    if (!Fields.empty())
      ++Pools;
    if (!ScalarLocals.empty())
      ++Pools;
    if (Pools == 0)
      return std::to_string(Rand.range(0, 9));
    while (true) {
      switch (Rand.below(3)) {
      case 0:
        if (!Globals.empty())
          return Globals[Rand.below(Globals.size())];
        break;
      case 1:
        if (!Fields.empty())
          return Fields[Rand.below(Fields.size())];
        break;
      default:
        if (!ScalarLocals.empty())
          return ScalarLocals[Rand.below(ScalarLocals.size())];
        break;
      }
    }
  }

  std::string scalarRefWritable() {
    for (int Tries = 0; Tries != 8; ++Tries) {
      std::string R = scalarRef();
      bool RO = false;
      for (const std::string &N : ReadOnly)
        if (N == R)
          RO = true;
      // Literals from the empty-pool fallback are not writable either.
      if (!RO && !R.empty() &&
          !std::isdigit(static_cast<unsigned char>(R[0])) && R[0] != '-')
        return R;
    }
    // Guaranteed writable fallback.
    if (!Globals.empty())
      return Globals[0];
    std::string N = fresh("l");
    OS << "  int " << N << " = 0;\n";
    ScalarLocals.push_back(N);
    return N;
  }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || Rand.chance(2, 5)) {
      // Leaf.
      switch (Rand.below(5)) {
      case 0:
        return std::to_string(Rand.range(-20, 20));
      case 1:
      case 2:
        return scalarRef();
      case 3:
        if (Cfg.IntCallees && hasIntCallee() && Rand.chance(1, 3)) {
          const Callee &C = pickIntCallee();
          charge(C.Cost + 2 + C.Arity);
          std::string Call = C.Name + "(";
          for (unsigned A = 0; A != C.Arity; ++A)
            Call += (A ? ", " : "") +
                    (Rand.chance(1, 2) ? scalarRef()
                                       : std::to_string(Rand.range(-9, 9)));
          return Call + ")";
        }
        return scalarRef();
      default:
        if (!Arrays.empty()) {
          auto &[Name, Size] = Arrays[Rand.below(Arrays.size())];
          std::string S = std::to_string(Size);
          return Name + "[((" + scalarRef() + ") % " + S + " + " + S +
                 ") % " + S + "]";
        }
        return scalarRef();
      }
    }
    static const char *Ops[] = {"+", "-", "*", "&", "|", "^",
                                "<", "<=", "==", "!="};
    std::string Op = Ops[Rand.below(10)];
    std::string L = expr(Depth - 1), R = expr(Depth - 1);
    if (Op == "*") // bound value growth
      R = std::to_string(Rand.range(-3, 3));
    return "(" + L + " " + Op + " " + R + ")";
  }

  /// A non-negative array index expression guaranteed in [0, Size).
  std::string arrayIndex(unsigned Size) {
    return "((" + expr(1) + ") * (" + expr(1) + ") % " +
           std::to_string(static_cast<int>(Size)) + " + " +
           std::to_string(static_cast<int>(Size)) + ") % " +
           std::to_string(static_cast<int>(Size));
  }

  /// Trip count for a counted loop: small when already nested so the
  /// dynamic instruction count stays bounded for deep nests.
  unsigned tripCount() {
    return 1 + static_cast<unsigned>(Rand.below(LoopDepth >= 2 ? 4 : 12));
  }

  //===--------------------------------------------------------------------===
  // Statement productions.
  //===--------------------------------------------------------------------===

  void stmtLocalDecl(unsigned Depth) {
    std::string N = fresh("l");
    OS << indent(Depth) << "int " << N << " = " << expr(2) << ";\n";
    ScalarLocals.push_back(N);
  }

  void stmtScalarAssign(unsigned Depth) {
    OS << indent(Depth) << scalarRefWritable() << " = " << expr(2) << ";\n";
  }

  void stmtArrayStore(unsigned Depth) {
    if (Arrays.empty())
      return;
    auto &[Name, Size] = Arrays[Rand.below(Arrays.size())];
    OS << indent(Depth) << Name << "[" << arrayIndex(Size)
       << "] = " << expr(2) << ";\n";
  }

  void stmtIf(unsigned Depth, unsigned Budget) {
    size_t LocalsBefore = ScalarLocals.size();
    OS << indent(Depth) << "if (" << expr(2) << ") {\n";
    stmts(Depth + 1, 1 + Rand.below(Budget));
    ScalarLocals.resize(LocalsBefore);
    if (Rand.chance(1, 2)) {
      OS << indent(Depth) << "} else {\n";
      stmts(Depth + 1, 1 + Rand.below(Budget));
      ScalarLocals.resize(LocalsBefore);
    }
    OS << indent(Depth) << "}\n";
  }

  /// The psi-SSA scenario class: a store guarded by a loop-body
  /// conditional, with a use after the rejoin so the guarded version and
  /// the fall-through version meet in one web.
  void stmtGuardedStore(unsigned Depth) {
    if (Globals.empty() && Fields.empty())
      return;
    std::string G = !Globals.empty() && (Fields.empty() || Rand.chance(2, 3))
                        ? Globals[Rand.below(Globals.size())]
                        : Fields[Rand.below(Fields.size())];
    OS << indent(Depth) << "if (" << expr(1) << ") {\n";
    OS << indent(Depth + 1) << G << " = " << expr(2) << ";\n";
    if (Rand.chance(1, 3)) {
      OS << indent(Depth) << "} else {\n";
      OS << indent(Depth + 1) << G << " = " << expr(1) << ";\n";
    }
    OS << indent(Depth) << "}\n";
    OS << indent(Depth) << scalarRefWritable() << " = " << G << " + "
       << expr(1) << ";\n";
  }

  void stmtLoop(unsigned Depth) {
    if (LoopDepth >= Cfg.MaxLoopDepth)
      return;
    std::string IV = fresh("i");
    unsigned Trip = tripCount();
    bool DoWhile = Rand.chance(1, 4);
    OS << indent(Depth) << "int " << IV << ";\n";
    if (DoWhile) {
      OS << indent(Depth) << IV << " = 0;\n";
      OS << indent(Depth) << "do {\n";
    } else {
      OS << indent(Depth) << "for (" << IV << " = 0; " << IV << " < " << Trip
         << "; " << IV << "++) {\n";
    }
    ++LoopDepth;
    CurMult *= Trip;
    charge(3); // condition + increment + branch, per iteration
    size_t LocalsBefore = ScalarLocals.size();
    ScalarLocals.push_back(IV); // readable inside, never assigned
    ReadOnly.push_back(IV);
    stmts(Depth + 1, 1 + Rand.below(3));
    ScalarLocals.resize(LocalsBefore);
    ReadOnly.pop_back();
    CurMult /= Trip;
    --LoopDepth;
    if (DoWhile) {
      OS << indent(Depth + 1) << IV << " = " << IV << " + 1;\n";
      OS << indent(Depth) << "} while (" << IV << " < " << Trip << ");\n";
    } else {
      OS << indent(Depth) << "}\n";
    }
  }

  void stmtCall(unsigned Depth) {
    if (Callables.empty())
      return;
    const Callee &C = Callables[Rand.below(Callables.size())];
    if (!affordableCall(C)) {
      stmtCompound(Depth); // too hot for a call; keep the slot cheap
      return;
    }
    charge(C.Cost + 2 + C.Arity);
    std::string Call = C.Name + "(";
    for (unsigned A = 0; A != C.Arity; ++A)
      Call += (A ? ", " : "") + expr(1);
    Call += ")";
    if (C.ReturnsInt && Rand.chance(2, 3))
      OS << indent(Depth) << scalarRefWritable() << " = " << Call << ";\n";
    else
      OS << indent(Depth) << Call << ";\n";
  }

  void stmtPrint(unsigned Depth) {
    OS << indent(Depth) << "print(" << expr(2) << ");\n";
  }

  void stmtPointerToGlobal(unsigned Depth) {
    if (!PointerToGlobal0 || Globals.empty())
      return;
    std::string P = fresh("p");
    OS << indent(Depth) << "int " << P << " = &" << Globals[0] << ";\n";
    OS << indent(Depth) << "*" << P << " = " << expr(2) << ";\n";
  }

  /// Aliased aggregate access: a pointer into an array (or at a struct
  /// field), a store through it when writes are allowed, and a load
  /// through it. The pointee object becomes address-taken, so every later
  /// access to it is aliased — the Baradaran/Diniz scenario class.
  void stmtAliased(unsigned Depth) {
    std::string P = fresh("p");
    if (!Arrays.empty() && (Fields.empty() || Rand.chance(2, 3))) {
      auto &[Name, Size] = Arrays[Rand.below(Arrays.size())];
      OS << indent(Depth) << "int " << P << " = &" << Name << "["
         << Rand.below(Size) << "];\n";
    } else if (!Fields.empty()) {
      OS << indent(Depth) << "int " << P << " = &"
         << Fields[Rand.below(Fields.size())] << ";\n";
    } else if (!Globals.empty()) {
      OS << indent(Depth) << "int " << P << " = &" << Globals[0] << ";\n";
    } else {
      return;
    }
    if (Cfg.AllowPointerWrites && Rand.chance(2, 3))
      OS << indent(Depth) << "*" << P << " = " << expr(2) << ";\n";
    OS << indent(Depth) << scalarRefWritable() << " = *" << P << " + "
       << expr(1) << ";\n";
  }

  void stmtCompound(unsigned Depth) {
    std::string T = scalarRefWritable();
    if (Rand.chance(1, 2))
      OS << indent(Depth) << T << " += " << expr(1) << ";\n";
    else
      OS << indent(Depth) << T << "++;\n";
  }

  /// The irreducible-interval region: a forward goto into a counted-loop
  /// body gives the loop a second entry, so the interval is improper and
  /// promotion must place boundary loads at the least common dominator.
  /// When SplitLiveIn is set, the two entry paths carry *different* memory
  /// versions of the shared global, producing the MultipleLiveIns
  /// rejection of §4.3 — a shape no structured control flow can build.
  void stmtIrreducibleRegion(unsigned Depth, bool SplitLiveIn) {
    if (Globals.empty())
      return;
    const std::string &G = Globals[Rand.below(Globals.size())];
    std::string IV = fresh("i");
    std::string L = fresh("entry");
    unsigned Trip = 2 + static_cast<unsigned>(Rand.below(9));
    OS << indent(Depth) << "int " << IV << " = 0;\n";
    OS << indent(Depth) << G << " = " << expr(1) << ";\n";
    OS << indent(Depth) << "if (" << expr(1) << " < " << expr(1)
       << ") goto " << L << ";\n";
    if (SplitLiveIn)
      OS << indent(Depth) << G << " = " << expr(1) << ";\n";
    OS << indent(Depth) << "while (" << IV << " < " << Trip << ") {\n";
    ++LoopDepth;
    CurMult *= Trip;
    charge(8); // load/add/store of G, IV increment, condition, branches
    size_t LocalsBefore = ScalarLocals.size();
    ScalarLocals.push_back(IV);
    ReadOnly.push_back(IV);
    // A guaranteed load of the shared global inside the loop keeps the
    // web profitable, so the MultipleLiveIns check (not profitability) is
    // what decides its fate.
    OS << indent(Depth + 1) << scalarRefWritable() << " = " << G << " + "
       << expr(1) << ";\n";
    if (Rand.chance(1, 2))
      stmts(Depth + 1, 1);
    OS << indent(Depth) << L << ":\n";
    OS << indent(Depth + 1) << G << " = " << G << " + "
       << Rand.range(1, 3) << ";\n";
    OS << indent(Depth + 1) << IV << " = " << IV << " + 1;\n";
    ScalarLocals.resize(LocalsBefore);
    ReadOnly.pop_back();
    CurMult /= Trip;
    --LoopDepth;
    OS << indent(Depth) << "}\n";
    OS << indent(Depth) << "print(" << G << ");\n";
  }

  /// Weighted statement dispatch: \p Budget statements at \p Depth.
  void stmts(unsigned Depth, unsigned Budget) {
    for (unsigned K = 0; K != Budget; ++K) {
      charge(6); // flat estimate per statement; calls/loops add their own
      // Fixed-weight productions (historical mix), then the configurable
      // shape productions on top.
      unsigned LoopW = Cfg.LoopWeight;
      unsigned CallW = Cfg.CallWeight;
      unsigned GuardW = Cfg.GuardedStoreWeight;
      unsigned AliasW = Cfg.AliasedWeight;
      unsigned Total = 10 /*decl*/ + 20 /*assign*/ + 8 /*array*/ +
                       10 /*if*/ + 6 /*print*/ + 4 /*ptr-global*/ +
                       10 /*compound*/ + LoopW + CallW + GuardW + AliasW;
      uint64_t R = Rand.below(Total);
      auto Take = [&R](unsigned W) {
        if (R < W)
          return true;
        R -= W;
        return false;
      };
      if (Take(10))
        stmtLocalDecl(Depth);
      else if (Take(20))
        stmtScalarAssign(Depth);
      else if (Take(8))
        stmtArrayStore(Depth);
      else if (Take(10))
        stmtIf(Depth, 2);
      else if (Take(6))
        stmtPrint(Depth);
      else if (Take(4))
        stmtPointerToGlobal(Depth);
      else if (Take(10))
        stmtCompound(Depth);
      else if (Take(LoopW))
        stmtLoop(Depth);
      else if (Take(CallW))
        stmtCall(Depth);
      else if (Take(GuardW))
        stmtGuardedStore(Depth);
      else
        stmtAliased(Depth);
    }
  }

  //===--------------------------------------------------------------------===
  // Program assembly.
  //===--------------------------------------------------------------------===

  void functionBody(unsigned BaseBudget) {
    bool Irreducible =
        Cfg.IrreducibleChance && Rand.chance(Cfg.IrreducibleChance, 100);
    bool SplitLiveIn =
        Irreducible && Rand.chance(Cfg.MultiLiveInChance, 100);
    unsigned Budget = BaseBudget + Cfg.ExtraStmts +
                      static_cast<unsigned>(Rand.below(4));
    unsigned Before = Irreducible ? 1 + unsigned(Rand.below(Budget)) : Budget;
    stmts(1, Before);
    if (Irreducible) {
      stmtIrreducibleRegion(1, SplitLiveIn);
      if (Budget > Before)
        stmts(1, Budget - Before);
    }
  }

  std::string generate() {
    unsigned NumGlobals = 1 + static_cast<unsigned>(Rand.below(4));
    for (unsigned I = 0; I != NumGlobals; ++I) {
      std::string N = fresh("g");
      OS << "int " << N << " = " << Rand.range(-5, 5) << ";\n";
      Globals.push_back(N);
    }
    if (Rand.chance(1, 2)) {
      std::string N = fresh("arr");
      unsigned Size = 2 + static_cast<unsigned>(Rand.below(7));
      OS << "int " << N << "[" << Size << "];\n";
      Arrays.emplace_back(N, Size);
    }
    if (Rand.chance(1, 3)) {
      OS << "struct St { int f0 = 1; int f1 = 2; } s0;\n";
      Fields.push_back("s0.f0");
      Fields.push_back("s0.f1");
    }
    PointerToGlobal0 = Cfg.AllowPointerWrites && Rand.chance(1, 3);

    unsigned NumFns =
        Cfg.MaxFunctions ? static_cast<unsigned>(Rand.below(Cfg.MaxFunctions))
                         : 0;
    for (unsigned I = 0; I != NumFns; ++I) {
      std::string N = fresh("f");
      unsigned Arity = static_cast<unsigned>(Rand.below(3));
      bool ReturnsInt = Cfg.IntCallees && Rand.chance(1, 2);
      OS << (ReturnsInt ? "int " : "void ") << N << "(";
      std::vector<std::string> Params;
      for (unsigned A = 0; A != Arity; ++A) {
        std::string P = fresh("a");
        OS << (A ? ", " : "") << "int " << P;
        Params.push_back(P);
      }
      OS << ") {\n";
      ScalarLocals = Params; // params readable (read-only)
      ReadOnly = Params;
      CurMult = 1;
      FnCost = 4; // frame setup + return
      functionBody(2);
      if (ReturnsInt)
        OS << "  return " << expr(2) << ";\n";
      ScalarLocals.clear();
      ReadOnly.clear();
      OS << "}\n";
      Callables.push_back({N, Arity, ReturnsInt, FnCost});
    }

    OS << "void main() {\n";
    ScalarLocals.clear();
    ReadOnly.clear();
    CurMult = 1;
    FnCost = 0;
    functionBody(4);
    // Make every global observable so equivalence checks bite.
    for (const std::string &G : Globals)
      OS << "  print(" << G << ");\n";
    for (const std::string &Fd : Fields)
      OS << "  print(" << Fd << ");\n";
    OS << "}\n";
    return OS.str();
  }
};

ProgramGen::ProgramGen(uint64_t Seed, GenConfig Cfg)
    : P(std::make_unique<Impl>(Seed, Cfg)) {}
ProgramGen::~ProgramGen() = default;
ProgramGen::ProgramGen(ProgramGen &&) noexcept = default;
ProgramGen &ProgramGen::operator=(ProgramGen &&) noexcept = default;

std::string ProgramGen::generate() { return P->generate(); }

std::string srp::gen::generateProgram(uint64_t Seed, const GenConfig &Cfg) {
  return ProgramGen(Seed, Cfg).generate();
}
