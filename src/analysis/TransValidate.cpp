//===- analysis/TransValidate.cpp - Per-pass translation validation -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
//
// Compiled into srp_ssa (not srp_analysis): the validator rebuilds memory
// SSA on both snapshots and reuses the value-numbering table, so it sits
// one layer above the analysis library it reports through.
//
//===----------------------------------------------------------------------===//

#include "analysis/TransValidate.h"
#include "analysis/Dominators.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ssa/MemorySSA.h"
#include "ssa/ValueNumbering.h"
#include "support/Hashing.h"
#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace srp;

//===----------------------------------------------------------------------===
// Promoted-web ledger (thread-local sink, mirroring support/Remarks.h).
//===----------------------------------------------------------------------===

namespace {
thread_local validation::WebLedger *ActiveLedger = nullptr;
} // namespace

validation::WebLedger *validation::sink() { return ActiveLedger; }
void validation::setSink(WebLedger *L) { ActiveLedger = L; }

void validation::recordPromotedWeb(const std::string &Function,
                                   const std::string &Object,
                                   const std::string &Web, const char *Pass) {
  if (WebLedger *L = ActiveLedger)
    L->record({Function, Object, Web, Pass});
}

//===----------------------------------------------------------------------===
// Module cloning.
//===----------------------------------------------------------------------===

namespace {

/// Deep-copies a module. Memory SSA is not carried over (the validator
/// rebuilds it); everything else — objects, functions, blocks,
/// instructions, predecessor lists — is reproduced structurally. Objects
/// and blocks are mapped through vectors indexed by their dense numbers.
/// An instruction is built with its operands' clones; an operand not cloned
/// yet (a phi back-edge, a use of a later-layout definition) starts as the
/// Undef placeholder and is recorded as a fixup, patched once every
/// instruction exists.
class ModuleCloner {
  const Module &Src;
  Module &Dst;
  std::vector<MemoryObject *> OMap; ///< By MemoryObject::id().
  std::unordered_map<const Function *, Function *> FMap;
  std::vector<BasicBlock *> BMap; ///< By BasicBlock::number(), per function.
  std::unordered_map<const Value *, Value *> VMap;
  struct Fixup {
    Instruction *I;
    unsigned Index;
    const Value *OldV;
  };
  std::vector<Fixup> Fixups;
  /// Forward operands of the instruction being built: (index, old value).
  std::vector<std::pair<unsigned, const Value *>> Pending;

  Value *mapNow(const Value *V) {
    if (auto *C = dyn_cast<ConstantInt>(V))
      return Dst.constant(C->value());
    if (isa<UndefValue>(V))
      return Dst.undef();
    auto It = VMap.find(V);
    return It == VMap.end() ? nullptr : It->second;
  }

  /// The clone of operand \p Index's value \p V, or the Undef placeholder
  /// with a pending fixup when \p V has not been cloned yet.
  Value *operand(const Value *V, unsigned Index) {
    if (Value *M = mapNow(V))
      return M;
    Pending.emplace_back(Index, V);
    return Dst.undef();
  }

  /// Appends \p NI to \p NB and turns its pending operands into fixups.
  Instruction *add(BasicBlock *NB, std::unique_ptr<Instruction> NI) {
    for (const auto &[Index, V] : Pending)
      Fixups.push_back({NI.get(), Index, V});
    Pending.clear();
    return NB->append(std::move(NI));
  }

  MemoryObject *obj(const MemoryObject *O) const {
    assert(O->id() < OMap.size() && OMap[O->id()] &&
           "object reference escaped the module");
    return OMap[O->id()];
  }

  BasicBlock *block(const BasicBlock *BB) const { return BMap[BB->number()]; }

  void cloneBody(const Function &OF, Function &NF) {
    BMap.assign(OF.blockNumberBound(), nullptr);
    for (const auto &BB : OF)
      BMap[BB->number()] = NF.createBlock(BB->name());
    for (const auto &BB : OF) {
      BasicBlock *NB = block(BB.get());
      for (const auto &IP : *BB) {
        const Instruction *I = IP.get();
        if (isa<MemPhiInst>(I))
          continue; // memory SSA is rebuilt, not cloned
        VMap.emplace(I, cloneInst(*I, NB));
      }
    }
    for (const Fixup &F : Fixups) {
      Value *M = mapNow(F.OldV);
      assert(M && "fixup target was never cloned");
      F.I->setOperand(F.Index, M);
    }
    Fixups.clear();
    // Mirror predecessor lists (phis index by block identity, CFG checks
    // by membership; order is kept identical for determinism).
    for (const auto &BB : OF)
      for (BasicBlock *P : BB->preds())
        block(BB.get())->addPred(block(P));
  }

  Instruction *cloneInst(const Instruction &I, BasicBlock *NB) {
    switch (I.kind()) {
    case Value::Kind::BinOp: {
      auto &B = static_cast<const BinOpInst &>(I);
      Value *L = operand(B.lhs(), 0);
      Value *R = operand(B.rhs(), 1);
      return add(NB, std::make_unique<BinOpInst>(B.op(), L, R, B.name()));
    }
    case Value::Kind::Copy: {
      // Sources dominate their copy, but layout order need not follow
      // dominance, so the source may be a forward reference. The
      // placeholder is Int-typed; every copy in this IR carries register
      // (Int) values.
      auto &C = static_cast<const CopyInst &>(I);
      return add(NB, std::make_unique<CopyInst>(operand(C.source(), 0),
                                                C.name()));
    }
    case Value::Kind::Phi: {
      auto &P = static_cast<const PhiInst &>(I);
      auto NI = std::make_unique<PhiInst>(P.type(), P.name());
      for (unsigned K = 0; K != P.numIncoming(); ++K)
        NI->addIncoming(operand(P.incomingValue(K), K),
                        block(P.incomingBlock(K)));
      return add(NB, std::move(NI));
    }
    case Value::Kind::Load:
      return NB->append(std::make_unique<LoadInst>(
          obj(static_cast<const LoadInst &>(I).object()), I.name()));
    case Value::Kind::Store: {
      auto &S = static_cast<const StoreInst &>(I);
      return add(NB, std::make_unique<StoreInst>(
                         obj(S.object()), operand(S.storedValue(), 0)));
    }
    case Value::Kind::AddrOf:
      return NB->append(std::make_unique<AddrOfInst>(
          obj(static_cast<const AddrOfInst &>(I).object()), I.name()));
    case Value::Kind::PtrLoad: {
      auto &L = static_cast<const PtrLoadInst &>(I);
      return add(NB, std::make_unique<PtrLoadInst>(operand(L.address(), 0),
                                                   L.name()));
    }
    case Value::Kind::PtrStore: {
      auto &S = static_cast<const PtrStoreInst &>(I);
      Value *Addr = operand(S.address(), 0);
      Value *V = operand(S.storedValue(), 1);
      return add(NB, std::make_unique<PtrStoreInst>(Addr, V));
    }
    case Value::Kind::ArrayLoad: {
      auto &L = static_cast<const ArrayLoadInst &>(I);
      return add(NB, std::make_unique<ArrayLoadInst>(
                         obj(L.object()), operand(L.index(), 0), L.name()));
    }
    case Value::Kind::ArrayStore: {
      auto &S = static_cast<const ArrayStoreInst &>(I);
      Value *Idx = operand(S.index(), 0);
      Value *V = operand(S.storedValue(), 1);
      return add(NB,
                 std::make_unique<ArrayStoreInst>(obj(S.object()), Idx, V));
    }
    case Value::Kind::Call: {
      auto &C = static_cast<const CallInst &>(I);
      std::vector<Value *> Args;
      Args.reserve(C.numOperands());
      for (unsigned K = 0; K != C.numOperands(); ++K)
        Args.push_back(operand(C.operand(K), K));
      return add(NB, std::make_unique<CallInst>(FMap.at(C.callee()),
                                                std::move(Args), C.type(),
                                                C.name()));
    }
    case Value::Kind::Print:
      return add(NB, std::make_unique<PrintInst>(operand(
                         static_cast<const PrintInst &>(I).value(), 0)));
    case Value::Kind::Br:
      return NB->append(std::make_unique<BrInst>(
          block(static_cast<const BrInst &>(I).target())));
    case Value::Kind::CondBr: {
      auto &B = static_cast<const CondBrInst &>(I);
      return add(NB, std::make_unique<CondBrInst>(
                         operand(B.condition(), 0), block(B.trueTarget()),
                         block(B.falseTarget())));
    }
    case Value::Kind::Ret: {
      auto &R = static_cast<const RetInst &>(I);
      if (!R.returnValue())
        return NB->append(std::make_unique<RetInst>());
      return add(NB,
                 std::make_unique<RetInst>(operand(R.returnValue(), 0)));
    }
    case Value::Kind::DummyLoad:
      return NB->append(std::make_unique<DummyLoadInst>(
          obj(static_cast<const DummyLoadInst &>(I).object())));
    default:
      assert(false && "unexpected instruction kind in clone");
      return nullptr;
    }
  }

public:
  ModuleCloner(const Module &Src, Module &Dst) : Src(Src), Dst(Dst) {}

  void run() {
    OMap.assign(Src.numObjectIds(), nullptr);
    for (const auto &G : Src.globals()) {
      MemoryObject *NG;
      switch (G->kind()) {
      case MemoryObject::Kind::Array:
        NG = Dst.createGlobalArray(G->name(), G->size());
        break;
      case MemoryObject::Kind::Field:
        NG = Dst.createField(G->name(), G->initialValue());
        break;
      default:
        NG = Dst.createGlobal(G->name(), G->initialValue());
        break;
      }
      if (G->isAddressTaken())
        NG->setAddressTaken();
      OMap[G->id()] = NG;
    }
    // Functions first (call instructions reference callees), then bodies.
    for (const auto &F : Src.functions()) {
      Function *NF = Dst.createFunction(F->name(), F->returnType());
      FMap[F.get()] = NF;
      for (unsigned K = 0; K != F->numArgs(); ++K)
        VMap[F->arg(K)] = NF->addArgument(F->arg(K)->name());
      for (const auto &L : F->locals()) {
        MemoryObject *NL = NF->createLocal(L->name(), L->kind(), L->size(),
                                           L->initialValue());
        if (L->isAddressTaken())
          NL->setAddressTaken();
        OMap[L->id()] = NL;
      }
    }
    for (const auto &F : Src.functions())
      cloneBody(*F, *FMap[F.get()]);
  }
};

} // namespace

std::unique_ptr<Module> srp::cloneModule(const Module &M) {
  auto New = std::make_unique<Module>(M.name());
  ModuleCloner(M, *New).run();
  return New;
}

//===----------------------------------------------------------------------===
// The simulation-relation checker.
//===----------------------------------------------------------------------===

namespace {

/// Per-function validation outcome, consumed by the web-ledger cross-check.
struct FnOutcome {
  bool AnyFailed = false;
  /// Failed memory obligations keyed by object name.
  std::map<std::string, unsigned> FailedByObject;
};

/// Instructions that constitute the observable effect skeleton. Pointer
/// and array loads participate only while their result is transitively
/// live (cleanup deletes dead ones, and the interpreter's result is
/// unaffected either way); everything else here is never created or
/// removed by any pass.
bool isHardEffect(const Instruction &I) {
  switch (I.kind()) {
  case Value::Kind::Call:
  case Value::Kind::Print:
  case Value::Kind::PtrStore:
  case Value::Kind::ArrayStore:
    return true;
  default:
    return false;
  }
}

bool isSoftEffect(const Instruction &I) {
  return I.kind() == Value::Kind::PtrLoad ||
         I.kind() == Value::Kind::ArrayLoad;
}

/// Values whose result transitively feeds an observable instruction —
/// the fixpoint dead-code elimination converges to. A soft effect outside
/// this set is treated as absent (both sides apply the same filter).
///
/// Singleton stores are deliberately NOT roots: promotion deletes them,
/// so rooting at them would make a value live pre-pass and dead
/// post-pass, desynchronising the two sides' effect skeletons. Instead
/// the store-to-load dataflow is traversed through memory SSA: a live
/// read pulls in the stored values its version may observe.
std::unordered_set<const Instruction *> computeLiveResults(Function &F) {
  std::unordered_set<const Instruction *> Live;
  std::vector<const Instruction *> WL;
  std::vector<bool> SeenMem(F.memoryNameBound());
  auto MarkVal = [&](Value *Op) {
    if (auto *OpI = dyn_cast<Instruction>(Op))
      if (Live.insert(OpI).second)
        WL.push_back(OpI);
  };
  // Walks a mu chain to the stores whose values the read may observe. A
  // singleton store's own mu is not followed (the store fully overwrites
  // its object, so prior state is unobservable through it), and chi
  // definitions stop the walk — their instructions are hard-effect roots
  // already.
  std::vector<MemoryName *> MWL;
  auto MarkMem = [&](MemoryName *MN) {
    MWL.assign(1, MN);
    while (!MWL.empty()) {
      MemoryName *N = MWL.back();
      MWL.pop_back();
      if (!N || SeenMem[N->number()])
        continue;
      SeenMem[N->number()] = true;
      Instruction *D = N->def();
      if (!D)
        continue; // entry state
      if (auto *St = dyn_cast<StoreInst>(D)) {
        MarkVal(St->storedValue());
        continue;
      }
      if (auto *MP = dyn_cast<MemPhiInst>(D))
        for (unsigned K = 0; K != MP->numIncoming(); ++K)
          MWL.push_back(MP->incomingName(K));
    }
  };
  auto Mark = [&](const Instruction &I) {
    for (Value *Op : I.operands())
      MarkVal(Op);
    for (MemoryName *N : I.memOperands())
      MarkMem(N);
  };
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB) {
      switch (I->kind()) {
      case Value::Kind::PtrStore:
      case Value::Kind::ArrayStore:
      case Value::Kind::Call:
      case Value::Kind::Print:
      case Value::Kind::Br:
      case Value::Kind::CondBr:
      case Value::Kind::Ret:
        Mark(*I);
        break;
      default:
        break;
      }
    }
  while (!WL.empty()) {
    const Instruction *I = WL.back();
    WL.pop_back();
    Mark(*I);
  }
  return Live;
}

/// Builds memory SSA on \p F in place, then its value numbers and live
/// set into \p A. Module objects restart their version numbers first, so
/// a function's memory names do not depend on which other functions of
/// its module were analysed before it.
void analyseSide(Function &F, ValidatedFunction &A) {
  for (const auto &G : F.parent()->globals())
    G->resetVersions();
  DominatorTree DT(F);
  buildMemorySSA(F, DT);
  A.VN.build(F, DT);
  A.Live = computeLiveResults(F);
}

using InstPair = std::pair<const Instruction *, const Instruction *>;
struct InstPairHash {
  size_t operator()(const InstPair &P) const {
    return hashWords(P.first, P.second);
  }
};

class FunctionValidator {
  Module &OldM, &NewM;
  const ValidatedFunction &OldA, &NewA;
  DiagnosticEngine &DE;
  TransValidateStats &Stats;
  FnOutcome Outcome;

  using Chain = std::vector<const BasicBlock *>;
  /// One product pair: an old and a new block whose walks start together.
  /// Pairs are numbered as they are created; the walk processes them in
  /// that order.
  struct PairInfo {
    const BasicBlock *Old, *New;
    Chain OldChain, NewChain;
    /// Product pairs whose walk branched or closed into this one. The
    /// source pair's chains are final by the time an edge is recorded
    /// (edges are only added from terminator handling, which ends the
    /// source pair's walk), so its number suffices.
    std::vector<unsigned> InEdges;
  };
  /// By pair number. A deque, so references stay valid while new pairs
  /// are added.
  std::deque<PairInfo> Pairs;
  /// Pair number by (old block number, new block number).
  std::unordered_map<uint64_t, unsigned> PairNumbers;
  /// Effect/terminator pairs matched by the lockstep walk. A set (not a
  /// per-instruction ordinal) because one old block may be walked against
  /// several new blocks when a pass splits edges or duplicates a trace.
  std::unordered_set<InstPair, InstPairHash> Matched;

  /// Sentinel chain position: the value was computed before the chain's
  /// first block was entered, so phis may not step inside this chain at
  /// all — resolution defers through the pair's in-edges instead.
  static constexpr size_t PreChain = ~static_cast<size_t>(0);

  /// Proof-state key: both values (post canonicalisation and in-chain phi
  /// stepping) plus the context they are being compared at: a product
  /// pair and the chain positions on each side.
  struct ProofKey {
    const Value *A, *B;
    unsigned Pair;
    size_t PosA, PosB;
    bool operator==(const ProofKey &) const = default;
  };
  struct ProofKeyHash {
    size_t operator()(const ProofKey &K) const {
      return hashWords(K.A, K.B, K.Pair, K.PosA, K.PosB);
    }
  };

  struct Obligation {
    Value *OldV, *NewV;
    const Instruction *OldI, *NewI; ///< Anchoring effect pair.
    const char *What;
    /// Proof context: the product pair whose walk matched the anchor, and
    /// the chain positions of the blocks the cursors were in. Equivalence
    /// is a per-observation-point claim, so the same value pair may need
    /// separate proofs at different anchors.
    unsigned At;
    size_t PosA, PosB;
  };
  std::vector<Obligation> Obls;
  struct ObligationKey {
    ProofKey K;
    const char *What;
    bool operator==(const ObligationKey &) const = default;
  };
  struct ObligationKeyHash {
    size_t operator()(const ObligationKey &O) const {
      return mixWord(ProofKeyHash()(O.K), reinterpret_cast<uintptr_t>(O.What));
    }
  };
  std::unordered_set<ObligationKey, ObligationKeyHash> OblSeen;
  /// The pair currently being walked (read by addObligation).
  unsigned CurPair = 0;
  bool StructureOk = true;
  unsigned DiagsEmitted = 0;
  static constexpr unsigned MaxDiagsPerFunction = 8;
  static constexpr size_t MaxChainLength = 512;

  /// Proof state. Proven and Failed are permanent verdicts; the others
  /// belong to the obligation being discharged: in progress, or proven or
  /// failed under its assumptions.
  enum class Verdict : uint8_t { Proven, Failed, Pending, TentProven,
                                 TentFailed };
  std::unordered_map<ProofKey, Verdict, ProofKeyHash> Proofs;
  /// Entries the current obligation added (nodes are stable in an
  /// unordered_map, so the pointers survive rehashing).
  std::vector<std::pair<const ProofKey, Verdict> *> Tentative;
  /// Scratch for matchMus.
  std::vector<MemoryName *> MuOld, MuNew, MuNewOnly;

  //===------------------------------------------------------------------===
  // Diagnostics.
  //===------------------------------------------------------------------===

  void structuralDiag(const char *Check, const Instruction &OI,
                      const Instruction &NI, const std::string &Why) {
    StructureOk = false;
    Outcome.AnyFailed = true;
    if (DiagsEmitted++ >= MaxDiagsPerFunction)
      return;
    DE.error(Check, DiagLocation::of(NI),
             Why + "\n  old: " + toString(OI) + "\n  new: " + toString(NI));
  }

  //===------------------------------------------------------------------===
  // Phase 1: product-graph lockstep walk.
  //===------------------------------------------------------------------===

  bool effective(const Instruction &I, bool OldSide) const {
    if (isHardEffect(I))
      return true;
    if (isSoftEffect(I))
      return (OldSide ? OldA : NewA).Live.count(&I) != 0;
    return false;
  }

  void addObligation(Value *OldV, Value *NewV, const Instruction *OI,
                     const Instruction *NI, const char *What) {
    const PairInfo &PI = Pairs[CurPair];
    const size_t PosA = PI.OldChain.size() - 1;
    const size_t PosB = PI.NewChain.size() - 1;
    if (OblSeen.insert({{OldV, NewV, CurPair, PosA, PosB}, What}).second)
      Obls.push_back({OldV, NewV, OI, NI, What, CurPair, PosA, PosB});
  }

  /// The number of pair (\p OT, \p NT), created if new.
  unsigned pairFor(const BasicBlock *OT, const BasicBlock *NT) {
    const uint64_t Key = uint64_t(OT->number()) << 32 | NT->number();
    auto [It, Fresh] =
        PairNumbers.try_emplace(Key, static_cast<unsigned>(Pairs.size()));
    if (Fresh)
      Pairs.push_back({OT, NT, {}, {}, {}});
    return It->second;
  }

  void enqueue(const BasicBlock *OT, const BasicBlock *NT, unsigned From) {
    auto &Edges = Pairs[pairFor(OT, NT)].InEdges;
    if (std::find(Edges.begin(), Edges.end(), From) == Edges.end())
      Edges.push_back(From);
  }

  /// Follows the unconditional branch at the cursor on one side, extending
  /// that side's chain. Returns false (with a diagnostic) if the chain
  /// revisits a block or outgrows the fuel bound.
  bool stepThrough(const BasicBlock *&BB, BasicBlock::const_iterator &It,
                   Chain &C, const Instruction &OtherCursor) {
    const BasicBlock *T = static_cast<const BrInst *>(It->get())->target();
    if (std::find(C.begin(), C.end(), T) != C.end() ||
        C.size() > MaxChainLength) {
      structuralDiag("trans-cfg", *It->get(), OtherCursor,
                     "cannot align control flow: unconditional-branch chain "
                     "revisits '" + T->name() + "' without reaching a "
                     "matching effect");
      return false;
    }
    C.push_back(T);
    BB = T;
    It = T->begin();
    return true;
  }

  /// \p I's mu operands sorted by object name into \p Out; where two
  /// objects share a name, the later operand stands for both.
  static void musByName(const Instruction *I, std::vector<MemoryName *> &Out) {
    const auto &Ops = I->memOperands();
    Out.assign(Ops.begin(), Ops.end());
    std::stable_sort(Out.begin(), Out.end(), [](MemoryName *A, MemoryName *B) {
      return A->object()->name() < B->object()->name();
    });
    size_t W = 0;
    for (MemoryName *N : Out) {
      if (W && Out[W - 1]->object()->name() == N->object()->name())
        Out[W - 1] = N;
      else
        Out[W++] = N;
    }
    Out.resize(W);
  }

  /// mu-operand matching for a paired effect: same observed objects modulo
  /// the implicit-entry rule, with one memory obligation per common object.
  /// Obligations come in object-name order: every old-side object, then
  /// the objects only the new side observes.
  void matchMus(const Instruction *OI, const Instruction *NI) {
    musByName(OI, MuOld);
    musByName(NI, MuNew);
    MuNewOnly.clear();
    size_t J = 0;
    for (MemoryName *ON : MuOld) {
      const std::string &Name = ON->object()->name();
      while (J != MuNew.size() && MuNew[J]->object()->name() < Name)
        MuNewOnly.push_back(MuNew[J++]);
      if (J != MuNew.size() && MuNew[J]->object()->name() == Name) {
        addObligation(ON, MuNew[J++], OI, NI, "observed memory state");
        continue;
      }
      // The new side no longer references the object at all (memory SSA
      // only versions touched objects): its runtime contents are the entry
      // value, so the old version must resolve to the entry version too.
      addObligation(ON, nullptr, OI, NI, "observed memory state");
    }
    MuNewOnly.insert(MuNewOnly.end(), MuNew.begin() + J, MuNew.end());
    for (MemoryName *NN : MuNewOnly)
      addObligation(nullptr, NN, OI, NI, "observed memory state");
  }

  bool matchEffect(const Instruction *OI, const Instruction *NI) {
    if (OI->kind() != NI->kind()) {
      structuralDiag("trans-effect", *OI, *NI, "effect kind mismatch");
      return false;
    }
    switch (OI->kind()) {
    case Value::Kind::Print:
      addObligation(static_cast<const PrintInst *>(OI)->value(),
                    static_cast<const PrintInst *>(NI)->value(), OI, NI,
                    "printed value");
      break;
    case Value::Kind::Call: {
      auto *OC = static_cast<const CallInst *>(OI);
      auto *NC = static_cast<const CallInst *>(NI);
      if (OC->callee()->name() != NC->callee()->name() ||
          OC->numOperands() != NC->numOperands()) {
        structuralDiag("trans-effect", *OI, *NI,
                       "call callee/arity mismatch");
        return false;
      }
      for (unsigned K = 0; K != OC->numOperands(); ++K)
        addObligation(OC->operand(K), NC->operand(K), OI, NI,
                      "call argument");
      matchMus(OI, NI);
      break;
    }
    case Value::Kind::PtrLoad:
      addObligation(static_cast<const PtrLoadInst *>(OI)->address(),
                    static_cast<const PtrLoadInst *>(NI)->address(), OI, NI,
                    "pointer-load address");
      matchMus(OI, NI);
      break;
    case Value::Kind::PtrStore: {
      auto *OS = static_cast<const PtrStoreInst *>(OI);
      auto *NS = static_cast<const PtrStoreInst *>(NI);
      addObligation(OS->address(), NS->address(), OI, NI,
                    "pointer-store address");
      addObligation(OS->storedValue(), NS->storedValue(), OI, NI,
                    "pointer-store value");
      matchMus(OI, NI);
      break;
    }
    case Value::Kind::ArrayLoad: {
      auto *OL = static_cast<const ArrayLoadInst *>(OI);
      auto *NL = static_cast<const ArrayLoadInst *>(NI);
      if (OL->object()->name() != NL->object()->name()) {
        structuralDiag("trans-effect", *OI, *NI, "array-load object mismatch");
        return false;
      }
      addObligation(OL->index(), NL->index(), OI, NI, "array-load index");
      matchMus(OI, NI);
      break;
    }
    case Value::Kind::ArrayStore: {
      auto *OS = static_cast<const ArrayStoreInst *>(OI);
      auto *NS = static_cast<const ArrayStoreInst *>(NI);
      if (OS->object()->name() != NS->object()->name()) {
        structuralDiag("trans-effect", *OI, *NI,
                       "array-store object mismatch");
        return false;
      }
      addObligation(OS->index(), NS->index(), OI, NI, "array-store index");
      addObligation(OS->storedValue(), NS->storedValue(), OI, NI,
                    "array-store value");
      matchMus(OI, NI);
      break;
    }
    default:
      structuralDiag("trans-effect", *OI, *NI, "unpairable effect kind");
      return false;
    }
    Matched.insert({OI, NI});
    ++Stats.EffectPairsMatched;
    return true;
  }

  void matchRet(const Instruction *OI, const Instruction *NI) {
    auto *OR = static_cast<const RetInst *>(OI);
    auto *NR = static_cast<const RetInst *>(NI);
    if ((OR->returnValue() == nullptr) != (NR->returnValue() == nullptr)) {
      structuralDiag("trans-effect", *OI, *NI, "return-value presence "
                     "mismatch");
      return;
    }
    if (OR->returnValue())
      addObligation(OR->returnValue(), NR->returnValue(), OI, NI,
                    "return value");
    // Final memory: returns carry mu-uses of every escaping object.
    matchMus(OI, NI);
    Matched.insert({OI, NI});
    ++Stats.EffectPairsMatched;
  }

  void processPair(unsigned P) {
    PairInfo &PI = Pairs[P];
    CurPair = P;
    const BasicBlock *OB = PI.Old, *NB = PI.New;
    PI.OldChain = {OB};
    PI.NewChain = {NB};
    auto OIt = OB->begin(), NIt = NB->begin();
    while (StructureOk) {
      while (OIt != OB->end() && !effective(**OIt, true) &&
             !(*OIt)->isTerminator())
        ++OIt;
      while (NIt != NB->end() && !effective(**NIt, false) &&
             !(*NIt)->isTerminator())
        ++NIt;
      if (OIt == OB->end() || NIt == NB->end()) {
        // Unterminated block: L0 rejects this before we ever run, but
        // stay defensive rather than walking off the list.
        StructureOk = false;
        Outcome.AnyFailed = true;
        return;
      }
      const Instruction *OI = OIt->get(), *NI = NIt->get();
      const bool OTerm = OI->isTerminator(), NTerm = NI->isTerminator();
      if (!OTerm && !NTerm) {
        if (!matchEffect(OI, NI))
          return;
        ++OIt;
        ++NIt;
        continue;
      }
      if (OTerm != NTerm) {
        // One side still owes an effect; the other may only proceed by
        // following an unconditional branch toward it.
        const Instruction *T = OTerm ? OI : NI;
        if (T->kind() != Value::Kind::Br) {
          structuralDiag("trans-effect", *OI, *NI,
                         "effect on one side has no counterpart before the "
                         "other side's terminator");
          return;
        }
        if (OTerm) {
          if (!stepThrough(OB, OIt, PI.OldChain, *NI))
            return;
        } else {
          if (!stepThrough(NB, NIt, PI.NewChain, *OI))
            return;
        }
        continue;
      }
      // Both cursors sit on terminators.
      const auto OK = OI->kind(), NK = NI->kind();
      if (OK == Value::Kind::Br && NK == Value::Kind::Br) {
        // Step BOTH sides through: extending the shared chains keeps the
        // two sides' block entries aligned in time, which the phi rule
        // depends on (enqueueing a fresh pair here would let the sides
        // stagger around split edges). Only close the walk into a product
        // pair when a chain would revisit a block — i.e. at loop closure.
        const BasicBlock *OT = static_cast<const BrInst *>(OI)->target();
        const BasicBlock *NT = static_cast<const BrInst *>(NI)->target();
        const bool Revisit =
            std::find(PI.OldChain.begin(), PI.OldChain.end(), OT) !=
                PI.OldChain.end() ||
            std::find(PI.NewChain.begin(), PI.NewChain.end(), NT) !=
                PI.NewChain.end();
        if (Revisit || PI.OldChain.size() > MaxChainLength ||
            PI.NewChain.size() > MaxChainLength) {
          enqueue(OT, NT, P);
          return;
        }
        PI.OldChain.push_back(OT);
        PI.NewChain.push_back(NT);
        OB = OT;
        OIt = OT->begin();
        NB = NT;
        NIt = NT->begin();
        continue;
      }
      if (OK == Value::Kind::Br) {
        if (!stepThrough(OB, OIt, PI.OldChain, *NI))
          return;
        continue;
      }
      if (NK == Value::Kind::Br) {
        if (!stepThrough(NB, NIt, PI.NewChain, *OI))
          return;
        continue;
      }
      if (OK == Value::Kind::CondBr && NK == Value::Kind::CondBr) {
        auto *OC = static_cast<const CondBrInst *>(OI);
        auto *NC = static_cast<const CondBrInst *>(NI);
        addObligation(OC->condition(), NC->condition(), OI, NI,
                      "branch condition");
        Matched.insert({OI, NI});
        enqueue(OC->trueTarget(), NC->trueTarget(), P);
        enqueue(OC->falseTarget(), NC->falseTarget(), P);
        return;
      }
      if (OK == Value::Kind::Ret && NK == Value::Kind::Ret) {
        matchRet(OI, NI);
        return;
      }
      structuralDiag("trans-cfg", *OI, *NI, "terminator kind mismatch");
      return;
    }
  }

  //===------------------------------------------------------------------===
  // Phase 2: congruence engine.
  //===------------------------------------------------------------------===

  /// Canonicalises a value on one side: value-numbering leaders, copy
  /// chains, singleton loads to the version they read, store-defined
  /// versions to the stored value, and entry versions of non-address-taken
  /// local scalars to the per-activation initial value.
  Value *resolve(Value *V, bool OldSide) {
    Module &M = OldSide ? OldM : NewM;
    const ValueNumberTable &VN = (OldSide ? OldA : NewA).VN;
    for (;;) {
      if (isa<Instruction>(V)) {
        Value *L = VN.leader(V);
        if (L != V) {
          V = L;
          continue;
        }
      }
      if (auto *C = dyn_cast<CopyInst>(V)) {
        V = C->source();
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(V)) {
        if (Ld->memUse()) {
          V = Ld->memUse();
          continue;
        }
        break;
      }
      if (auto *MN = dyn_cast<MemoryName>(V)) {
        if (Instruction *D = MN->def()) {
          if (auto *St = dyn_cast<StoreInst>(D)) {
            V = St->storedValue();
            continue;
          }
        } else {
          const MemoryObject *Obj = MN->object();
          if (Obj->kind() == MemoryObject::Kind::Local &&
              !Obj->isAddressTaken() && Obj->size() == 1) {
            // Fresh per activation: the entry contents are the declared
            // initial value (address-taken locals have static storage and
            // stay symbolic).
            V = M.constant(Obj->initialValue());
            continue;
          }
        }
      }
      break;
    }
    return V;
  }

  static Instruction *asPhi(Value *V) {
    if (auto *P = dyn_cast<PhiInst>(V))
      return P;
    if (auto *MN = dyn_cast<MemoryName>(V))
      if (MN->def() && isa<MemPhiInst>(MN->def()))
        return MN->def();
    return nullptr;
  }

  static Value *phiIncomingFor(Instruction *P, const BasicBlock *BB) {
    if (auto *Phi = dyn_cast<PhiInst>(P)) {
      int I = Phi->indexOfBlock(BB);
      return I < 0 ? nullptr : Phi->incomingValue(static_cast<unsigned>(I));
    }
    auto *MP = cast<MemPhiInst>(P);
    int I = MP->indexOfBlock(BB);
    return I < 0 ? nullptr : MP->incomingName(static_cast<unsigned>(I));
  }

  /// A value together with the chain position it is observed at. Chains
  /// are duplicate-free, so a position pins down which dynamic instance a
  /// phi refers to; PreChain marks values computed before the chain began.
  struct Slot {
    Value *V;
    size_t Pos;
  };

  /// Canonicalises and steps phis of \p S backwards within chain \p C:
  /// a phi whose defining block sits at position j >= 1 of the chain (at
  /// or before the observation point) is replaced by its incoming value
  /// for the chain predecessor. Stops at a non-phi, at a phi anchored at
  /// the chain's first block (position 0 — the in-edge rule steps those),
  /// or at a phi defined outside the chain (resolution defers unchanged).
  /// Returns false on a malformed phi.
  bool stepWithin(Slot &S, const Chain &C, bool OldSide) {
    if (!S.V)
      return true;
    for (;;) {
      S.V = resolve(S.V, OldSide);
      Instruction *P = asPhi(S.V);
      if (!P || S.Pos == PreChain)
        return true;
      const BasicBlock *BB = P->parent();
      size_t J = PreChain;
      const size_t Limit = std::min(S.Pos, C.size() - 1);
      for (size_t K = 0; K <= Limit; ++K)
        if (C[K] == BB)
          J = K;
      if (J == PreChain || J == 0)
        return true;
      Value *Next = phiIncomingFor(P, C[J - 1]);
      if (!Next)
        return false;
      S.V = Next;
      S.Pos = J - 1;
    }
  }

  /// Chain position of \p I's defining block at or before \p Pos, or
  /// PreChain when the definition predates the chain.
  static size_t defPos(const Instruction *I, const Chain &C, size_t Pos) {
    if (Pos == PreChain)
      return PreChain;
    const BasicBlock *BB = I->parent();
    size_t J = PreChain;
    const size_t Limit = std::min(Pos, C.size() - 1);
    for (size_t K = 0; K <= Limit; ++K)
      if (C[K] == BB)
        J = K;
    return J;
  }

  /// The in-edge rule: at least one side is a phi that cannot resolve
  /// further inside this pair's chains, so split the proof over every
  /// in-edge of the pair. A phi anchored at the chain's first block is
  /// first stepped through the predecessor pair's actual last block (that
  /// block is the control predecessor the edge was recorded from), then
  /// both sides are re-proven at the predecessor pair's final positions.
  /// Cycles through the product graph re-enter prove() with an identical
  /// key and hit the in-progress entry: assuming the claim there is the
  /// coinductive bisimulation step, guarded because every in-edge
  /// traversal is a genuine control step.
  bool deferToInEdges(const Slot &SA, const Slot &SB, const PairInfo &PI) {
    if (PI.InEdges.empty())
      return false; // entry pair: no paths left to split the phi over
    for (unsigned RK : PI.InEdges) {
      const PairInfo &R = Pairs[RK];
      Value *AV = SA.V, *BV = SB.V;
      if (AV) {
        if (Instruction *PA = asPhi(AV); PA && SA.Pos != PreChain &&
                                         PA->parent() == PI.OldChain.front()) {
          AV = phiIncomingFor(PA, R.OldChain.back());
          if (!AV)
            return false;
        }
      }
      if (BV) {
        if (Instruction *PB = asPhi(BV); PB && SB.Pos != PreChain &&
                                         PB->parent() == PI.NewChain.front()) {
          BV = phiIncomingFor(PB, R.NewChain.back());
          if (!BV)
            return false;
        }
      }
      if (!prove(AV, BV, RK, R.OldChain.size() - 1, R.NewChain.size() - 1))
        return false;
    }
    return true;
  }

  bool proveImpl(const Slot &SA, const Slot &SB, unsigned P,
                 const PairInfo &PI) {
    Value *A = SA.V, *B = SB.V;
    // A null side is the implicit entry state of an object the other side
    // no longer references: the present side must resolve to its entry
    // version (i.e. prove the object was never observably written) along
    // every path into the observation point.
    if (!A || !B) {
      Value *V = A ? A : B;
      if (auto *MN = dyn_cast<MemoryName>(V); MN && MN->isEntryVersion())
        return true;
      if (asPhi(V))
        return deferToInEdges(SA, SB, PI);
      return false;
    }
    if (asPhi(A) || asPhi(B))
      return deferToInEdges(SA, SB, PI);
    // Both sides are phi-free: structural comparison. Terminals first.
    auto *CA = dyn_cast<ConstantInt>(A);
    auto *CB = dyn_cast<ConstantInt>(B);
    if (CA && CB)
      return CA->value() == CB->value();
    const bool UA = isa<UndefValue>(A), UB = isa<UndefValue>(B);
    if (UA && UB)
      return true;
    // Undef reads as a deterministic 0 in both engines.
    if (UA && CB)
      return CB->value() == 0;
    if (UB && CA)
      return CA->value() == 0;
    if (isa<Argument>(A) && isa<Argument>(B))
      return cast<Argument>(A)->index() == cast<Argument>(B)->index();
    if (isa<AddrOfInst>(A) && isa<AddrOfInst>(B)) {
      const MemoryObject *OA = cast<AddrOfInst>(A)->object();
      const MemoryObject *OB = cast<AddrOfInst>(B)->object();
      return OA->name() == OB->name() && OA->kind() == OB->kind();
    }
    if (isa<BinOpInst>(A) && isa<BinOpInst>(B)) {
      auto *BA = cast<BinOpInst>(A);
      auto *BB = cast<BinOpInst>(B);
      if (BA->op() != BB->op())
        return false;
      // Operands are observed at the binop's own definition point: phi
      // operands refer to the instance live when the binop executed, not
      // when its result is consumed.
      const size_t DA = defPos(BA, PI.OldChain, SA.Pos);
      const size_t DB = defPos(BB, PI.NewChain, SB.Pos);
      if (prove(BA->lhs(), BB->lhs(), P, DA, DB) &&
          prove(BA->rhs(), BB->rhs(), P, DA, DB))
        return true;
      return isCommutativeBinOp(BA->op()) &&
             prove(BA->lhs(), BB->rhs(), P, DA, DB) &&
             prove(BA->rhs(), BB->lhs(), P, DA, DB);
    }
    // Results of paired effects are equal by the simulation relation.
    const auto EffectResult = [](Value *V) {
      return isa<CallInst>(V) || isa<PtrLoadInst>(V) || isa<ArrayLoadInst>(V);
    };
    if (EffectResult(A) && EffectResult(B))
      return Matched.count({cast<Instruction>(A), cast<Instruction>(B)}) != 0;
    // Memory versions that survived resolve(): entry versions and aliased
    // chi definitions (memphi targets were handled as phis above).
    auto *MA = dyn_cast<MemoryName>(A);
    auto *MB = dyn_cast<MemoryName>(B);
    if (MA && MB) {
      if (MA->object()->name() != MB->object()->name())
        return false;
      if (MA->isEntryVersion() && MB->isEntryVersion())
        return true;
      Instruction *DA = MA->def(), *DB = MB->def();
      if (DA && DB)
        return Matched.count({DA, DB}) != 0;
      return false;
    }
    return false;
  }

  /// Memoized coinductive proof that \p RawA (old side) and \p RawB (new
  /// side) denote the same runtime value when observed at positions
  /// \p PosA / \p PosB of product pair \p P's chains. An in-progress key
  /// is assumed to hold (see deferToInEdges); tentative proofs become
  /// permanent only if the enclosing top-level obligation succeeds, while
  /// failures are always definite (assumptions can only help a proof).
  bool prove(Value *RawA, Value *RawB, unsigned P, size_t PosA,
             size_t PosB) {
    const PairInfo &PI = Pairs[P];
    Slot SA{RawA, PosA}, SB{RawB, PosB};
    if (!stepWithin(SA, PI.OldChain, /*OldSide=*/true) ||
        !stepWithin(SB, PI.NewChain, /*OldSide=*/false))
      return false;
    auto [It, Fresh] = Proofs.try_emplace(
        ProofKey{SA.V, SB.V, P, SA.Pos, SB.Pos}, Verdict::Pending);
    if (!Fresh)
      return It->second != Verdict::Failed &&
             It->second != Verdict::TentFailed;
    Tentative.push_back(&*It);
    Verdict &V = It->second;
    const bool Ok = proveImpl(SA, SB, P, PI);
    V = Ok ? Verdict::TentProven : Verdict::TentFailed;
    return Ok;
  }

  void dischargeObligations() {
    for (const Obligation &O : Obls) {
      const bool Ok = prove(O.OldV, O.NewV, O.At, O.PosA, O.PosB);
      // Failures are definite; proofs are valid once the root succeeded.
      for (auto *E : Tentative) {
        if (E->second == Verdict::TentFailed) {
          E->second = Verdict::Failed;
        } else if (Ok) {
          E->second = Verdict::Proven;
        } else {
          const ProofKey K = E->first;
          Proofs.erase(K);
        }
      }
      Tentative.clear();
      const MemoryName *MN = O.OldV ? dyn_cast<MemoryName>(O.OldV) : nullptr;
      if (!MN && O.NewV)
        MN = dyn_cast<MemoryName>(O.NewV);
      if (Ok) {
        ++Stats.ObligationsProven;
        continue;
      }
      ++Stats.ObligationsFailed;
      Outcome.AnyFailed = true;
      if (MN)
        ++Outcome.FailedByObject[MN->object()->name()];
      if (DiagsEmitted++ >= MaxDiagsPerFunction)
        continue;
      const char *Check = MN ? "trans-memory" : "trans-value";
      const std::string OldRef =
          O.OldV ? O.OldV->referenceString() : "<entry state>";
      const std::string NewRef =
          O.NewV ? O.NewV->referenceString() : "<entry state>";
      DE.error(Check, DiagLocation::of(*O.NewI),
               std::string("cannot prove ") + O.What + " equivalent: '" +
                   OldRef + "' (old) vs '" + NewRef + "' (new)\n  old: " +
                   toString(*O.OldI) + "\n  new: " + toString(*O.NewI));
    }
  }

public:
  FunctionValidator(Function &OF, Function &NF, const ValidatedFunction &OldA,
                    const ValidatedFunction &NewA, DiagnosticEngine &DE,
                    TransValidateStats &Stats)
      : OldM(*OF.parent()), NewM(*NF.parent()), OldA(OldA), NewA(NewA),
        DE(DE), Stats(Stats) {
    pairFor(OF.entry(), NF.entry());
  }

  FnOutcome run() {
    // Every pair is walked once, in the order the walk created it.
    for (unsigned P = 0; P != Pairs.size() && StructureOk; ++P)
      processPair(P);
    if (StructureOk)
      dischargeObligations();
    return Outcome;
  }
};

} // namespace

//===----------------------------------------------------------------------===
// Driver.
//===----------------------------------------------------------------------===

bool srp::validateTranslation(
    Module &OldM, Module &NewM,
    const std::vector<validation::PromotedWebRecord> &Webs,
    DiagnosticEngine &DE, TransValidateStats &Stats,
    const std::unordered_set<std::string> *OnlyFunctions,
    SnapshotAnalyses *Kept) {
  const unsigned ErrorsBefore = DE.errors();

  for (const auto &OF : OldM.functions())
    if (!NewM.getFunction(OF->name()))
      DE.error("trans-cfg", DiagLocation::inFunction(OF->name()),
               "function vanished across the pass");
  for (const auto &NFp : NewM.functions())
    if (!OldM.getFunction(NFp->name()))
      DE.error("trans-cfg", DiagLocation::inFunction(NFp->name()),
               "function appeared across the pass");

  // The old side reuses what a previous validation built on OldM; the new
  // side's analyses are handed back for the next validation.
  const SnapshotAnalyses *Prev = Kept && Kept->Of == &OldM ? Kept : nullptr;
  SnapshotAnalyses Built;
  Built.Of = &NewM;
  std::map<std::string, FnOutcome> Outcomes;
  for (const auto &OF : OldM.functions()) {
    Function *NF = NewM.getFunction(OF->name());
    if (!NF || OF->empty() || NF->empty())
      continue;
    if (OnlyFunctions && !OnlyFunctions->count(OF->name())) {
      ++Stats.FunctionsSkippedIdentical;
      continue;
    }
    const ValidatedFunction *OldA = nullptr;
    if (Prev)
      if (auto It = Prev->Functions.find(OF.get());
          It != Prev->Functions.end())
        OldA = &It->second;
    ValidatedFunction OldFresh;
    if (!OldA) {
      analyseSide(*OF, OldFresh);
      OldA = &OldFresh;
    }
    ValidatedFunction &NewA = Built.Functions[NF];
    analyseSide(*NF, NewA);
    FunctionValidator V(*OF, *NF, *OldA, NewA, DE, Stats);
    Outcomes[OF->name()] = V.run();
    ++Stats.FunctionsValidated;
  }
  if (Kept)
    *Kept = std::move(Built);

  for (const auto &W : Webs) {
    ++Stats.WebsChecked;
    auto It = Outcomes.find(W.Function);
    if (It == Outcomes.end()) {
      // The function was skipped as textually unchanged: the pass
      // "promoted" the web without rewriting anything (a vacuous
      // re-promotion or a web whose materialisation point already stood),
      // so equivalence holds by identity. A vanished function was already
      // diagnosed above.
      if (OnlyFunctions && !OnlyFunctions->count(W.Function)) {
        ++Stats.WebsProven;
        continue;
      }
      DE.error("trans-web", DiagLocation::inFunction(W.Function),
               "pass '" + W.Pass + "' reported promoted web '" + W.Web +
                   "' of object '" + W.Object +
                   "' in a function that was not validated");
      continue;
    }
    const FnOutcome &O = It->second;
    if (!O.AnyFailed) {
      ++Stats.WebsProven;
      continue;
    }
    auto FIt = O.FailedByObject.find(W.Object);
    const std::string Detail =
        FIt != O.FailedByObject.end()
            ? std::to_string(FIt->second) +
                  " unproven memory-state pair(s) for object '" + W.Object +
                  "'"
            : "the enclosing function has unproven pairs";
    DE.error("trans-web", DiagLocation::inFunction(W.Function),
             "promoted web '" + W.Web + "' of object '" + W.Object +
                 "' (pass '" + W.Pass + "') is not proven equivalent: " +
                 Detail);
  }

  return DE.errors() == ErrorsBefore;
}
