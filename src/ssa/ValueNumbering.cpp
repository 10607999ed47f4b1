//===- ssa/ValueNumbering.cpp - Register GVN ------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ssa/ValueNumbering.h"
#include "analysis/Dominators.h"
#include "ir/Function.h"
#include "support/Hashing.h"
#include <unordered_map>
#include <vector>

using namespace srp;

namespace {

/// Expression key: opcode discriminator + operand identities. Commutative
/// operators are canonicalised by sorting the operand pair.
struct ExprKey {
  unsigned Opcode;           ///< BinOpKind+1, 0 = load, ~0 = addr-of
  const void *Op0, *Op1;

  bool operator==(const ExprKey &) const = default;
};

struct ExprKeyHash {
  size_t operator()(const ExprKey &K) const {
    return hashWords(K.Opcode, K.Op0, K.Op1);
  }
};

/// Scoped expression table: the walk pushes one scope per dominator-tree
/// node and pops it on exit, so a hit always dominates the current
/// instruction. A pop erases exactly the keys its scope inserted.
class ScopedExprTable {
  std::unordered_map<ExprKey, Value *, ExprKeyHash> Table;
  /// Keys inserted, in order; ScopeStarts holds each open scope's start.
  std::vector<ExprKey> Inserted;
  std::vector<size_t> ScopeStarts;

public:
  void pushScope() { ScopeStarts.push_back(Inserted.size()); }
  void popScope() {
    for (size_t K = ScopeStarts.back(); K != Inserted.size(); ++K)
      Table.erase(Inserted[K]);
    Inserted.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }

  void insert(const ExprKey &K, Value *V) {
    if (Table.emplace(K, V).second)
      Inserted.push_back(K);
  }

  Value *lookup(const ExprKey &K) const {
    auto It = Table.find(K);
    return It == Table.end() ? nullptr : It->second;
  }
};

/// Preorder dominator-tree walk from \p F's entry: \p Process sees each
/// block inside a scope of \p Table that is popped once the block's
/// subtree is done.
template <typename BlockFn>
void walkScoped(Function &F, const DominatorTree &DT, ScopedExprTable &Table,
                BlockFn Process) {
  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
  };
  std::vector<Frame> Stack;
  Table.pushScope();
  Stack.push_back({F.entry()});
  Process(F.entry());
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const auto &Kids = DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      BasicBlock *Child = Kids[Top.NextChild++];
      Table.pushScope();
      Stack.push_back({Child});
      Process(Child);
      continue;
    }
    Table.popScope();
    Stack.pop_back();
  }
}

class GVNWalker {
  Function &F;
  const DominatorTree &DT;
  GVNStats Stats;
  ScopedExprTable Table;

  /// Processes one block; returns the instructions it erased.
  void processBlock(BasicBlock *BB) {
    std::vector<Instruction *> Dead;
    for (auto &IP : *BB) {
      Instruction *I = IP.get();
      switch (I->kind()) {
      case Value::Kind::Copy: {
        // Copies do not create values; forward the source.
        auto *C = cast<CopyInst>(I);
        I->replaceAllUsesWith(C->source());
        Dead.push_back(I);
        ++Stats.CopiesForwarded;
        break;
      }
      case Value::Kind::Phi: {
        // A phi whose incomings are all the same value is that value.
        auto *P = cast<PhiInst>(I);
        if (P->numIncoming() == 0)
          break;
        Value *Common = P->incomingValue(0);
        bool AllSame = Common != P;
        for (unsigned K = 1; K != P->numIncoming(); ++K)
          if (P->incomingValue(K) != Common && P->incomingValue(K) != P)
            AllSame = false;
        if (AllSame && Common != P) {
          P->replaceAllUsesWith(Common);
          Dead.push_back(P);
          ++Stats.PhisSimplified;
        }
        break;
      }
      case Value::Kind::BinOp: {
        auto *B = cast<BinOpInst>(I);
        const void *L = B->lhs(), *R = B->rhs();
        if (isCommutativeBinOp(B->op()) && R < L)
          std::swap(L, R);
        ExprKey Key{static_cast<unsigned>(B->op()) + 1, L, R};
        if (Value *Prev = Table.lookup(Key)) {
          I->replaceAllUsesWith(Prev);
          Dead.push_back(I);
          ++Stats.BinOpsUnified;
        } else {
          Table.insert(Key, I);
        }
        break;
      }
      case Value::Kind::AddrOf: {
        auto *A = cast<AddrOfInst>(I);
        ExprKey Key{~0u, A->object(), nullptr};
        if (Value *Prev = Table.lookup(Key)) {
          I->replaceAllUsesWith(Prev);
          Dead.push_back(I);
        } else {
          Table.insert(Key, I);
        }
        break;
      }
      case Value::Kind::Load: {
        // Loads unify only under memory SSA: same version => same value.
        auto *Ld = cast<LoadInst>(I);
        if (!Ld->memUse())
          break;
        ExprKey Key{0, Ld->memUse(), nullptr};
        if (Value *Prev = Table.lookup(Key)) {
          I->replaceAllUsesWith(Prev);
          Dead.push_back(I);
          ++Stats.LoadsUnified;
        } else {
          Table.insert(Key, I);
        }
        break;
      }
      default:
        break;
      }
    }
    for (Instruction *I : Dead)
      I->eraseFromParent();
  }

public:
  GVNWalker(Function &F, const DominatorTree &DT) : F(F), DT(DT) {}

  GVNStats run() {
    walkScoped(F, DT, Table, [this](BasicBlock *BB) { processBlock(BB); });
    return Stats;
  }
};

/// The read-only twin of GVNWalker: identical scoped preorder walk and
/// expression keys, but hits are recorded in a leader map instead of
/// rewriting uses. Because nothing is erased, later expressions still
/// name their original operands; keying resolves each operand through
/// the leader map first so chains (copy-of-copy, binop over forwarded
/// copies) land on the same key runGVN would have produced.
class TableBuilder {
  Function &F;
  const DominatorTree &DT;
  std::unordered_map<const Value *, Value *> &Leader;
  ScopedExprTable Table;

  Value *leaderOf(Value *V) const {
    auto It = Leader.find(V);
    return It == Leader.end() ? V : It->second;
  }

  void processBlock(BasicBlock *BB) {
    for (auto &IP : *BB) {
      Instruction *I = IP.get();
      switch (I->kind()) {
      case Value::Kind::Copy:
        Leader[I] = leaderOf(cast<CopyInst>(I)->source());
        break;
      case Value::Kind::Phi: {
        auto *P = cast<PhiInst>(I);
        if (P->numIncoming() == 0)
          break;
        Value *Common = P->incomingValue(0);
        bool AllSame = Common != P;
        for (unsigned K = 1; K != P->numIncoming(); ++K)
          if (P->incomingValue(K) != Common && P->incomingValue(K) != P)
            AllSame = false;
        if (AllSame && Common != P)
          Leader[P] = leaderOf(Common);
        break;
      }
      case Value::Kind::BinOp: {
        auto *B = cast<BinOpInst>(I);
        const void *L = leaderOf(B->lhs()), *R = leaderOf(B->rhs());
        if (isCommutativeBinOp(B->op()) && R < L)
          std::swap(L, R);
        ExprKey Key{static_cast<unsigned>(B->op()) + 1, L, R};
        if (Value *Prev = Table.lookup(Key))
          Leader[I] = Prev;
        else
          Table.insert(Key, I);
        break;
      }
      case Value::Kind::AddrOf: {
        ExprKey Key{~0u, cast<AddrOfInst>(I)->object(), nullptr};
        if (Value *Prev = Table.lookup(Key))
          Leader[I] = Prev;
        else
          Table.insert(Key, I);
        break;
      }
      case Value::Kind::Load: {
        auto *Ld = cast<LoadInst>(I);
        if (!Ld->memUse())
          break;
        ExprKey Key{0, Ld->memUse(), nullptr};
        if (Value *Prev = Table.lookup(Key))
          Leader[I] = Prev;
        else
          Table.insert(Key, I);
        break;
      }
      default:
        break;
      }
    }
  }

public:
  TableBuilder(Function &F, const DominatorTree &DT,
               std::unordered_map<const Value *, Value *> &Leader)
      : F(F), DT(DT), Leader(Leader) {}

  void run() {
    walkScoped(F, DT, Table, [this](BasicBlock *BB) { processBlock(BB); });
  }
};

} // namespace

bool srp::isCommutativeBinOp(BinOpKind K) {
  switch (K) {
  case BinOpKind::Add:
  case BinOpKind::Mul:
  case BinOpKind::And:
  case BinOpKind::Or:
  case BinOpKind::Xor:
  case BinOpKind::CmpEQ:
  case BinOpKind::CmpNE:
    return true;
  default:
    return false;
  }
}

GVNStats srp::runGVN(Function &F, const DominatorTree &DT) {
  return GVNWalker(F, DT).run();
}

void ValueNumberTable::build(Function &F, const DominatorTree &DT) {
  Leader.clear();
  TableBuilder(F, DT, Leader).run();
}
