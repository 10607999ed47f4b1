//===- analysis/Dominators.cpp - Dominator tree and frontiers ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/Function.h"
#include <algorithm>
#include <cassert>

using namespace srp;

void DominatorTree::recompute(Function &Fn) {
  F = &Fn;
  RPO.clear();
  Nodes.assign(Fn.blockNumberBound(), Node());
  ChildList.clear();
  FrontierList.clear();

  computeRPO();
  computeIDoms();
  computeTreeNumbers();
  computeFrontiers();
}

void DominatorTree::computeRPO() {
  // Iterative DFS from the entry block; a node's BB is set when the DFS
  // first reaches it.
  struct Frame {
    BasicBlock *BB;
    unsigned Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F->entry();
  Nodes[Entry->number()].BB = Entry;
  Stack.push_back({Entry});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next == Top.BB->numSuccs()) {
      RPO.push_back(Top.BB); // postorder, reversed below
      Stack.pop_back();
      continue;
    }
    BasicBlock *S = Top.BB->succ(Top.Next++);
    Node &N = Nodes[S->number()];
    if (!N.BB) {
      N.BB = S;
      Stack.push_back({S});
    }
  }
  std::reverse(RPO.begin(), RPO.end());
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    Nodes[RPO[I]->number()].RPONum = I;
}

void DominatorTree::computeIDoms() {
  // Cooper-Harvey-Kennedy: iterate intersect() over RPO until fixpoint. A
  // reachable block's IDom stays null until its first visit.
  BasicBlock *Entry = F->entry();
  Nodes[Entry->number()].IDom = Entry; // temporarily self, fixed up below

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (Nodes[A->number()].RPONum > Nodes[B->number()].RPONum)
        A = Nodes[A->number()].IDom;
      while (Nodes[B->number()].RPONum > Nodes[A->number()].RPONum)
        B = Nodes[B->number()].IDom;
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *P : BB->preds()) {
        const Node *PN = find(P);
        if (!PN || !PN->IDom)
          continue; // unreachable or not yet processed
        NewIDom = NewIDom ? Intersect(NewIDom, P) : P;
      }
      assert(NewIDom && "reachable block with no processed predecessor");
      Node &N = Nodes[BB->number()];
      if (N.IDom != NewIDom) {
        N.IDom = NewIDom;
        Changed = true;
      }
    }
  }
  Nodes[Entry->number()].IDom = nullptr;

  // Children, laid out per parent in RPO order: count, then place each
  // block (visited in RPO) into its parent's run.
  for (BasicBlock *BB : RPO)
    if (BasicBlock *D = Nodes[BB->number()].IDom)
      ++Nodes[D->number()].ChildEnd;
  unsigned Offset = 0;
  for (BasicBlock *BB : RPO) {
    Node &N = Nodes[BB->number()];
    N.ChildBegin = Offset;
    Offset += N.ChildEnd;
    N.ChildEnd = N.ChildBegin;
  }
  ChildList.resize(Offset);
  for (BasicBlock *BB : RPO)
    if (BasicBlock *D = Nodes[BB->number()].IDom)
      ChildList[Nodes[D->number()].ChildEnd++] = BB;
}

void DominatorTree::computeTreeNumbers() {
  unsigned Counter = 0;
  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F->entry();
  Nodes[Entry->number()].DfsIn = Counter++;
  Stack.push_back({Entry});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    Node &N = Nodes[Top.BB->number()];
    if (N.ChildBegin + Top.NextChild == N.ChildEnd) {
      N.DfsOut = Counter++;
      Stack.pop_back();
      continue;
    }
    BasicBlock *Child = ChildList[N.ChildBegin + Top.NextChild++];
    Nodes[Child->number()].DfsIn = Counter++;
    Stack.push_back({Child});
  }
}

void DominatorTree::computeFrontiers() {
  // Cooper-Harvey-Kennedy dominance frontier computation. Join blocks are
  // those with two or more reachable predecessors — plus the entry block
  // when it has any predecessor at all (un-canonicalised CFGs may loop
  // back to the entry, making it part of its own frontier).
  //
  // Joins are visited in RPO, so each runner collects its frontier in RPO
  // order; a join reached twice from one runner is recorded once. The
  // (runner, join) pairs are then laid out per runner like the children.
  std::vector<std::pair<BasicBlock *, BasicBlock *>> Pairs;
  std::vector<BasicBlock *> LastJoin(Nodes.size(), nullptr);
  for (BasicBlock *BB : RPO) {
    unsigned ReachablePreds = 0;
    for (BasicBlock *P : BB->preds())
      if (contains(P))
        ++ReachablePreds;
    bool IsJoin = ReachablePreds >= 2 ||
                  (BB == F->entry() && ReachablePreds >= 1);
    if (!IsJoin)
      continue;
    BasicBlock *Stop = Nodes[BB->number()].IDom;
    for (BasicBlock *P : BB->preds()) {
      if (!contains(P))
        continue;
      for (BasicBlock *Runner = P; Runner && Runner != Stop;
           Runner = Nodes[Runner->number()].IDom) {
        BasicBlock *&Last = LastJoin[Runner->number()];
        if (Last == BB)
          continue;
        Last = BB;
        Pairs.push_back({Runner, BB});
        ++Nodes[Runner->number()].FrontierEnd;
      }
    }
  }
  unsigned Offset = 0;
  for (BasicBlock *BB : RPO) {
    Node &N = Nodes[BB->number()];
    N.FrontierBegin = Offset;
    Offset += N.FrontierEnd;
    N.FrontierEnd = N.FrontierBegin;
  }
  FrontierList.resize(Offset);
  for (const auto &[Runner, Join] : Pairs)
    FrontierList[Nodes[Runner->number()].FrontierEnd++] = Join;
}

std::span<BasicBlock *const>
DominatorTree::children(const BasicBlock *BB) const {
  const Node *N = find(BB);
  if (!N)
    return {};
  return {ChildList.data() + N->ChildBegin, N->ChildEnd - N->ChildBegin};
}

BasicBlock *DominatorTree::commonDominator(BasicBlock *A,
                                           BasicBlock *B) const {
  assert(contains(A) && contains(B) && "block not in dominator tree");
  while (A != B) {
    if (rpoNumber(A) > rpoNumber(B))
      A = idom(A);
    else
      B = idom(B);
  }
  return A;
}

std::span<BasicBlock *const>
DominatorTree::frontier(const BasicBlock *BB) const {
  const Node *N = find(BB);
  if (!N)
    return {};
  return {FrontierList.data() + N->FrontierBegin,
          N->FrontierEnd - N->FrontierBegin};
}

std::vector<BasicBlock *> DominatorTree::iteratedFrontier(
    const std::vector<BasicBlock *> &Defs) const {
  // Work-set flags by block number: bit 0 queued, bit 1 in the result.
  enum : uint8_t { Queued = 1, InResult = 2 };
  std::vector<uint8_t> State(Nodes.size(), 0);
  std::vector<BasicBlock *> Result, Work;
  for (BasicBlock *BB : Defs) {
    if (!contains(BB) || (State[BB->number()] & Queued))
      continue;
    State[BB->number()] |= Queued;
    Work.push_back(BB);
  }
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *DF : frontier(BB)) {
      uint8_t &S = State[DF->number()];
      if (S & InResult)
        continue;
      S |= InResult;
      Result.push_back(DF);
      if (!(S & Queued)) {
        S |= Queued;
        Work.push_back(DF);
      }
    }
  }
  std::sort(Result.begin(), Result.end(),
            [&](BasicBlock *A, BasicBlock *B) {
              return rpoNumber(A) < rpoNumber(B);
            });
  return Result;
}
