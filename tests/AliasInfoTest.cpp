//===- tests/AliasInfoTest.cpp - alias model tests ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's alias assumptions (§3): calls may use/modify every escaping
/// singleton resource, pointer references touch the address-taken ones,
/// array accesses touch only their array, and returns observe module-scope
/// memory. AliasInfo encodes exactly that model.
///
//===----------------------------------------------------------------------===//

#include "ssa/MemorySSA.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "TestHelpers.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

bool contains(const std::vector<MemoryObject *> &Set,
              const MemoryObject *Obj) {
  return std::find(Set.begin(), Set.end(), Obj) != Set.end();
}

std::vector<MemoryObject *> toVector(ObjectRefs Refs) {
  return {Refs.begin(), Refs.end()};
}

struct AliasFixture {
  std::unique_ptr<Module> M;
  Function *Main;
  MemoryObject *G;      ///< plain global
  MemoryObject *GP;     ///< address-taken global
  MemoryObject *Arr;    ///< global array
  MemoryObject *Fld;    ///< struct field
  MemoryObject *Loc;    ///< plain local
  MemoryObject *LocP;   ///< address-taken local

  AliasFixture() {
    M = std::make_unique<Module>();
    G = M->createGlobal("g", 0);
    GP = M->createGlobal("gp", 0);
    GP->setAddressTaken();
    Arr = M->createGlobalArray("arr", 8);
    Fld = M->createField("s.f", 1);
    Main = M->createFunction("main", Type::Void);
    Loc = Main->createLocal("loc", MemoryObject::Kind::Local);
    LocP = Main->createLocal("locp", MemoryObject::Kind::Local);
    LocP->setAddressTaken();
  }
};

TEST(AliasInfoTest, CallModRefIsEscapingMemory) {
  AliasFixture Fx;
  AliasInfo AI = AliasInfo::compute(*Fx.Main);
  EXPECT_TRUE(contains(AI.CallModRef, Fx.G));
  EXPECT_TRUE(contains(AI.CallModRef, Fx.GP));
  EXPECT_TRUE(contains(AI.CallModRef, Fx.Arr));
  EXPECT_TRUE(contains(AI.CallModRef, Fx.Fld));
  EXPECT_TRUE(contains(AI.CallModRef, Fx.LocP)); // escaped via &
  EXPECT_FALSE(contains(AI.CallModRef, Fx.Loc)); // private
}

TEST(AliasInfoTest, PointerAliasesAreAddressTakenOnly) {
  AliasFixture Fx;
  AliasInfo AI = AliasInfo::compute(*Fx.Main);
  EXPECT_TRUE(contains(AI.PointerAliases, Fx.GP));
  EXPECT_TRUE(contains(AI.PointerAliases, Fx.LocP));
  EXPECT_FALSE(contains(AI.PointerAliases, Fx.G));
  EXPECT_FALSE(contains(AI.PointerAliases, Fx.Loc));
  EXPECT_FALSE(contains(AI.PointerAliases, Fx.Arr)); // address never taken
}

TEST(AliasInfoTest, ReturnObservesModuleScopeOnly) {
  AliasFixture Fx;
  AliasInfo AI = AliasInfo::compute(*Fx.Main);
  EXPECT_TRUE(contains(AI.EscapingAtReturn, Fx.G));
  EXPECT_TRUE(contains(AI.EscapingAtReturn, Fx.Fld));
  EXPECT_FALSE(contains(AI.EscapingAtReturn, Fx.LocP)); // dies at return
  EXPECT_FALSE(contains(AI.EscapingAtReturn, Fx.Loc));
}

TEST(AliasInfoTest, PerInstructionEffects) {
  AliasFixture Fx;
  AliasInfo AI = AliasInfo::compute(*Fx.Main);
  IRBuilder B(Fx.Main->createBlock("entry"));

  Instruction *Ld = B.load(Fx.G);
  EXPECT_EQ(toVector(AI.useObjects(*Ld)), std::vector<MemoryObject *>{Fx.G});
  EXPECT_TRUE(AI.defObjects(*Ld).empty());

  Instruction *St = B.store(Fx.G, B.constant(1));
  EXPECT_TRUE(AI.useObjects(*St).empty());
  EXPECT_EQ(toVector(AI.defObjects(*St)), std::vector<MemoryObject *>{Fx.G});

  Value *Addr = B.addrOf(Fx.GP);
  Instruction *PS = B.ptrStore(Addr, B.constant(2));
  EXPECT_TRUE(AI.defObjects(*PS).contains(Fx.GP));
  EXPECT_FALSE(AI.defObjects(*PS).contains(Fx.G));
  // Pointer stores also "use" the old contents (chi merges).
  EXPECT_TRUE(AI.useObjects(*PS).contains(Fx.GP));

  Instruction *AL = cast<Instruction>(B.arrayLoad(Fx.Arr, B.constant(0)));
  EXPECT_EQ(toVector(AI.useObjects(*AL)), std::vector<MemoryObject *>{Fx.Arr});

  Instruction *AS = B.arrayStore(Fx.Arr, B.constant(1), B.constant(3));
  EXPECT_TRUE(AI.defObjects(*AS).contains(Fx.Arr));
  // Partial update of the aggregate reads the rest of it.
  EXPECT_TRUE(AI.useObjects(*AS).contains(Fx.Arr));

  Instruction *Ret = B.ret();
  EXPECT_TRUE(AI.useObjects(*Ret).contains(Fx.G));
  EXPECT_TRUE(AI.defObjects(*Ret).empty());
}

TEST(AliasInfoTest, DeterministicOrdering) {
  AliasFixture Fx;
  AliasInfo A1 = AliasInfo::compute(*Fx.Main);
  AliasInfo A2 = AliasInfo::compute(*Fx.Main);
  EXPECT_EQ(A1.CallModRef, A2.CallModRef);
  EXPECT_EQ(A1.PointerAliases, A2.PointerAliases);
  EXPECT_EQ(A1.AllObjects, A2.AllObjects);
  // Sorted by object id.
  for (size_t I = 1; I < A1.AllObjects.size(); ++I)
    EXPECT_LT(A1.AllObjects[I - 1]->id(), A1.AllObjects[I]->id());
}

TEST(AliasInfoTest, OtherFunctionsLocalsExcluded) {
  AliasFixture Fx;
  Function *Other = Fx.M->createFunction("other", Type::Void);
  MemoryObject *OtherLoc =
      Other->createLocal("x", MemoryObject::Kind::Local);
  OtherLoc->setAddressTaken();

  AliasInfo AI = AliasInfo::compute(*Fx.Main);
  // Another function's locals are not in this function's universe.
  EXPECT_FALSE(contains(AI.AllObjects, OtherLoc));
  EXPECT_FALSE(contains(AI.PointerAliases, OtherLoc));
}

} // namespace
