//===- ir/Value.cpp - Value hierarchy root implementation ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"
#include "ir/Instruction.h"
#include "ir/Memory.h"
#include <algorithm>
#include <charconv>

using namespace srp;

const char *srp::typeName(Type Ty) {
  switch (Ty) {
  case Type::Void:
    return "void";
  case Type::Int:
    return "int";
  case Type::Ptr:
    return "ptr";
  }
  return "?";
}

void Value::removeUse(const Use &U) {
  auto It = std::find(Uses.begin(), Uses.end(), U);
  assert(It != Uses.end() && "use not found on value");
  *It = Uses.back();
  Uses.pop_back();
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with self");
  // Setting an operand mutates our use list, so drain from a snapshot.
  std::vector<Use> Snapshot = Uses;
  for (const Use &U : Snapshot) {
    if (U.IsMem) {
      assert(isa<MemoryName>(New) &&
             "memory operand replaced by non-memory value");
      U.User->setMemOperand(U.Index, cast<MemoryName>(New));
    } else {
      U.User->setOperand(U.Index, New);
    }
  }
  assert(Uses.empty() && "stale uses after RAUW");
}

void Value::appendReference(std::string &Out) const {
  switch (K) {
  case Kind::ConstantInt: {
    char Buf[24];
    const int64_t V = static_cast<const ConstantInt *>(this)->value();
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
    return;
  }
  case Kind::Undef:
    Out += "undef";
    return;
  case Kind::MemoryName:
    Out += Name;
    return;
  default:
    Out += '%';
    Out += Name;
    return;
  }
}

std::string Value::referenceString() const {
  std::string S;
  appendReference(S);
  return S;
}
