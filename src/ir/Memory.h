//===- ir/Memory.h - Memory resources and memory SSA names -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's memory-resource model (§3): every scalar memory location
/// (global variable, address-exposed local, scalar struct component, array)
/// is tagged with a unique identifier, a MemoryObject. Memory SSA puts the
/// singleton resources in SSA form: each MemoryObject gets a chain of
/// MemoryName versions (x0, x1, ...) defined by stores, memory phis, or
/// aliased definitions (calls and pointer stores, which define a new version
/// of every object in their alias set).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_MEMORY_H
#define SRP_IR_MEMORY_H

#include "ir/Value.h"
#include <cstdint>

namespace srp {

class Function;
class Instruction;
class MemoryName;

/// A memory location known to the compiler: a singleton resource (scalar
/// global, address-taken local, struct field) or an array (aggregate of
/// cells; never promotable, but still versioned so stores to it are ordered).
class MemoryObject {
public:
  enum class Kind : uint8_t {
    Global, ///< File-scope scalar variable.
    Local,  ///< Address-exposed local scalar (has memory semantics).
    Field,  ///< Scalar component of a (global) struct variable.
    Array,  ///< Array of cells; aliased refs only, never promoted.
  };

private:
  unsigned Id;
  std::string Name;
  Kind K;
  Function *Owner;     ///< Null for module-scope objects.
  unsigned Size;       ///< Number of int cells (1 for scalars).
  int64_t Init;        ///< Initial value of cell 0 (scalars).
  bool AddressTaken = false;
  unsigned NextVersion = 0;

public:
  MemoryObject(unsigned Id, std::string Name, Kind K, Function *Owner,
               unsigned Size = 1, int64_t Init = 0)
      : Id(Id), Name(std::move(Name)), K(K), Owner(Owner), Size(Size),
        Init(Init) {}

  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }
  Kind kind() const { return K; }
  Function *owner() const { return Owner; }
  unsigned size() const { return Size; }
  int64_t initialValue() const { return Init; }

  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

  /// A promotable resource is a scalar whose value can live in a virtual
  /// register: anything but an array.
  bool isPromotable() const { return K != Kind::Array; }

  /// Objects whose value escapes the function (globals, fields, and
  /// address-taken anything) are in the mod/ref set of calls.
  bool isVisibleToCalls() const {
    return K == Kind::Global || K == Kind::Field || AddressTaken;
  }

  unsigned takeVersionNumber() { return NextVersion++; }
  void resetVersions() { NextVersion = 0; }
};

/// One SSA version of a MemoryObject (the paper's x0, x1, ...). Defined
/// either by an instruction (Store, MemPhi, or an aliased store: Call,
/// PtrStore, ArrayStore) or by nothing at all, in which case it is the
/// function-entry (live-in) version.
class MemoryName : public Value {
  MemoryObject *Obj;
  Instruction *Def; ///< Defining instruction; null for the entry version.
  unsigned Version;
  unsigned Number;

public:
  MemoryName(MemoryObject *Obj, unsigned Version, unsigned Number)
      : Value(Kind::MemoryName, Type::Void,
              Obj->name() + "." + std::to_string(Version)),
        Obj(Obj), Def(nullptr), Version(Version), Number(Number) {}

  MemoryObject *object() const { return Obj; }
  unsigned version() const { return Version; }
  /// Dense per-function number, below Function::memoryNameBound(); an index
  /// into vectors over the function's names. Never reused within the
  /// function, so a table sized before a name was created does not cover it.
  unsigned number() const { return Number; }

  Instruction *def() const { return Def; }
  void setDef(Instruction *I) { Def = I; }
  bool isEntryVersion() const { return Def == nullptr; }

  static bool classof(const Value *V) {
    return V->kind() == Kind::MemoryName;
  }
};

} // namespace srp

#endif // SRP_IR_MEMORY_H
