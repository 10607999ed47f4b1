//===- ir/Value.h - Value hierarchy root -----------------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Root of the value hierarchy: every SSA name in the IR (constants,
/// arguments, instruction results, and memory SSA names) is a Value. Values
/// track their users so transformations can RAUW and find dead definitions.
///
/// Following the paper's model (Sastry & Ju, PLDI'98 §3), memory locations
/// are tagged with resources that are themselves put in SSA form and treated
/// uniformly with register values; see MemoryName in ir/Memory.h.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_VALUE_H
#define SRP_IR_VALUE_H

#include "support/Casting.h"
#include <cstdint>
#include <string>
#include <vector>

namespace srp {

class Instruction;

/// Scalar type of a value. The IR is deliberately minimal: 64-bit integers,
/// pointers (addresses of memory objects / array cells) and void.
enum class Type : uint8_t { Void, Int, Ptr };

/// Returns a printable spelling of \p Ty.
const char *typeName(Type Ty);

/// A single use of a Value by an Instruction. \p IsMem distinguishes memory
/// operands (uses of MemoryName versions: mu-operands, phi sources) from
/// register operands.
struct Use {
  Instruction *User;
  unsigned Index;
  bool IsMem;

  bool operator==(const Use &RHS) const {
    return User == RHS.User && Index == RHS.Index && IsMem == RHS.IsMem;
  }
};

class Value {
public:
  /// Discriminator for the value hierarchy (LLVM-style closed hierarchy with
  /// manual RTTI). Instruction opcodes live in [FirstInst, LastInst].
  enum class Kind : uint8_t {
    ConstantInt,
    Undef,
    Argument,
    MemoryName,
    // Instructions. Keep this range contiguous; Instruction::classof relies
    // on it.
    FirstInst,
    BinOp = FirstInst,
    Copy,
    Phi,
    Load,
    Store,
    AddrOf,
    PtrLoad,
    PtrStore,
    ArrayLoad,
    ArrayStore,
    Call,
    Print,
    Br,
    CondBr,
    Ret,
    MemPhi,
    DummyLoad,
    LastInst = DummyLoad,
  };

private:
  const Kind K;
  Type Ty;
  std::string Name;
  std::vector<Use> Uses;

protected:
  Value(Kind K, Type Ty, std::string Name = "")
      : K(K), Ty(Ty), Name(std::move(Name)) {}

public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value() = default;

  Kind kind() const { return K; }
  Type type() const { return Ty; }

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// All uses of this value. Order is insertion order; do not rely on it for
  /// semantics.
  const std::vector<Use> &uses() const { return Uses; }
  bool hasUses() const { return !Uses.empty(); }
  unsigned numUses() const { return static_cast<unsigned>(Uses.size()); }

  /// Use-list maintenance; called by Instruction operand setters only.
  void addUse(const Use &U) { Uses.push_back(U); }
  void removeUse(const Use &U);

  /// Rewrites every use of this value to refer to \p New instead. \p New
  /// must be type- and category-compatible (memory names only replace memory
  /// names).
  void replaceAllUsesWith(Value *New);

  /// Renders the value reference (e.g. "%t3", "42", "x.2") to a string.
  std::string referenceString() const;

  /// Appends the value reference to \p Out; the one place its spelling
  /// lives (referenceString and the IR printer both go through it).
  void appendReference(std::string &Out) const;
};

/// An integer literal. Uniqued and owned by the Module.
class ConstantInt : public Value {
  int64_t V;

public:
  explicit ConstantInt(int64_t V) : Value(Kind::ConstantInt, Type::Int), V(V) {}

  int64_t value() const { return V; }

  static bool classof(const Value *V) {
    return V->kind() == Kind::ConstantInt;
  }
};

/// The undefined value (value of an uninitialized local). Owned by Module.
class UndefValue : public Value {
public:
  UndefValue() : Value(Kind::Undef, Type::Int) {}

  static bool classof(const Value *V) { return V->kind() == Kind::Undef; }
};

class Function;

/// An incoming formal argument of a Function.
class Argument : public Value {
  Function *Parent;
  unsigned Index;

public:
  Argument(Function *Parent, unsigned Index, std::string Name)
      : Value(Kind::Argument, Type::Int, std::move(Name)), Parent(Parent),
        Index(Index) {}

  Function *parent() const { return Parent; }
  unsigned index() const { return Index; }

  static bool classof(const Value *V) { return V->kind() == Kind::Argument; }
};

} // namespace srp

#endif // SRP_IR_VALUE_H
