//===- ir/Value.h - IR values (variables) -----------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Values are the variables of the IR. A value records the instructions that
/// define it (exactly one under SSA) and an automatically maintained list of
/// its uses — the def-use chain the paper's query algorithm walks ("A list
/// of uses for each variable, also known as def-use chain, is available",
/// Section 1).
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_VALUE_H
#define SSALIVE_IR_VALUE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace ssalive {

class Instruction;
class BasicBlock;

/// A use site: the using instruction and the operand slot it occupies.
/// For φ-instructions the operand index also identifies the incoming
/// predecessor block, which is where Definition 1 of the paper places the
/// use for liveness purposes.
struct Use {
  Instruction *User = nullptr;
  unsigned OperandIndex = 0;

  bool operator==(const Use &RHS) const {
    return User == RHS.User && OperandIndex == RHS.OperandIndex;
  }
};

/// An IR variable. Outside SSA form a value may have several defining
/// instructions; the SSA verifier enforces exactly one.
class Value {
public:
  /// \p DefUseEpochs is the owning function's def-use epoch table, indexed
  /// by value id; Function::createValue grows it before constructing the
  /// value, and it outlives the value.
  Value(unsigned Id, std::string Name,
        std::vector<std::uint64_t> &DefUseEpochs)
      : Id(Id), DefUseEpochs(DefUseEpochs), Name(std::move(Name)) {}

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  /// Dense per-function id; indexes liveness universes and bitsets.
  unsigned id() const { return Id; }

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// All defining instructions (in creation order). Exactly one under SSA.
  const std::vector<Instruction *> &defs() const { return Defs; }

  /// The unique SSA definition. Asserts if the value is not single-def.
  Instruction *ssaDef() const {
    assert(Defs.size() == 1 && "value is not in SSA form");
    return Defs.front();
  }

  /// True if this value has exactly one defining instruction.
  bool hasSingleDef() const { return Defs.size() == 1; }

  /// The block containing the unique SSA definition.
  BasicBlock *defBlock() const;

  /// The def-use chain. Maintained by Instruction operand bookkeeping.
  const std::vector<Use> &uses() const { return Uses; }

  bool hasUses() const { return !Uses.empty(); }
  unsigned numUses() const { return static_cast<unsigned>(Uses.size()); }

  /// Counts every edit to this value's def-use chain (def or use added or
  /// removed). Caches that hold a per-value view of the chain — the
  /// prepared-liveness cache numbers the Definition-1 use blocks once per
  /// value — key their entries on this so a chain edit drops exactly the
  /// edited value's entry, the per-value analogue of the function-level
  /// cfgVersion(). The counter lives in the owning function's dense table
  /// (Function::defUseEpoch(id)), so a cache can check it by id without
  /// touching the Value.
  std::uint64_t defUseEpoch() const { return DefUseEpochs[Id]; }

  /// \name Bookkeeping called by Instruction only.
  /// @{
  void addDef(Instruction *I) {
    Defs.push_back(I);
    ++DefUseEpochs[Id];
  }
  void removeDef(Instruction *I);
  void addUse(Instruction *User, unsigned OperandIndex) {
    Uses.push_back(Use{User, OperandIndex});
    ++DefUseEpochs[Id];
  }
  void removeUse(Instruction *User, unsigned OperandIndex);
  /// @}

private:
  unsigned Id;
  std::vector<std::uint64_t> &DefUseEpochs;
  std::string Name;
  std::vector<Instruction *> Defs;
  std::vector<Use> Uses;
};

} // namespace ssalive

#endif // SSALIVE_IR_VALUE_H
