//===- ir/BasicBlock.h - CFG basic blocks -----------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks: a list of instructions plus explicit successor/predecessor
/// edges. Successor order is semantically meaningful (Branch takes successor
/// 0 when the condition is true) and predecessor order is what φ operands
/// index.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_BASICBLOCK_H
#define SSALIVE_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <memory>
#include <string>
#include <vector>

namespace ssalive {

class Function;

/// A node of the control-flow graph holding a straight-line instruction
/// sequence ended by at most one terminator.
class BasicBlock {
public:
  BasicBlock(unsigned Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  /// Dense per-function id; node index for all CFG analyses.
  unsigned id() const { return Id; }

  const std::string &name() const { return Name; }

  Function *parent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  /// \name Instruction list.
  /// @{
  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Instrs;
  }
  bool empty() const { return Instrs.empty(); }

  /// Appends \p I; a terminator may only be the last instruction.
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Inserts \p I at position \p Index.
  Instruction *insertAt(unsigned Index, std::unique_ptr<Instruction> I);

  /// Inserts \p I directly before the terminator (or at the end when the
  /// block has no terminator yet). This is where SSA destruction places the
  /// copies it adds to predecessor blocks.
  Instruction *insertBeforeTerminator(std::unique_ptr<Instruction> I);

  /// Removes and destroys \p I (dropping its operand references).
  void erase(Instruction *I);

  /// The terminator, or nullptr if none has been appended yet.
  Instruction *terminator() const;

  /// All φ-instructions (they must form a prefix of the block).
  std::vector<Instruction *> phis() const;
  /// @}

  /// \name CFG edges.
  /// @{
  const std::vector<BasicBlock *> &successors() const { return Succs; }
  const std::vector<BasicBlock *> &predecessors() const { return Preds; }
  unsigned numSuccessors() const { return static_cast<unsigned>(Succs.size()); }
  unsigned numPredecessors() const {
    return static_cast<unsigned>(Preds.size());
  }

  /// The position of \p Pred in the predecessor list; this is the φ operand
  /// index for values flowing in from \p Pred. Asserts if absent.
  unsigned predecessorIndex(const BasicBlock *Pred) const;

  /// Links this block to \p Succ (appends to both edge lists). Duplicate
  /// edges are permitted by CFG theory but rejected here for simplicity.
  /// Bumps the parent function's CFG epoch.
  void addSuccessor(BasicBlock *Succ);

  /// Unlinks the edge to \p Succ (which must exist): removes it from both
  /// edge lists and drops the corresponding operand from every φ in \p Succ
  /// so φ operands stay parallel to the predecessor list. Bumps the parent
  /// function's CFG epoch. The caller is responsible for the terminator
  /// still naming \p Succ, if any.
  void removeSuccessor(BasicBlock *Succ);
  /// @}

private:
  /// Copies predecessor lists verbatim: an edited block's predecessor
  /// order need not follow any edge insertion order of the clone.
  friend std::unique_ptr<Function> cloneFunction(const Function &F);

  unsigned Id;
  std::string Name;
  Function *Parent = nullptr;
  std::vector<std::unique_ptr<Instruction>> Instrs;
  std::vector<BasicBlock *> Succs;
  std::vector<BasicBlock *> Preds;
};

} // namespace ssalive

#endif // SSALIVE_IR_BASICBLOCK_H
