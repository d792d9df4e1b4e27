//===- ir/Function.h - IR functions -----------------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function owns its basic blocks and values and hands out dense ids for
/// both, which every analysis uses as array/bitset indices.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_FUNCTION_H
#define SSALIVE_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/CFGDelta.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssalive {

/// A single procedure: entry block, block list, value table.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  /// \name Blocks.
  /// @{
  /// Creates a new block; the first one created becomes the entry.
  BasicBlock *createBlock(std::string BlockName = "");

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  BasicBlock *block(unsigned Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id].get();
  }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  /// @}

  /// \name Values.
  /// @{
  /// Creates a fresh value. An empty name is replaced by "v<id>".
  Value *createValue(std::string ValueName = "");

  unsigned numValues() const { return static_cast<unsigned>(Values.size()); }

  Value *value(unsigned Id) const {
    assert(Id < Values.size() && "value id out of range");
    return Values[Id].get();
  }

  const std::vector<std::unique_ptr<Value>> &values() const { return Values; }

  /// The def-use epoch of value \p Id (Value::defUseEpoch). The counters
  /// live in one dense table indexed by value id, owned here rather than
  /// by each Value, so a per-value cache checks freshness with one read of
  /// contiguous memory instead of a load of the heap-allocated Value.
  std::uint64_t defUseEpoch(unsigned Id) const {
    assert(Id < DefUseEpochs.size() && "value id out of range");
    return DefUseEpochs[Id];
  }

  /// Drops the growth slack of the value tables once the value count is
  /// final (the parser calls it after the last value is created). Values
  /// do not move.
  void shrinkValueTables() {
    Values.shrink_to_fit();
    DefUseEpochs.shrink_to_fit();
  }

  /// Parameter values, in declaration order (results of Param pseudo-ops).
  std::vector<Value *> parameters() const;
  /// @}

  /// Total number of CFG edges; the quantitative evaluation reports edge
  /// densities (paper Section 6.1).
  unsigned numEdges() const;

  /// \name CFG modification epoch and delta journal.
  /// Counts structural edits to the block graph: block creation and edge
  /// insertion/removal (BasicBlock::addSuccessor/removeSuccessor bump it).
  /// Instruction and value edits leave it unchanged — the paper's Section 7
  /// stability property, which lets the AnalysisManager cache the liveness
  /// precomputation across arbitrary non-structural rewrites.
  ///
  /// Alongside the counter, the structural mutators journal what each bump
  /// did (see the delta-journal contract in ir/CFG.h — Function keeps the
  /// same journal over block ids). AnalysisManager::refresh drains
  /// deltasSince(cached epoch) to repair the function's cached analyses in
  /// place instead of rebuilding them; a bare bumpCFGVersion() poisons the
  /// journal and forces the rebuild path.
  /// @{
  std::uint64_t cfgVersion() const { return CFGEpoch; }
  void bumpCFGVersion() {
    ++CFGEpoch;
    Journal.poison(CFGEpoch);
  }
  /// Journaled epoch bump; called by the structural mutators.
  void recordCFGDelta(const CFGDelta &D) {
    ++CFGEpoch;
    Journal.record(D, CFGEpoch);
  }
  std::optional<CFGDeltaSpan> deltasSince(std::uint64_t V) const {
    return Journal.deltasSince(V, CFGEpoch);
  }
  /// @}

private:
  std::string Name;
  /// Def-use epochs by value id; every Value holds a reference to it and
  /// bumps its own slot. Declared before Values and Blocks so it outlives
  /// both: the instruction destructors bump it as they unlink their uses.
  std::vector<std::uint64_t> DefUseEpochs;
  /// Values are declared before Blocks deliberately: members are destroyed
  /// in reverse declaration order, and the instruction destructors inside
  /// the blocks unlink themselves from value def-use chains, so the values
  /// must still be alive when the blocks go away.
  std::vector<std::unique_ptr<Value>> Values;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::uint64_t CFGEpoch = 0;
  DeltaJournal Journal;
};

} // namespace ssalive

#endif // SSALIVE_IR_FUNCTION_H
