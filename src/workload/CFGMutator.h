//===- workload/CFGMutator.h - Random structural CFG edits ------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized structural mutation of existing CFGs (and of IR functions'
/// block graphs): edge insertion, edge removal, branch retargeting, and
/// block splitting. This is the driver of the incremental-analysis
/// differential fuzz suite — every mutation lands in the owner's delta
/// journal, the incremental plane (DFS::recompute, DomTree::applyUpdates,
/// LiveCheck::update, AnalysisManager::refresh) consumes it, and the suite
/// asserts the repaired analyses answer exactly like a from-scratch
/// rebuild, in the spirit of Barany's liveness-driven random program
/// generation.
///
/// Two modes: the reducibility-preserving mode only applies edits that
/// provably or verifiably keep the CFG reducible (the regime of the
/// paper's corpus), while the general mode
/// admits arbitrary edits including irreducibility-creating ones. Both
/// modes maintain the one invariant every analysis requires: all nodes
/// stay reachable from the entry (candidate edits that would break it are
/// rolled back — the rollbacks deliberately remain in the journal, so
/// multi-delta batches get exercised too).
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_WORKLOAD_CFGMUTATOR_H
#define SSALIVE_WORKLOAD_CFGMUTATOR_H

#include "ir/CFG.h"
#include "support/RandomEngine.h"

#include <optional>

namespace ssalive {

class Function;

/// The four structural edit shapes.
enum class MutationKind : unsigned char {
  AddEdge,        ///< New edge From -> To.
  RemoveEdge,     ///< Existing edge From -> To removed.
  RetargetBranch, ///< Edge From -> To moved to From -> To2.
  SplitBlock,     ///< From's out-edges moved to new node To; From -> To.
};

/// One applied mutation, for replay diagnostics.
struct Mutation {
  MutationKind Kind;
  unsigned From = 0;
  unsigned To = 0;
  unsigned To2 = 0; ///< RetargetBranch only: the new target.
};

/// Knobs for the mutator.
struct CFGMutatorOptions {
  /// Only apply edits that keep the graph reducible (verified; candidates
  /// that break it are rolled back and retried).
  bool PreserveReducibility = false;
  /// SplitBlock stops proposing once the graph reaches this many nodes.
  unsigned MaxNodes = 4096;
  /// Mutation mix, in percent; the remainder becomes SplitBlock.
  unsigned AddEdgePercent = 35;
  unsigned RemoveEdgePercent = 25;
  unsigned RetargetPercent = 30;
  /// When nonzero, new edge targets are drawn within this dominance-
  /// preorder distance of the edit site instead of uniformly — the
  /// localized rewiring a transform pass actually does (jump threading,
  /// branch simplification, loop edits), as opposed to the fuzzer's
  /// adversarial global edits. 0 = uniform.
  unsigned LocalityWindow = 0;
};

/// Applies one random structural mutation to \p G (journaled through the
/// CFG's normal mutators). Returns the applied mutation, or std::nullopt
/// when no applicable edit was found within the retry budget.
std::optional<Mutation> mutateCFG(CFG &G, RandomEngine &Rng,
                                  const CFGMutatorOptions &Opts = {});

/// The IR-level sibling: same edit distribution against \p F's block
/// graph (BasicBlock::addSuccessor/removeSuccessor, Function::createBlock,
/// so the function's delta journal records the batch). The edit is chosen
/// on a scratch graph copy first, so rejected candidates never touch the
/// function — its journal receives exactly the clean applied deltas.
/// Liveness-analysis invariants are maintained (reachability; φ operand
/// lists stay parallel to shrinking predecessor lists); full IR executable
/// well-formedness (terminator shapes) is not, which the analyses never
/// inspect.
std::optional<Mutation> mutateFunctionCFG(Function &F, RandomEngine &Rng,
                                          const CFGMutatorOptions &Opts = {});

/// Replays an already-chosen mutation against \p F's block graph — the
/// application half of mutateFunctionCFG, exported on its own because it is
/// a *deterministic* function of (F, M): two copies of the same function
/// fed the same mutation sequence end up with identical block graphs, φ
/// operand lists, and delta journals. The liveness server's CFG-edit
/// command and the differential soak/fuzz clients rely on exactly this to
/// keep a remote session and a local oracle in lockstep. Returns false
/// (leaving \p F untouched) when \p M does not apply — an edge endpoint out
/// of range, a RemoveEdge/RetargetBranch naming a non-edge or leaving a
/// block unreachable from the entry, an AddEdge that already exists, or a
/// SplitBlock whose new-block id is not numBlocks().
bool applyFunctionMutation(Function &F, const Mutation &M);

} // namespace ssalive

#endif // SSALIVE_WORKLOAD_CFGMUTATOR_H
