//===- analysis/Reducibility.h - Reducible control flow ---------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reducibility test per the paper's Section 2.1 (after Hecht & Ullman): a
/// CFG is reducible iff every DFS back edge's target dominates its source.
/// Section 6.1 reports how rare irreducibility is in practice (60 of 238427
/// edges, 7 of 4823 functions); the CFG mutator's reducibility-preserving
/// mode and the Table-1 bench rely on this test. The paper's Theorem-2
/// single-test fast path for reducible graphs is not used by LiveCheck
/// (see the soundness note in core/LiveCheck.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_ANALYSIS_REDUCIBILITY_H
#define SSALIVE_ANALYSIS_REDUCIBILITY_H

#include "analysis/DomTree.h"

namespace ssalive {

/// Outcome of the reducibility analysis.
struct ReducibilityInfo {
  bool Reducible = true;
  /// Back edges whose target fails to dominate their source.
  std::vector<std::pair<unsigned, unsigned>> IrreducibleEdges;
  unsigned numBackEdges = 0;
};

/// Classifies \p G using an existing DFS and dominator tree.
ReducibilityInfo analyzeReducibility(const DFS &D, const DomTree &DT);

} // namespace ssalive

#endif // SSALIVE_ANALYSIS_REDUCIBILITY_H
