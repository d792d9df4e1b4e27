//===- liveness/LivenessOracle.h - Brute-force ground truth -----*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately naive decision procedure implementing the paper's
/// Definitions 2 and 3 verbatim: a live-in query runs a fresh graph search
/// from q for a def-free path to a use; a live-out query is the
/// disjunction of live-in over the successors. It shares no algorithm with
/// the fast engine: no precomputation, no dominance numbering, no R/T sets.
/// It does read the same def-use chains (Value::uses(), placed at blocks by
/// liveUseBlock), so it is the ground truth for the cross-validation
/// property tests only as far as those chains are right; verifySSA checks
/// them against the operands.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_LIVENESS_LIVENESSORACLE_H
#define SSALIVE_LIVENESS_LIVENESSORACLE_H

#include "core/LivenessInterface.h"
#include "ir/CFG.h"
#include "ir/Function.h"

#include <vector>

namespace ssalive {

/// O(V + E) per query; testing only.
class LivenessOracle : public LivenessQueries {
public:
  explicit LivenessOracle(const Function &F)
      : F(F), G(CFG::fromFunction(F)) {}

  bool isLiveIn(const Value &V, const BasicBlock &B) override;
  bool isLiveOut(const Value &V, const BasicBlock &B) override;
  const char *backendName() const override { return "oracle"; }

  /// Block-id variants so CFG-only tests (no IR) can use the same search.
  /// Definition 2: is there a path from \p Q to a block in \p UseBlocks
  /// avoiding \p DefBlock?
  static bool liveInSearch(const CFG &G, unsigned DefBlock,
                           const std::vector<unsigned> &UseBlocks,
                           unsigned Q);
  static bool liveOutSearch(const CFG &G, unsigned DefBlock,
                            const std::vector<unsigned> &UseBlocks,
                            unsigned Q);

private:
  const Function &F;
  CFG G;
};

} // namespace ssalive

#endif // SSALIVE_LIVENESS_LIVENESSORACLE_H
