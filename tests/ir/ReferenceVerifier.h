//===- tests/ir/ReferenceVerifier.h - Naive SSA verdict ---------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately naive strict-SSA check: dominance from the iterated
/// set-intersection oracle computeDominatorsNaive, and intra-block order by
/// scanning the block for each use. It shares no dominance code with
/// verifySSA, which the differential and fuzz suites compare against it
/// message for message.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_TESTS_IR_REFERENCEVERIFIER_H
#define SSALIVE_TESTS_IR_REFERENCEVERIFIER_H

#include "ir/CFG.h"
#include "ir/Function.h"
#include "ir/Verifier.h"

#include <algorithm>

namespace ssalive::testutil {

/// verifySSA's verdict, recomputed the slow way.
inline VerifyResult referenceVerifySSA(const Function &F) {
  VerifyResult R = verifyStructure(F);
  if (!R.ok())
    return R;
  auto Doms = computeDominatorsNaive(CFG::fromFunction(F));
  auto dominates = [&Doms](unsigned A, unsigned B) {
    return std::binary_search(Doms[B].begin(), Doms[B].end(), A);
  };
  auto instrIndex = [](const Instruction *I) {
    const auto &List = I->parent()->instructions();
    unsigned Idx = 0;
    while (Idx != List.size() && List[Idx].get() != I)
      ++Idx;
    return Idx;
  };

  for (const auto &VP : F.values()) {
    const Value *V = VP.get();
    if (V->defs().empty()) {
      if (V->hasUses())
        R.Errors.push_back("value %" + V->name() + " used but never defined");
      continue;
    }
    if (V->defs().size() > 1) {
      R.Errors.push_back("value %" + V->name() + " has multiple definitions");
      continue;
    }
    const Instruction *Def = V->defs().front();
    unsigned DefBlock = Def->parent()->id();
    for (const Use &U : V->uses()) {
      const Instruction *User = U.User;
      if (User->isPhi()) {
        const BasicBlock *From = User->incomingBlock(U.OperandIndex);
        if (!dominates(DefBlock, From->id()))
          R.Errors.push_back("phi use of %" + V->name() + " from block " +
                             From->name() + " not dominated by definition");
        continue;
      }
      unsigned UseBlock = User->parent()->id();
      if (UseBlock == DefBlock) {
        if (instrIndex(Def) >= instrIndex(User))
          R.Errors.push_back("use of %" + V->name() +
                             " before its definition in " +
                             User->parent()->name());
        continue;
      }
      if (!dominates(DefBlock, UseBlock))
        R.Errors.push_back("use of %" + V->name() + " in block " +
                           User->parent()->name() +
                           " not dominated by definition");
    }
  }
  return R;
}

} // namespace ssalive::testutil

#endif // SSALIVE_TESTS_IR_REFERENCEVERIFIER_H
