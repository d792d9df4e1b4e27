//===- ir/Verifier.h - IR structural and SSA invariants ---------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural checks (edge/terminator/φ consistency) plus the strict-SSA
/// invariants the paper assumes: each variable has a single definition and
/// every use is dominated by it ("the program is in SSA form and the
/// dominance property must hold", Section 1). Both checks run in time
/// linear in the size of the function (plus the dominator-tree build):
/// dominance is the production DomTree's O(1) num/maxnum interval test, and
/// intra-block order comes from a def-position table. The naive quadratic
/// computeDominatorsNaive stays as the independent test oracle that the
/// DomTree and verifier suites compare against.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_VERIFIER_H
#define SSALIVE_IR_VERIFIER_H

#include <string>
#include <vector>

namespace ssalive {

class Function;
class CFG;

/// Verification report: empty Errors means the function checks out.
struct VerifyResult {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
  /// All errors joined with newlines (handy for gtest messages).
  std::string message() const;
};

/// Checks structural well-formedness: mirrored succ/pred lists, exactly one
/// terminator per block ending it, terminator arity matching successor
/// count, φs forming a block prefix with operands matching predecessors,
/// entry without predecessors, all blocks reachable.
VerifyResult verifyStructure(const Function &F);

/// Checks strict SSA form on top of the structural checks: consistent use
/// lists (each record names an operand holding its value, each operand has
/// exactly one record), single def per used value, defs before uses within
/// a block, and the dominance property under the paper's Definition 1
/// placement of φ uses. Use-list errors come first — records per value in
/// id order, then operands without a record in block order — and stop the
/// check; the rest are listed per value in id order, then per use in
/// use-list order.
VerifyResult verifySSA(const Function &F);

/// Naive quadratic dominance computation by iterated set intersection;
/// Doms[V] holds the ids of all dominators of V. Not used by verifySSA: it
/// is the test oracle for the DomTree implementations and the verifier.
std::vector<std::vector<unsigned>> computeDominatorsNaive(const CFG &G);

} // namespace ssalive

#endif // SSALIVE_IR_VERIFIER_H
