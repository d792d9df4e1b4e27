//===- ir/Clone.h - Deep function cloning -----------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep copy of a function: fresh blocks, values and instructions with
/// identical ids, names, edges and operands. The SSA pass tests clone the
/// input, transform the clone, and compare interpreter behaviour against
/// the untouched original.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_CLONE_H
#define SSALIVE_IR_CLONE_H

#include <memory>

namespace ssalive {

class Function;

/// Returns a structurally identical deep copy of \p F (same block ids,
/// value ids, instruction order, successor and predecessor order).
std::unique_ptr<Function> cloneFunction(const Function &F);

} // namespace ssalive

#endif // SSALIVE_IR_CLONE_H
