//===- ir/Value.cpp - IR values -------------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include "ir/Instruction.h"
#include "support/Debug.h"

#include <algorithm>

using namespace ssalive;

BasicBlock *Value::defBlock() const { return ssaDef()->parent(); }

void Value::removeDef(Instruction *I) {
  auto It = std::find(Defs.begin(), Defs.end(), I);
  assert(It != Defs.end() && "removing unknown def");
  Defs.erase(It);
  ++DefUseEpochs[Id];
}

void Value::removeUse(Instruction *User, unsigned OperandIndex) {
  auto It = std::find(Uses.begin(), Uses.end(), Use{User, OperandIndex});
  assert(It != Uses.end() && "removing unknown use");
  Uses.erase(It);
  ++DefUseEpochs[Id];
}
