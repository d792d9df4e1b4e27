//===- ir/Function.cpp - IR functions -------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

using namespace ssalive;

BasicBlock *Function::createBlock(std::string BlockName) {
  unsigned Id = numBlocks();
  if (BlockName.empty())
    BlockName = "bb" + std::to_string(Id);
  Blocks.push_back(std::make_unique<BasicBlock>(Id, std::move(BlockName)));
  Blocks.back()->setParent(this);
  recordCFGDelta(CFGDelta::nodeAdd(Id));
  return Blocks.back().get();
}

Value *Function::createValue(std::string ValueName) {
  unsigned Id = numValues();
  if (ValueName.empty())
    ValueName = "v" + std::to_string(Id);
  DefUseEpochs.push_back(0);
  Values.push_back(
      std::make_unique<Value>(Id, std::move(ValueName), DefUseEpochs));
  return Values.back().get();
}

std::vector<Value *> Function::parameters() const {
  std::vector<Value *> Params;
  if (Blocks.empty())
    return Params;
  for (const auto &I : entry()->instructions())
    if (I->opcode() == Opcode::Param)
      Params.push_back(I->result());
  return Params;
}

unsigned Function::numEdges() const {
  unsigned N = 0;
  for (const auto &B : Blocks)
    N += B->numSuccessors();
  return N;
}
