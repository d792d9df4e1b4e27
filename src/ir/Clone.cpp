//===- ir/Clone.cpp - Deep function cloning -------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Clone.h"

#include "ir/Function.h"
#include "support/Debug.h"

using namespace ssalive;

std::unique_ptr<Function> ssalive::cloneFunction(const Function &F) {
  auto New = std::make_unique<Function>(F.name());

  // Mirror blocks and values first so ids line up one-to-one.
  for (const auto &B : F.blocks()) {
    [[maybe_unused]] BasicBlock *NB = New->createBlock(B->name());
    assert(NB->id() == B->id() && "block id mismatch while cloning");
  }
  for (const auto &V : F.values()) {
    [[maybe_unused]] Value *NV = New->createValue(V->name());
    assert(NV->id() == V->id() && "value id mismatch while cloning");
  }

  // Edges in successor order. That leaves each predecessor list sorted by
  // block id, but an edit (an edge removed, then re-added) may have
  // reordered the original's, and φ incoming blocks follow predecessor
  // order: copy the lists.
  for (const auto &B : F.blocks())
    for (const BasicBlock *S : B->successors())
      New->block(B->id())->addSuccessor(New->block(S->id()));
  for (const auto &B : F.blocks()) {
    std::vector<BasicBlock *> &Preds = New->block(B->id())->Preds;
    for (std::size_t I = 0; I != Preds.size(); ++I)
      Preds[I] = New->block(B->predecessors()[I]->id());
  }

  // Instructions.
  for (const auto &B : F.blocks()) {
    BasicBlock *NB = New->block(B->id());
    for (const auto &I : B->instructions()) {
      std::vector<Value *> Ops;
      Ops.reserve(I->numOperands());
      for (const Value *Op : I->operands())
        Ops.push_back(New->value(Op->id()));
      Value *Result =
          I->result() ? New->value(I->result()->id()) : nullptr;
      auto NI = std::make_unique<Instruction>(I->opcode(), Result,
                                              std::move(Ops), I->immediate());
      if (I->isPhi())
        for (const BasicBlock *In : I->incomingBlocks())
          NI->addIncomingBlock(New->block(In->id()));
      NB->append(std::move(NI));
    }
  }
  return New;
}
