//===- tests/ir/VerifierDifferentialTest.cpp ------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// verifySSA decides dominance with the DomTree interval test and orders
// same-block uses with a def-position table. Here random strict SSA
// functions get SSA violations injected — a use moved into a block its def
// does not dominate, a use moved above its def, φ operands swapped across
// predecessors, a second definition, a result-less use — and verifySSA's
// error list must equal the naive reference verdict message for message, in
// order.
//
//===----------------------------------------------------------------------===//

#include "ReferenceVerifier.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

enum class Injection {
  NonDominatedUse,
  UseAboveDef,
  PhiOperandSwap,
  SecondDef,
  ResultlessUse,
};
constexpr unsigned NumInjections = 5;

unsigned indexOf(const Instruction *I) {
  const auto &List = I->parent()->instructions();
  unsigned Idx = 0;
  while (List[Idx].get() != I)
    ++Idx;
  return Idx;
}

/// Moves the non-φ, non-terminator \p I to position \p Index of \p To (an
/// index into the block before the move). Instructions cannot be unlinked
/// without being destroyed, so the move inserts a copy and erases the
/// original; the copy's operand uses land at the end of each use list.
void moveInstruction(Instruction *I, BasicBlock *To, unsigned Index) {
  auto Copy = std::make_unique<Instruction>(I->opcode(), I->result(),
                                            I->operands(), I->immediate());
  if (I->parent() == To && indexOf(I) < Index)
    --Index;
  I->parent()->erase(I);
  To->insertAt(Index, std::move(Copy));
}

/// Index of the first non-φ instruction of \p B.
unsigned firstNonPhi(const BasicBlock &B) {
  unsigned Idx = 0;
  while (B.instructions()[Idx]->isPhi())
    ++Idx;
  return Idx;
}

/// Non-φ, non-terminator instructions of \p F that define a value.
std::vector<Instruction *> movableDefs(Function &F) {
  std::vector<Instruction *> Out;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (!I->isPhi() && !I->isTerminator() && I->result())
        Out.push_back(I.get());
  return Out;
}

/// Applies one injection of kind \p K; false if \p F offers no site for it.
bool inject(Function &F, Injection K, RandomEngine &Rng) {
  auto Doms = computeDominatorsNaive(CFG::fromFunction(F));
  auto dominates = [&Doms](unsigned A, unsigned B) {
    return std::binary_search(Doms[B].begin(), Doms[B].end(), A);
  };
  std::vector<Instruction *> Defs = movableDefs(F);
  if (Defs.empty())
    return false;

  switch (K) {
  case Injection::NonDominatedUse: {
    // Move an instruction into a block its operands' defs do not dominate.
    for (unsigned Try = 0; Try != 32; ++Try) {
      Instruction *I = Defs[Rng.nextBelow(Defs.size())];
      if (I->numOperands() == 0 || I->operand(0)->defs().size() != 1)
        continue;
      unsigned DefBlock = I->operand(0)->defs().front()->parent()->id();
      BasicBlock *To = F.block(Rng.nextBelow(F.numBlocks()));
      if (dominates(DefBlock, To->id()))
        continue;
      moveInstruction(I, To,
                      Rng.nextInRange(firstNonPhi(*To),
                                      To->instructions().size() - 1));
      return true;
    }
    return false;
  }
  case Injection::UseAboveDef: {
    // Move a user of a value to just above that value's definition.
    for (unsigned Try = 0; Try != 32; ++Try) {
      Instruction *Def = Defs[Rng.nextBelow(Defs.size())];
      Value *V = Def->result();
      std::vector<Instruction *> Users;
      for (const Use &U : V->uses())
        if (!U.User->isPhi() && !U.User->isTerminator() && U.User != Def)
          Users.push_back(U.User);
      if (Users.empty())
        continue;
      Instruction *User = Users[Rng.nextBelow(Users.size())];
      moveInstruction(User, Def->parent(), indexOf(Def));
      return true;
    }
    return false;
  }
  case Injection::PhiOperandSwap: {
    // Swap two incoming values of a φ, preferring a pair where the moved
    // value's def does not dominate its new predecessor.
    std::vector<Instruction *> Phis;
    for (const auto &B : F.blocks())
      for (Instruction *P : B->phis())
        if (P->numOperands() >= 2)
          Phis.push_back(P);
    if (Phis.empty())
      return false;
    Instruction *Best = nullptr;
    unsigned BestA = 0, BestB = 0;
    for (unsigned Try = 0; Try != 32; ++Try) {
      Instruction *P = Phis[Rng.nextBelow(Phis.size())];
      unsigned A = Rng.nextBelow(P->numOperands());
      unsigned B = Rng.nextBelow(P->numOperands());
      if (A == B)
        continue;
      Best = P, BestA = A, BestB = B;
      const Value *VA = P->operand(A);
      if (VA->defs().size() == 1 &&
          !dominates(VA->defs().front()->parent()->id(),
                     P->incomingBlock(B)->id()))
        break;
    }
    if (!Best)
      return false;
    Value *VA = Best->operand(BestA);
    Value *VB = Best->operand(BestB);
    Best->setOperand(BestA, VB);
    Best->setOperand(BestB, VA);
    return true;
  }
  case Injection::SecondDef: {
    // Rebind an instruction's result to an already-defined value.
    Instruction *I = Defs[Rng.nextBelow(Defs.size())];
    Instruction *Other = Defs[Rng.nextBelow(Defs.size())];
    if (I == Other)
      return false;
    I->setResult(Other->result());
    return true;
  }
  case Injection::ResultlessUse: {
    // A result-less non-terminator using some value, anywhere after the φs.
    Instruction *Def = Defs[Rng.nextBelow(Defs.size())];
    BasicBlock *To = F.block(Rng.nextBelow(F.numBlocks()));
    To->insertAt(Rng.nextInRange(firstNonPhi(*To),
                                 To->instructions().size() - 1),
                 std::make_unique<Instruction>(
                     Opcode::Opaque, nullptr,
                     std::vector<Value *>{Def->result()}));
    return true;
  }
  }
  return false;
}

} // namespace

TEST(VerifierDifferential, CleanFunctionsAgreeWithReference) {
  for (std::uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 8 + Seed % 48;
    Cfg.GotoEdges = Seed % 3;
    auto F = randomSSAFunction(90000 + Seed, Cfg);
    EXPECT_TRUE(verifySSA(*F).ok());
    EXPECT_EQ(verifySSA(*F).Errors, referenceVerifySSA(*F).Errors);
  }
}

TEST(VerifierDifferential, InjectedViolationsMatchReferenceMessageForMessage) {
  unsigned Rejected[NumInjections] = {};
  unsigned Applied[NumInjections] = {};
  for (std::uint64_t Seed = 1; Seed <= 300; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 6 + Seed % 40;
    Cfg.GotoEdges = Seed % 4 == 0 ? 3 : 0;
    auto F = randomSSAFunction(91000 + Seed, Cfg);
    RandomEngine Rng(Seed);
    auto K = static_cast<Injection>(Seed % NumInjections);
    if (!inject(*F, K, Rng))
      continue;
    // Every few functions stack a second, random injection on top.
    if (Seed % 3 == 0)
      (void)inject(*F, static_cast<Injection>(Rng.nextBelow(NumInjections)),
                   Rng);
    ++Applied[static_cast<unsigned>(K)];

    VerifyResult Got = verifySSA(*F);
    VerifyResult Want = referenceVerifySSA(*F);
    EXPECT_EQ(Got.Errors, Want.Errors)
        << "seed " << Seed << "\ngot:\n"
        << Got.message() << "\nwant:\n"
        << Want.message();
    Rejected[static_cast<unsigned>(K)] += Got.ok() ? 0 : 1;
  }
  // Each injection kind must actually exercise the rejecting paths.
  for (unsigned K = 0; K != NumInjections; ++K) {
    EXPECT_GT(Applied[K], 20u) << "injection " << K;
    EXPECT_GT(Rejected[K], Applied[K] / 4) << "injection " << K;
  }
}
