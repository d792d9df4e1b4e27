//===- tests/ir/VerifierTest.cpp ------------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "TestUtil.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

static std::unique_ptr<Function> parseOk(const char *Text) {
  ParseResult R = parseFunction(Text);
  EXPECT_TRUE(R.Func) << R.Error;
  return std::move(R.Func);
}

TEST(Verifier, AcceptsWellFormedSSA) {
  auto F = parseOk(R"(
func @ok {
e:
  %a = param 0
  %c = const 1
  branch %a, l, r
l:
  %x = add %a, %c
  jump j
r:
  %y = sub %a, %c
  jump j
j:
  %m = phi [%x, l], [%y, r]
  ret %m
}
)");
  EXPECT_TRUE(verifyStructure(*F).ok());
  EXPECT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
}

TEST(Verifier, RejectsUseNotDominatedByDef) {
  // %x is defined only on the left path but used at the join.
  auto F = parseOk(R"(
func @bad {
e:
  %a = param 0
  branch %a, l, j
l:
  %x = const 1
  jump j
j:
  ret %x
}
)");
  EXPECT_TRUE(verifyStructure(*F).ok());
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("not dominated"), std::string::npos);
}

TEST(Verifier, RejectsMultipleDefinitions) {
  auto F = parseOk(R"(
func @multi {
e:
  %x = const 1
  %x = const 2
  ret %x
}
)");
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("multiple definitions"), std::string::npos);
}

TEST(Verifier, RejectsUseBeforeDefInBlock) {
  Function F("order");
  BasicBlock *E = F.createBlock();
  Value *X = F.createValue("x");
  // ret %x placed before %x = const 1 — build by hand since the parser
  // cannot express instructions after a terminator.
  E->append(std::make_unique<Instruction>(Opcode::Copy, F.createValue("y"),
                                          std::vector<Value *>{X}));
  E->append(std::make_unique<Instruction>(Opcode::Const, X,
                                          std::vector<Value *>{}, 1));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Value *>{X}));
  VerifyResult R = verifySSA(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("before its definition"), std::string::npos);
}

TEST(Verifier, RejectsPhiArityMismatch) {
  auto F = parseOk(R"(
func @phi {
e:
  %a = param 0
  branch %a, l, j
l:
  %x = const 1
  jump j
j:
  %m = phi [%x, l]
  ret %m
}
)");
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("operands for"), std::string::npos);
}

TEST(Verifier, PhiUseCheckedAtPredecessorBlock) {
  // Definition 1: the phi operand from 'l' is a use at 'l', which %x's
  // definition in 'l' dominates — valid SSA even though 'l' does not
  // dominate the join.
  auto F = parseOk(R"(
func @phiuse {
e:
  %a = param 0
  branch %a, l, r
l:
  %x = const 1
  jump j
r:
  %y = const 2
  jump j
j:
  %m = phi [%x, l], [%y, r]
  ret %m
}
)");
  EXPECT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
}

TEST(Verifier, DetectsUnreachableBlock) {
  Function F("unreachable");
  BasicBlock *E = F.createBlock("e");
  BasicBlock *Dead = F.createBlock("dead");
  IRBuilder B(F);
  B.setInsertBlock(E);
  B.createRetVoid();
  B.setInsertBlock(Dead);
  B.createRetVoid();
  VerifyResult R = verifyStructure(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("unreachable"), std::string::npos);
}

TEST(Verifier, DetectsMissingTerminator) {
  Function F("noterm");
  BasicBlock *E = F.createBlock("e");
  IRBuilder B(F);
  B.setInsertBlock(E);
  B.createConst(1);
  VerifyResult R = verifyStructure(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsCorruptUseLists) {
  // The parser and the IR mutators keep use lists consistent; corrupt one
  // record at a time by hand, check the verdict, and undo it (teardown
  // unlinks every operand through its use record).
  auto F = parseOk(R"(
func @uses {
e:
  %a = param 0
  %b = add %a, %a
  ret %b
}
)");
  auto Other = parseOk("func @other {\ne:\n  %z = param 0\n  ret %z\n}\n");
  ASSERT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
  Value *A = F->value(0), *B = F->value(1);
  Instruction *Add = F->entry()->instructions()[1].get();
  Instruction *Ret = F->entry()->instructions()[2].get();
  Instruction *Foreign = Other->entry()->instructions()[1].get();
  auto expectOnly = [&](const std::string &Want) {
    VerifyResult R = verifySSA(*F);
    ASSERT_EQ(R.Errors.size(), 1u) << R.message();
    EXPECT_EQ(R.Errors[0], Want);
  };

  A->removeUse(Add, 1); // An operand without its record.
  expectOnly("operand 1 of add in block e missing from the use list of %a");
  A->addUse(Add, 1);

  A->addUse(Add, 0); // A record twice.
  expectOnly("use list of %a records an operand twice");
  A->removeUse(Add, 0);

  // Records naming the wrong operand, a slot past the operands, and an
  // instruction of another function.
  for (Use Bad : {Use{Add, 0}, Use{Ret, 3}, Use{Foreign, 0}}) {
    B->addUse(Bad.User, Bad.OperandIndex);
    expectOnly("use list of %b names an operand that does not hold it");
    B->removeUse(Bad.User, Bad.OperandIndex);
  }
  EXPECT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
}

TEST(NaiveDominators, MatchesHandComputedDiamond) {
  CFG G = makeCFG(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  auto Doms = computeDominatorsNaive(G);
  EXPECT_EQ(Doms[0], (std::vector<unsigned>{0}));
  EXPECT_EQ(Doms[1], (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Doms[2], (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(Doms[3], (std::vector<unsigned>{0, 3}));
}

TEST(NaiveDominators, LoopBody) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3.
  CFG G = makeCFG(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  auto Doms = computeDominatorsNaive(G);
  EXPECT_EQ(Doms[2], (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(Doms[3], (std::vector<unsigned>{0, 1, 2, 3}));
}
