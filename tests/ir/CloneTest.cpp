//===- tests/ir/CloneTest.cpp ---------------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Clone.h"

#include "TestUtil.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

TEST(Clone, PrintsIdentically) {
  ParseResult R = parseFunction(R"(
func @f {
e:
  %n = param 0
  %z = const 0
  jump h
h:
  %i = phi [%z, e], [%i2, h2]
  %c = cmplt %i, %n
  branch %c, h2, x
h2:
  %one = const 1
  %i2 = add %i, %one
  jump h
x:
  ret %i
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  auto Copy = cloneFunction(*R.Func);
  EXPECT_EQ(printFunction(*R.Func), printFunction(*Copy));
}

TEST(Clone, KeepsAnEditedPredecessorOrder) {
  // Removing l -> m and adding it back puts l after r in m's predecessor
  // list, so m's φ lists r's value first. A clone that rebuilt the lists
  // from edge insertion order would list l first and fail verifySSA.
  ParseResult R = parseFunction(R"(
func @f {
e:
  %c = param 0
  %a = const 1
  %b = const 2
  branch %c, l, r
l:
  jump m
r:
  jump m
m:
  %p = phi [%a, l], [%b, r]
  ret %p
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  Function &F = *R.Func;
  unsigned L = 1, M = 3;
  ASSERT_EQ(F.block(L)->name(), "l");
  ASSERT_EQ(F.block(M)->name(), "m");
  ASSERT_TRUE(applyFunctionMutation(F, {MutationKind::RemoveEdge, L, M, 0}));
  ASSERT_TRUE(applyFunctionMutation(F, {MutationKind::AddEdge, L, M, 0}));
  ASSERT_EQ(F.block(M)->predecessors()[0]->name(), "r");
  ASSERT_TRUE(verifySSA(F).ok()) << verifySSA(F).message();

  auto Copy = cloneFunction(F);
  VerifyResult V = verifySSA(*Copy);
  EXPECT_TRUE(V.ok()) << V.message();
  EXPECT_EQ(printFunction(F), printFunction(*Copy));
}

TEST(Clone, IsDeep) {
  ParseResult R = parseFunction(R"(
func @g {
e:
  %x = const 1
  ret %x
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  auto Copy = cloneFunction(*R.Func);
  // Mutating the clone must not affect the original.
  Copy->entry()->instructions()[0]->setResult(Copy->createValue("other"));
  EXPECT_EQ(R.Func->value(0)->defs().size(), 1u);
  EXPECT_TRUE(Copy->value(0)->defs().empty());
}

TEST(Clone, RandomFunctionsBehaveIdentically) {
  for (std::uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto F = randomSSAFunction(Seed);
    auto Copy = cloneFunction(*F);
    EXPECT_EQ(printFunction(*F), printFunction(*Copy));
    for (std::int64_t A = -2; A <= 2; ++A) {
      ExecutionResult R1 = interpret(*F, {A, 7 - A}, 256);
      ExecutionResult R2 = interpret(*Copy, {A, 7 - A}, 256);
      EXPECT_TRUE(sameObservableBehavior(R1, R2)) << "seed " << Seed;
    }
  }
}
