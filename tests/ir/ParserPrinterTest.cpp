//===- tests/ir/ParserPrinterTest.cpp -------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include "ir/Function.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace ssalive;

static const char *LoopProgram = R"(
func @loop {
entry:
  %n = param 0
  %c0 = const 0
  jump header
header:
  %i = phi [%c0, entry], [%inc, body]
  %cond = cmplt %i, %n
  branch %cond, body, done
body:
  %c1 = const 1
  %inc = add %i, %c1
  jump header
done:
  ret %i
}
)";

TEST(IRParser, ParsesLoopWithForwardReferences) {
  ParseResult R = parseFunction(LoopProgram);
  ASSERT_TRUE(R.Func) << R.Error;
  Function &F = *R.Func;
  EXPECT_EQ(F.name(), "loop");
  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_TRUE(verifySSA(F).ok()) << verifySSA(F).message();

  // The phi must resolve %inc, which is defined later in the input.
  BasicBlock *Header = F.block(1);
  auto Phis = Header->phis();
  ASSERT_EQ(Phis.size(), 1u);
  EXPECT_EQ(Phis[0]->operand(1)->name(), "inc");
}

TEST(IRParser, RoundTripsThroughPrinter) {
  ParseResult R1 = parseFunction(LoopProgram);
  ASSERT_TRUE(R1.Func) << R1.Error;
  std::string Printed = printFunction(*R1.Func);
  ParseResult R2 = parseFunction(Printed);
  ASSERT_TRUE(R2.Func) << R2.Error << "\nfrom printed form:\n" << Printed;
  EXPECT_EQ(Printed, printFunction(*R2.Func));
}

TEST(IRParser, AcceptsComments) {
  ParseResult R = parseFunction(R"(
# leading comment
func @c {  ; trailing comment
e:          # block comment
  %x = const 5   ; why not
  ret %x
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  EXPECT_EQ(R.Func->numBlocks(), 1u);
}

TEST(IRParser, AcceptsNonSSAReassignment) {
  ParseResult R = parseFunction(R"(
func @nonssa {
e:
  %x = const 1
  %x = add %x, %x
  ret %x
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  const Value *X = R.Func->value(0);
  EXPECT_EQ(X->defs().size(), 2u);
  EXPECT_FALSE(verifySSA(*R.Func).ok());
  EXPECT_TRUE(verifyStructure(*R.Func).ok());
}

TEST(IRParser, AllOpcodesParse) {
  ParseResult R = parseFunction(R"(
func @ops {
e:
  %a = param 0
  %b = const -3
  %c = copy %a
  %d = add %a, %b
  %e = sub %d, %c
  %f = mul %e, %e
  %g = cmplt %f, %a
  %h = cmpeq %f, %b
  %i = select %g, %h, %f
  %j = opaque %i, %a, %b
  %k = opaque
  ret %j
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  EXPECT_TRUE(verifySSA(*R.Func).ok()) << verifySSA(*R.Func).message();
}

TEST(IRParser, DiagnosesErrors) {
  EXPECT_FALSE(parseFunction("garbage").Func);
  EXPECT_FALSE(parseFunction("func @f {").Func);
  EXPECT_FALSE(parseFunction("func @f { e: ret %x } }").Func);
  EXPECT_FALSE(parseFunction(R"(
func @f {
e:
  jump nowhere
}
)").Func);
  EXPECT_FALSE(parseFunction(R"(
func @f {
e:
  %x = bogusop %y
  ret %x
}
)").Func);
  // Missing terminator.
  EXPECT_FALSE(parseFunction(R"(
func @f {
e:
  %x = const 1
}
)").Func);
  // Instruction after terminator.
  EXPECT_FALSE(parseFunction(R"(
func @f {
e:
  ret %x
  %x = const 1
}
)").Func);
  ParseResult R = parseFunction("func @f { e: jump nowhere }");
  EXPECT_FALSE(R.Error.empty());
}

TEST(IRParser, RejectsParallelEdges) {
  ParseResult R = parseFunction("func @f {\ne:\n  %c = param 0\n"
                                "  branch %c, b, b\nb:\n"
                                "  %m = phi [%c, e], [%c, e]\n  ret %m\n}\n");
  EXPECT_FALSE(R.Func);
  EXPECT_EQ(R.Error, "line 8: duplicate edge to block 'b'");
}

TEST(IRParser, OutOfRangeImmediateIsADiagnosticNotAnException) {
  ParseResult R = parseFunction("func @f {\ne:\n"
                                "  %a = const 99999999999999999999\n"
                                "  ret %a\n}\n");
  EXPECT_FALSE(R.Func);
  EXPECT_EQ(R.Error, "line 3: immediate out of range");
  R = parseFunction("func @f {\ne:\n  %a = param -99999999999999999999\n"
                    "  ret %a\n}\n");
  EXPECT_EQ(R.Error, "line 3: immediate out of range");
  R = parseFunction("func @f {\ne:\n  %a = const -\n  ret %a\n}\n");
  EXPECT_EQ(R.Error, "line 3: expected immediate after 'const'");

  // The int64 extremes and an explicit '+' sign still parse.
  R = parseFunction("func @f {\ne:\n  %a = const 9223372036854775807\n"
                    "  %b = const -9223372036854775808\n"
                    "  %c = const +17\n  ret %a\n}\n");
  ASSERT_TRUE(R.Func) << R.Error;
  const auto &Instrs = R.Func->entry()->instructions();
  EXPECT_EQ(Instrs[0]->immediate(), INT64_MAX);
  EXPECT_EQ(Instrs[1]->immediate(), INT64_MIN);
  EXPECT_EQ(Instrs[2]->immediate(), 17);
  R = parseFunction("func @f {\ne:\n  %a = const 9223372036854775808\n"
                    "  ret %a\n}\n");
  EXPECT_EQ(R.Error, "line 3: immediate out of range");
}

TEST(IRPrinter, InstructionRendering) {
  ParseResult R = parseFunction(R"(
func @p {
e:
  %x = const 7
  %y = add %x, %x
  ret %y
}
)");
  ASSERT_TRUE(R.Func) << R.Error;
  const auto &Instrs = R.Func->entry()->instructions();
  EXPECT_EQ(printInstruction(*Instrs[0]), "%x = const 7");
  EXPECT_EQ(printInstruction(*Instrs[1]), "%y = add %x, %x");
  EXPECT_EQ(printInstruction(*Instrs[2]), "ret %y");
}
