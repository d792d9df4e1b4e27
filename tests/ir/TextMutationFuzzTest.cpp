//===- tests/ir/TextMutationFuzzTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Grammar-aware mutation fuzzing of the untrusted text path: module text
// goes from the wire into the parser, the SSA verifier and the liveness
// engine. Seeds are printed random strict SSA functions (generateCFG +
// generateProgram + constructSSA); each input applies token-level mutations
// with a fixed seed. Every input must end in one of three ways:
//   - a well-formed parse diagnostic ("line N: msg", N inside the text);
//   - a verify verdict equal, message for message, to the naive reference;
//   - a strict SSA function whose LiveCheck answers equal DataflowLiveness
//     on every (value, block) pair.
// The suite runs under ASan+UBSan in CI, so a crash, overflow or stray read
// fails it too.
//
//===----------------------------------------------------------------------===//

#include "ReferenceVerifier.h"
#include "TestUtil.h"
#include "TextMutator.h"
#include "core/FunctionLiveness.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "liveness/DataflowLiveness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

MutationSeed makeSeed(std::uint64_t S) {
  RandomFunctionConfig Cfg;
  Cfg.TargetBlocks = 6 + S % 24;
  Cfg.GotoEdges = S % 3 == 0 ? 2 : 0;
  auto F = randomSSAFunction(77000 + S, Cfg);
  MutationSeed Out;
  Out.Text = printFunction(*F);
  for (const auto &B : F->blocks())
    Out.Labels.push_back(B->name());
  for (const auto &V : F->values())
    Out.Values.push_back(V->name());
  return Out;
}

/// "line N: msg" with N a line of \p Text (or one past a final newline).
::testing::AssertionResult wellFormedParseError(const std::string &Error,
                                                const std::string &Text) {
  unsigned Line = 0;
  int Consumed = 0;
  if (std::sscanf(Error.c_str(), "line %u: %n", &Line, &Consumed) != 1 ||
      Consumed == 0 || static_cast<std::size_t>(Consumed) == Error.size())
    return ::testing::AssertionFailure() << "malformed diagnostic: " << Error;
  unsigned Lines = 1 + std::count(Text.begin(), Text.end(), '\n');
  if (Line < 1 || Line > Lines)
    return ::testing::AssertionFailure()
           << "line " << Line << " outside 1.." << Lines << ": " << Error;
  return ::testing::AssertionSuccess();
}

/// Outcome counts, to prove the mutations reach every stage.
struct Tally {
  unsigned ParseErrors = 0, VerifyErrors = 0, Checked = 0;
};

void checkInput(const std::string &Text, const std::string &Where, Tally &T) {
  SCOPED_TRACE(Where);
  ParseResult P = parseFunction(Text);
  // The module entry point splits the same text into chunks; it must not
  // disagree about well-formedness of a single function.
  ModuleParseResult MP = parseModule(Text);
  if (!P.Func) {
    ++T.ParseErrors;
    EXPECT_TRUE(wellFormedParseError(P.Error, Text)) << Text;
    EXPECT_TRUE(MP.Funcs.size() != 1 || !MP.Error.empty()) << Text;
    return;
  }
  EXPECT_TRUE(MP.Error.empty() && MP.Funcs.size() == 1)
      << MP.Error << "\n" << Text;

  VerifyResult V = verifySSA(*P.Func);
  EXPECT_EQ(V.Errors, referenceVerifySSA(*P.Func).Errors) << Text;
  if (!V.ok()) {
    ++T.VerifyErrors;
    return;
  }

  ++T.Checked;
  const Function &F = *P.Func;
  FunctionLiveness Fast(F);
  DataflowLiveness Dataflow(F);
  for (const auto &VP : F.values()) {
    if (VP->defs().empty())
      continue;
    for (const auto &B : F.blocks()) {
      ASSERT_EQ(Fast.isLiveIn(*VP, *B), Dataflow.isLiveIn(*VP, *B))
          << "%" << VP->name() << " in " << B->name() << "\n" << Text;
      ASSERT_EQ(Fast.isLiveOut(*VP, *B), Dataflow.isLiveOut(*VP, *B))
          << "%" << VP->name() << " out " << B->name() << "\n" << Text;
    }
  }
}

} // namespace

TEST(TextMutationFuzz, EveryMutantParsesVerifiesOrAnswersLikeDataflow) {
  constexpr unsigned NumSeeds = 16, PerKind = 50;
  Tally PerMutation[NumTextMutations];
  for (std::uint64_t SI = 0; SI != NumSeeds; ++SI) {
    MutationSeed S = makeSeed(SI);
    checkInput(S.Text, "unmutated seed " + std::to_string(SI),
               PerMutation[0]);
    for (unsigned MI = 0; MI != NumTextMutations; ++MI) {
      for (unsigned N = 0; N != PerKind; ++N) {
        std::uint64_t RngSeed = (SI * NumTextMutations + MI) * PerKind + N;
        RandomEngine Rng(RngSeed);
        auto M = static_cast<TextMutation>(MI);
        std::string Text = mutate(S.Text, S, M, Rng);
        // A third of the inputs stack a second mutation of any kind.
        if (Rng.chancePercent(33))
          Text = mutate(
              Text, S,
              static_cast<TextMutation>(Rng.nextBelow(NumTextMutations)),
              Rng);
        checkInput(Text,
                   "seed " + std::to_string(SI) + ", mutation " +
                       std::to_string(MI) + ", rng " + std::to_string(RngSeed),
                   PerMutation[MI]);
        if (::testing::Test::HasFatalFailure())
          return;
      }
    }
  }
  // The suite as a whole must reach every outcome, and the mutations aimed
  // at the verifier and at the immediate range must hit their targets.
  Tally Total;
  for (const Tally &T : PerMutation) {
    Total.ParseErrors += T.ParseErrors;
    Total.VerifyErrors += T.VerifyErrors;
    Total.Checked += T.Checked;
  }
  EXPECT_GT(Total.ParseErrors, 100u);
  EXPECT_GT(Total.VerifyErrors, 100u);
  EXPECT_GT(Total.Checked, 100u);
  EXPECT_GT(PerMutation[static_cast<unsigned>(TextMutation::RenameValue)]
                .VerifyErrors,
            0u);
  EXPECT_GT(PerMutation[static_cast<unsigned>(TextMutation::WidenImmediate)]
                .ParseErrors,
            0u);
}
