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
#include "core/FunctionLiveness.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "liveness/DataflowLiveness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
}

/// A lexeme of printed IR. Whitespace and comments are kept as Space tokens
/// so that joining the tokens reproduces the text.
struct Token {
  enum Kind { Space, ValueRef, Word, Number, Punct } K;
  std::string S;
};

std::vector<Token> lex(const std::string &Text) {
  std::vector<Token> Out;
  std::size_t Pos = 0;
  while (Pos != Text.size()) {
    std::size_t Start = Pos;
    char C = Text[Pos];
    Token::Kind K;
    if (C == ';' || C == '#' || std::isspace(static_cast<unsigned char>(C))) {
      while (Pos != Text.size() &&
             (std::isspace(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == ';' || Text[Pos] == '#')) {
        if (Text[Pos] == ';' || Text[Pos] == '#')
          while (Pos != Text.size() && Text[Pos] != '\n')
            ++Pos;
        else
          ++Pos;
      }
      K = Token::Space;
    } else if (C == '%' || C == '@' || isIdentChar(C) ||
               (C == '-' && Pos + 1 != Text.size() &&
                std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))) {
      ++Pos;
      while (Pos != Text.size() && isIdentChar(Text[Pos]))
        ++Pos;
      bool Digits = std::all_of(
          Text.begin() + Start + (C == '-'), Text.begin() + Pos,
          [](char D) { return std::isdigit(static_cast<unsigned char>(D)); });
      K = C == '%' ? Token::ValueRef : Digits ? Token::Number : Token::Word;
    } else {
      ++Pos;
      K = Token::Punct;
    }
    Out.push_back({K, Text.substr(Start, Pos - Start)});
  }
  return Out;
}

std::string join(const std::vector<Token> &Toks) {
  std::string Out;
  for (const Token &T : Toks)
    Out += T.S;
  return Out;
}

enum class Mutation {
  DropToken,
  DuplicateToken,
  SwapTokens,
  RetargetLabel,
  RenameValue,
  MoveInstruction,
  WidenImmediate,
  Truncate,
};
constexpr unsigned NumMutations = 8;

/// One printed seed function plus the names a mutation may substitute.
struct Seed {
  std::string Text;
  std::vector<std::string> Labels;
  std::vector<std::string> Values;
};

Seed makeSeed(std::uint64_t S) {
  RandomFunctionConfig Cfg;
  Cfg.TargetBlocks = 6 + S % 24;
  Cfg.GotoEdges = S % 3 == 0 ? 2 : 0;
  auto F = randomSSAFunction(77000 + S, Cfg);
  Seed Out;
  Out.Text = printFunction(*F);
  for (const auto &B : F->blocks())
    Out.Labels.push_back(B->name());
  for (const auto &V : F->values())
    Out.Values.push_back(V->name());
  return Out;
}

/// Indices of the tokens of \p Toks satisfying \p Pred.
template <class Pred>
std::vector<std::size_t> pick(const std::vector<Token> &Toks, Pred P) {
  std::vector<std::size_t> Out;
  for (std::size_t I = 0; I != Toks.size(); ++I)
    if (P(Toks[I]))
      Out.push_back(I);
  return Out;
}

/// Moves one instruction line to the top or the bottom (just before the
/// terminator) of a random block.
std::string moveInstruction(const std::string &Text, RandomEngine &Rng) {
  std::vector<std::string> Lines;
  std::size_t Start = 0;
  while (Start < Text.size()) {
    std::size_t End = Text.find('\n', Start);
    End = End == std::string::npos ? Text.size() : End + 1;
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End;
  }
  auto isLabel = [](const std::string &Line) {
    return !Line.starts_with("  ") && Line.find(':') != std::string::npos;
  };
  std::vector<std::size_t> Instrs;
  for (std::size_t I = 0; I != Lines.size(); ++I)
    if (Lines[I].starts_with("  "))
      Instrs.push_back(I);
  if (Instrs.empty())
    return Text;
  std::size_t From = Instrs[Rng.nextBelow(Instrs.size())];
  std::string Moved = Lines[From];
  Lines.erase(Lines.begin() + From);
  std::vector<std::size_t> Labels;
  for (std::size_t I = 0; I != Lines.size(); ++I)
    if (isLabel(Lines[I]))
      Labels.push_back(I);
  if (Labels.empty())
    return Text;
  std::size_t L = Rng.nextBelow(Labels.size());
  std::size_t At = Labels[L] + 1;
  if (Rng.chancePercent(50)) {
    std::size_t Next =
        L + 1 != Labels.size() ? Labels[L + 1] : Lines.size() - 1;
    At = std::max(At, Next - 1);
  }
  Lines.insert(Lines.begin() + At, Moved);
  std::string Out;
  for (const std::string &Line : Lines)
    Out += Line;
  return Out;
}

std::string mutate(const std::string &Text, const Seed &S, Mutation M,
                   RandomEngine &Rng) {
  if (M == Mutation::MoveInstruction)
    return moveInstruction(Text, Rng);
  if (M == Mutation::Truncate)
    return Text.substr(0, Rng.nextBelow(Text.size() + 1));

  std::vector<Token> Toks = lex(Text);
  auto Solid = pick(Toks, [](const Token &T) { return T.K != Token::Space; });
  if (Solid.empty())
    return Text;
  auto any = [&Rng](const std::vector<std::size_t> &From) {
    return From[Rng.nextBelow(From.size())];
  };
  switch (M) {
  case Mutation::DropToken:
    Toks.erase(Toks.begin() + any(Solid));
    break;
  case Mutation::DuplicateToken: {
    std::size_t I = any(Solid);
    Token Copy = Toks[I];
    Toks.insert(Toks.begin() + I, {Copy, {Token::Space, " "}});
    break;
  }
  case Mutation::SwapTokens: {
    std::size_t A = any(Solid), B = any(Solid);
    std::swap(Toks[A].S, Toks[B].S);
    break;
  }
  case Mutation::RetargetLabel: {
    auto Labels = pick(Toks, [&S](const Token &T) {
      return T.K == Token::Word &&
             std::find(S.Labels.begin(), S.Labels.end(), T.S) != S.Labels.end();
    });
    if (!Labels.empty())
      Toks[any(Labels)].S = S.Labels[Rng.nextBelow(S.Labels.size())];
    break;
  }
  case Mutation::RenameValue: {
    auto Refs =
        pick(Toks, [](const Token &T) { return T.K == Token::ValueRef; });
    if (!Refs.empty())
      Toks[any(Refs)].S = "%" + S.Values[Rng.nextBelow(S.Values.size())];
    break;
  }
  case Mutation::WidenImmediate: {
    auto Nums = pick(Toks, [](const Token &T) { return T.K == Token::Number; });
    if (Nums.empty())
      break;
    std::string Wide = Rng.chancePercent(50) ? "-" : "";
    Wide += static_cast<char>('1' + Rng.nextBelow(9));
    for (unsigned D = 1; D != 20; ++D)
      Wide += static_cast<char>('0' + Rng.nextBelow(10));
    Toks[any(Nums)].S = Wide;
    break;
  }
  default:
    break;
  }
  return join(Toks);
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
  Tally PerMutation[NumMutations];
  for (std::uint64_t SI = 0; SI != NumSeeds; ++SI) {
    Seed S = makeSeed(SI);
    checkInput(S.Text, "unmutated seed " + std::to_string(SI),
               PerMutation[0]);
    for (unsigned MI = 0; MI != NumMutations; ++MI) {
      for (unsigned N = 0; N != PerKind; ++N) {
        std::uint64_t RngSeed = (SI * NumMutations + MI) * PerKind + N;
        RandomEngine Rng(RngSeed);
        auto M = static_cast<Mutation>(MI);
        std::string Text = mutate(S.Text, S, M, Rng);
        // A third of the inputs stack a second mutation of any kind.
        if (Rng.chancePercent(33))
          Text = mutate(Text, S,
                        static_cast<Mutation>(Rng.nextBelow(NumMutations)),
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
  EXPECT_GT(PerMutation[static_cast<unsigned>(Mutation::RenameValue)]
                .VerifyErrors,
            0u);
  EXPECT_GT(PerMutation[static_cast<unsigned>(Mutation::WidenImmediate)]
                .ParseErrors,
            0u);
}
