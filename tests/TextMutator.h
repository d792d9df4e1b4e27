//===- tests/TextMutator.h - Token-level mutation of IR text ----*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Grammar-aware mutations of printed IR text, shared by the suites that
/// fuzz the untrusted text path: a lexer that keeps whitespace and comments
/// as tokens (joining the tokens reproduces the text), and mutations that
/// drop, duplicate or swap tokens, retarget labels, rename values, move an
/// instruction line, widen an immediate past int64, or truncate the text.
/// Every mutation is a pure function of its input and the RandomEngine.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_TESTS_TEXTMUTATOR_H
#define SSALIVE_TESTS_TEXTMUTATOR_H

#include "support/RandomEngine.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace ssalive::testutil {

inline bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
}

/// A lexeme of printed IR. Whitespace and comments are kept as Space tokens
/// so that joining the tokens reproduces the text.
struct Token {
  enum Kind { Space, ValueRef, Word, Number, Punct } K;
  std::string S;
};

inline std::vector<Token> lex(const std::string &Text) {
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

inline std::string join(const std::vector<Token> &Toks) {
  std::string Out;
  for (const Token &T : Toks)
    Out += T.S;
  return Out;
}

enum class TextMutation {
  DropToken,
  DuplicateToken,
  SwapTokens,
  RetargetLabel,
  RenameValue,
  MoveInstruction,
  WidenImmediate,
  Truncate,
};
constexpr unsigned NumTextMutations = 8;

/// Printed seed text plus the names a mutation may substitute.
struct MutationSeed {
  std::string Text;
  std::vector<std::string> Labels;
  std::vector<std::string> Values;
};

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
inline std::string moveInstruction(const std::string &Text,
                                   RandomEngine &Rng) {
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

inline std::string mutate(const std::string &Text, const MutationSeed &S,
                          TextMutation M, RandomEngine &Rng) {
  if (M == TextMutation::MoveInstruction)
    return moveInstruction(Text, Rng);
  if (M == TextMutation::Truncate)
    return Text.substr(0, Rng.nextBelow(Text.size() + 1));

  std::vector<Token> Toks = lex(Text);
  auto Solid = pick(Toks, [](const Token &T) { return T.K != Token::Space; });
  if (Solid.empty())
    return Text;
  auto any = [&Rng](const std::vector<std::size_t> &From) {
    return From[Rng.nextBelow(From.size())];
  };
  switch (M) {
  case TextMutation::DropToken:
    Toks.erase(Toks.begin() + any(Solid));
    break;
  case TextMutation::DuplicateToken: {
    std::size_t I = any(Solid);
    Token Copy = Toks[I];
    Toks.insert(Toks.begin() + I, {Copy, {Token::Space, " "}});
    break;
  }
  case TextMutation::SwapTokens: {
    std::size_t A = any(Solid), B = any(Solid);
    std::swap(Toks[A].S, Toks[B].S);
    break;
  }
  case TextMutation::RetargetLabel: {
    auto Labels = pick(Toks, [&S](const Token &T) {
      return T.K == Token::Word &&
             std::find(S.Labels.begin(), S.Labels.end(), T.S) != S.Labels.end();
    });
    if (!Labels.empty())
      Toks[any(Labels)].S = S.Labels[Rng.nextBelow(S.Labels.size())];
    break;
  }
  case TextMutation::RenameValue: {
    auto Refs =
        pick(Toks, [](const Token &T) { return T.K == Token::ValueRef; });
    if (!Refs.empty())
      Toks[any(Refs)].S = "%" + S.Values[Rng.nextBelow(S.Values.size())];
    break;
  }
  case TextMutation::WidenImmediate: {
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

} // namespace ssalive::testutil

#endif // SSALIVE_TESTS_TEXTMUTATOR_H
