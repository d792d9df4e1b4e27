//===- ir/IRParser.cpp - Textual IR input ---------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/Function.h"
#include "support/Debug.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <tuple>
#include <unordered_map>

using namespace ssalive;

namespace {

// Character classes of the "C" locale, inlined: the lexer calls them once
// per input byte.
bool isSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlnum(char C) {
  return isDigit(C) || (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}

/// Recursive-descent parser over a single function body. Blocks and values
/// are created lazily on first mention, so forward references (loop φs,
/// forward jumps) need no second pass; terminators record pending successor
/// labels that are wired into CFG edges once all blocks exist. Names are
/// views into the text, which outlives the parse; a std::string is made
/// only when a Value, a BasicBlock or a diagnostic keeps one.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {
    // Printed IR spends roughly 45 bytes per value and 300 per block; a
    // slightly denser guess keeps the tables from rehashing as they fill.
    ValuesByName.reserve(Text.size() / 32);
    BlocksByName.reserve(Text.size() / 256);
  }

  ParseResult run();

private:
  // Lexing helpers. The format is line-oriented only for readability;
  // lexing is plain whitespace-skipping over the whole buffer.
  void skipSpace() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '#' || C == ';') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '\n')
        ++Line;
      if (!isSpace(C))
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    skipSpace();
    if (!Text.substr(Pos).starts_with(W))
      return false;
    size_t After = Pos + W.size();
    if (After < Text.size() && (isAlnum(Text[After]) || Text[After] == '_'))
      return false;
    Pos = After;
    return true;
  }

  /// The identifier at the cursor, or an empty view if there is none.
  std::string_view parseIdent() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (isAlnum(Text[Pos]) || Text[Pos] == '_' || Text[Pos] == '.'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Parses the signed decimal immediate of \p OpName into \p Out.
  bool parseImmediate(std::string_view OpName, std::int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < Text.size() && isDigit(Text[Pos]))
      ++Pos;
    if (Pos == DigitsStart)
      return fail("expected immediate after '" + std::string(OpName) + "'");
    // from_chars takes a '-' but not a '+'.
    const char *First =
        Text.data() + (Text[Start] == '+' ? DigitsStart : Start);
    auto [End, Ec] = std::from_chars(First, Text.data() + Pos, Out);
    if (Ec != std::errc())
      return fail("immediate out of range");
    return true;
  }

  // Entity lookup with lazy creation.
  Value *getValue(std::string_view Name) {
    auto [It, New] = ValuesByName.try_emplace(Name, nullptr);
    if (New)
      It->second = F->createValue(std::string(Name));
    return It->second;
  }

  BasicBlock *getBlock(std::string_view Name) {
    auto [It, New] = BlocksByName.try_emplace(Name, nullptr);
    if (New)
      It->second = F->createBlock(std::string(Name));
    return It->second;
  }

  std::optional<Value *> parseValueRef() {
    if (!consume('%'))
      return std::nullopt;
    std::string_view Name = parseIdent();
    if (Name.empty())
      return std::nullopt;
    return getValue(Name);
  }

  bool fail(const std::string &Msg) {
    Error = "line " + std::to_string(Line) + ": " + Msg;
    return false;
  }

  bool parseBody();
  bool parseBlock(std::string_view Label);
  bool parseInstruction(BasicBlock *B, bool &SawTerminator);

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  std::string Error;
  std::unique_ptr<Function> F;
  std::unordered_map<std::string_view, Value *> ValuesByName;
  std::unordered_map<std::string_view, BasicBlock *> BlocksByName;
  /// Deferred (block, successor-label) pairs; resolved after parsing so the
  /// successor order matches the terminator operand order.
  std::vector<std::pair<BasicBlock *, std::string_view>> PendingEdges;
  /// Deferred φ incoming labels: (phi, operand index, label).
  std::vector<std::tuple<Instruction *, unsigned, std::string_view>>
      PendingPhis;
};

} // namespace

bool Parser::parseInstruction(BasicBlock *B, bool &SawTerminator) {
  // Terminators.
  if (consumeWord("jump")) {
    std::string_view Label = parseIdent();
    if (Label.empty())
      return fail("expected jump target label");
    B->append(std::make_unique<Instruction>(Opcode::Jump, nullptr,
                                            std::vector<Value *>{}));
    PendingEdges.emplace_back(B, Label);
    SawTerminator = true;
    return true;
  }
  if (consumeWord("branch")) {
    auto Cond = parseValueRef();
    if (!Cond)
      return fail("expected branch condition value");
    if (!consume(','))
      return fail("expected ',' after branch condition");
    std::string_view TrueLabel = parseIdent();
    if (TrueLabel.empty() || !consume(','))
      return fail("expected two branch target labels");
    std::string_view FalseLabel = parseIdent();
    if (FalseLabel.empty())
      return fail("expected second branch target label");
    B->append(std::make_unique<Instruction>(Opcode::Branch, nullptr,
                                            std::vector<Value *>{*Cond}));
    PendingEdges.emplace_back(B, TrueLabel);
    PendingEdges.emplace_back(B, FalseLabel);
    SawTerminator = true;
    return true;
  }
  if (consumeWord("ret")) {
    std::vector<Value *> Ops;
    if (auto V = parseValueRef())
      Ops.push_back(*V);
    B->append(std::make_unique<Instruction>(Opcode::Ret, nullptr, Ops));
    SawTerminator = true;
    return true;
  }

  // Value-defining instructions: %name = op ...
  auto Result = parseValueRef();
  if (!Result)
    return fail("expected instruction");
  if (!consume('='))
    return fail("expected '=' after result value");

  struct BinOp {
    const char *Word;
    Opcode Op;
  };
  static const BinOp BinOps[] = {{"add", Opcode::Add},
                                 {"sub", Opcode::Sub},
                                 {"mul", Opcode::Mul},
                                 {"cmplt", Opcode::CmpLt},
                                 {"cmpeq", Opcode::CmpEq}};

  std::string_view OpName = parseIdent();
  if (OpName.empty())
    return fail("expected opcode mnemonic");

  if (OpName == "param" || OpName == "const") {
    std::int64_t Imm = 0;
    if (!parseImmediate(OpName, Imm))
      return false;
    Opcode Op = OpName == "param" ? Opcode::Param : Opcode::Const;
    B->append(std::make_unique<Instruction>(Op, *Result,
                                            std::vector<Value *>{}, Imm));
    return true;
  }

  if (OpName == "copy") {
    auto Src = parseValueRef();
    if (!Src)
      return fail("expected copy source value");
    B->append(std::make_unique<Instruction>(Opcode::Copy, *Result,
                                            std::vector<Value *>{*Src}));
    return true;
  }

  for (const BinOp &BO : BinOps) {
    if (OpName != BO.Word)
      continue;
    auto LHS = parseValueRef();
    if (!LHS || !consume(','))
      return fail("expected two operands");
    auto RHS = parseValueRef();
    if (!RHS)
      return fail("expected second operand");
    B->append(std::make_unique<Instruction>(
        BO.Op, *Result, std::vector<Value *>{*LHS, *RHS}));
    return true;
  }

  if (OpName == "select") {
    auto C = parseValueRef();
    if (!C || !consume(','))
      return fail("expected select operands");
    auto T = parseValueRef();
    if (!T || !consume(','))
      return fail("expected select operands");
    auto E = parseValueRef();
    if (!E)
      return fail("expected select operands");
    B->append(std::make_unique<Instruction>(
        Opcode::Select, *Result, std::vector<Value *>{*C, *T, *E}));
    return true;
  }

  if (OpName == "opaque") {
    std::vector<Value *> Ops;
    if (auto First = parseValueRef()) {
      Ops.push_back(*First);
      while (consume(',')) {
        auto Next = parseValueRef();
        if (!Next)
          return fail("expected operand after ','");
        Ops.push_back(*Next);
      }
    }
    B->append(std::make_unique<Instruction>(Opcode::Opaque, *Result, Ops));
    return true;
  }

  if (OpName == "phi") {
    auto *Phi = new Instruction(Opcode::Phi, *Result, {});
    B->append(std::unique_ptr<Instruction>(Phi));
    unsigned Idx = 0;
    do {
      if (!consume('['))
        return fail("expected '[' in phi operand");
      auto V = parseValueRef();
      if (!V || !consume(','))
        return fail("expected phi operand value");
      std::string_view Label = parseIdent();
      if (Label.empty() || !consume(']'))
        return fail("expected phi incoming label");
      Phi->addOperand(*V);
      Phi->addIncomingBlock(nullptr); // Patched after edges resolve.
      PendingPhis.emplace_back(Phi, Idx, Label);
      ++Idx;
    } while (consume(','));
    return true;
  }

  return fail("unknown opcode '" + std::string(OpName) + "'");
}

bool Parser::parseBlock(std::string_view Label) {
  BasicBlock *B = getBlock(Label);
  if (!B->empty())
    return fail("redefinition of block '" + std::string(Label) + "'");
  bool SawTerminator = false;
  while (true) {
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input in block");
    if (Text[Pos] == '}')
      break;
    // A label introduces the next block: ident ':'.
    size_t Save = Pos;
    unsigned SaveLine = Line;
    if (!parseIdent().empty()) {
      if (consume(':')) {
        Pos = Save;
        Line = SaveLine;
        break;
      }
      Pos = Save;
      Line = SaveLine;
    }
    if (SawTerminator)
      return fail("instruction after terminator");
    if (!parseInstruction(B, SawTerminator))
      return false;
  }
  if (!SawTerminator)
    return fail("block '" + std::string(Label) + "' lacks a terminator");
  return true;
}

bool Parser::parseBody() {
  if (!consumeWord("func"))
    return fail("expected 'func'");
  if (!consume('@'))
    return fail("expected '@' before function name");
  std::string_view Name = parseIdent();
  if (Name.empty())
    return fail("expected function name");
  F = std::make_unique<Function>(std::string(Name));
  if (!consume('{'))
    return fail("expected '{'");

  while (true) {
    skipSpace();
    if (consume('}'))
      break;
    std::string_view Label = parseIdent();
    if (Label.empty() || !consume(':'))
      return fail("expected block label");
    if (!parseBlock(Label))
      return false;
  }

  // Wire deferred CFG edges in terminator order. The IR has no parallel
  // edges (a branch with both targets equal), so such input is refused
  // here rather than tripping BasicBlock::addSuccessor.
  for (auto &[Block, Label] : PendingEdges) {
    auto It = BlocksByName.find(Label);
    if (It == BlocksByName.end() || It->second->empty())
      return fail("jump to undefined block '" + std::string(Label) + "'");
    const auto &Succs = Block->successors();
    if (std::find(Succs.begin(), Succs.end(), It->second) != Succs.end())
      return fail("duplicate edge to block '" + std::string(Label) + "'");
    Block->addSuccessor(It->second);
  }
  // Patch φ incoming blocks.
  for (auto &[Phi, Idx, Label] : PendingPhis) {
    auto It = BlocksByName.find(Label);
    if (It == BlocksByName.end())
      return fail("phi references undefined block '" + std::string(Label) +
                  "'");
    Phi->setIncomingBlock(Idx, It->second);
  }
  return true;
}

ParseResult Parser::run() {
  ParseResult R;
  if (!parseBody()) {
    R.Error = Error.empty() ? "parse error" : Error;
    return R;
  }
  skipSpace();
  if (Pos != Text.size()) {
    fail("trailing input after function body");
    R.Error = Error;
    return R;
  }
  F->shrinkValueTables();
  R.Func = std::move(F);
  return R;
}

ParseResult ssalive::parseFunction(std::string_view Text) {
  return Parser(Text).run();
}

ModuleParseResult ssalive::parseModule(std::string_view Text) {
  ModuleParseResult R;
  // The grammar has exactly one brace pair per function, so the module
  // splits at every top-level '}' (outside comments). Each chunk reuses the
  // single-function parser; diagnostics are re-anchored to module lines.
  std::size_t ChunkStart = 0;
  std::size_t ChunkStartLine = 1;
  std::size_t Line = 1;
  unsigned FuncIndex = 0;
  bool InComment = false;
  for (std::size_t Pos = 0; Pos != Text.size(); ++Pos) {
    char C = Text[Pos];
    if (C == '\n') {
      ++Line;
      InComment = false;
      continue;
    }
    if (InComment)
      continue;
    if (C == '#' || C == ';') {
      InComment = true;
      continue;
    }
    if (C != '}')
      continue;
    ++FuncIndex;
    ParseResult FR =
        parseFunction(Text.substr(ChunkStart, Pos + 1 - ChunkStart));
    if (!FR.Func) {
      // Parser diagnostics are "line N: msg" relative to the chunk.
      std::size_t RelLine = 0;
      if (std::sscanf(FR.Error.c_str(), "line %zu:", &RelLine) == 1)
        FR.Error = "line " +
                   std::to_string(ChunkStartLine + RelLine - 1) +
                   FR.Error.substr(FR.Error.find(':'));
      R.Funcs.clear();
      R.Error = "function " + std::to_string(FuncIndex) + ", " + FR.Error;
      return R;
    }
    R.Funcs.push_back(std::move(FR.Func));
    ChunkStart = Pos + 1;
    ChunkStartLine = Line;
  }
  // Anything after the last '}' must be whitespace or comments.
  InComment = false;
  for (std::size_t Pos = ChunkStart; Pos != Text.size(); ++Pos) {
    char C = Text[Pos];
    if (C == '\n')
      InComment = false;
    else if (InComment)
      continue;
    else if (C == '#' || C == ';')
      InComment = true;
    else if (!isSpace(C)) {
      R.Funcs.clear();
      R.Error = "trailing input after last function";
      return R;
    }
  }
  return R;
}
