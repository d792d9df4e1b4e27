//===- ir/IRParser.cpp - Textual IR input ---------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/Function.h"
#include "support/Debug.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <tuple>

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

/// Name -> id table of one function's values or blocks: open addressing
/// with linear probing over a power-of-two array of (hash, id + 1) slots,
/// kept at most half full. Keys are not stored; a probe whose hash matches
/// compares the name of the entity the slot points at, which the function
/// keeps anyway. Eight bytes a slot and no allocation per name, so a
/// function's tables stay small even when several functions parse at once.
class NameTable {
public:
  /// Sized for about \p Expected names without growing.
  explicit NameTable(std::size_t Expected)
      : Slots(std::bit_ceil(std::max<std::size_t>(16, 2 * Expected))) {}

  /// The id of the entity called \p Name, or NotFound. \p NameOf(Id) is
  /// the name of entity Id.
  template <class NameOfFn>
  unsigned find(std::string_view Name, NameOfFn NameOf) const {
    std::uint32_t H = hash(Name);
    for (std::size_t I = H & mask();; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (S.IdPlus1 == 0)
        return NotFound;
      if (S.Hash == H && NameOf(S.IdPlus1 - 1) == Name)
        return S.IdPlus1 - 1;
    }
  }

  /// find(), except that a new name gets the id \p Create() returns.
  template <class NameOfFn, class CreateFn>
  unsigned findOrCreate(std::string_view Name, NameOfFn NameOf,
                        CreateFn Create) {
    std::uint32_t H = hash(Name);
    for (std::size_t I = H & mask();; I = (I + 1) & mask()) {
      Slot &S = Slots[I];
      if (S.IdPlus1 == 0) {
        unsigned Id = Create();
        S = {H, Id + 1};
        if (++Size * 2 > Slots.size())
          grow();
        return Id;
      }
      if (S.Hash == H && NameOf(S.IdPlus1 - 1) == Name)
        return S.IdPlus1 - 1;
    }
  }

  static constexpr unsigned NotFound = ~0u;

private:
  struct Slot {
    std::uint32_t Hash = 0;
    std::uint32_t IdPlus1 = 0; ///< 0: empty.
  };

  static std::uint32_t hash(std::string_view Name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(Name));
  }
  std::size_t mask() const { return Slots.size() - 1; }

  void grow() {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    for (const Slot &S : Old) {
      if (S.IdPlus1 == 0)
        continue;
      std::size_t I = S.Hash & mask();
      while (Slots[I].IdPlus1 != 0)
        I = (I + 1) & mask();
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  std::size_t Size = 0;
};

/// Recursive-descent parser over a single function body. Blocks and values
/// are created lazily on first mention, so forward references (loop φs,
/// forward jumps) need no second pass; terminators record pending successor
/// labels that are wired into CFG edges once all blocks exist. Names are
/// views into the text, which outlives the parse; a std::string is made
/// only when a Value, a BasicBlock or a diagnostic keeps one, and the
/// symbol tables key on those (see NameTable).
class Parser {
public:
  // Printed IR spends roughly 45 bytes per value and 300 per block; a
  // slightly denser guess keeps the tables from growing as they fill.
  explicit Parser(std::string_view Text)
      : Text(Text), ValuesByName(Text.size() / 32),
        BlocksByName(Text.size() / 256) {}

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

  /// The name of entity Id, for the symbol tables' probes.
  auto valueName() const {
    return [this](unsigned Id) -> auto & { return F->value(Id)->name(); };
  }
  auto blockName() const {
    return [this](unsigned Id) -> auto & { return F->block(Id)->name(); };
  }

  // Entity lookup with lazy creation.
  Value *getValue(std::string_view Name) {
    unsigned Id = ValuesByName.findOrCreate(Name, valueName(), [&] {
      return F->createValue(std::string(Name))->id();
    });
    return F->value(Id);
  }

  BasicBlock *getBlock(std::string_view Name) {
    unsigned Id = BlocksByName.findOrCreate(Name, blockName(), [&] {
      return F->createBlock(std::string(Name))->id();
    });
    return F->block(Id);
  }

  /// The block called \p Name, or null if it was never mentioned.
  BasicBlock *findBlock(std::string_view Name) const {
    unsigned Id = BlocksByName.find(Name, blockName());
    return Id == NameTable::NotFound ? nullptr : F->block(Id);
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
  NameTable ValuesByName;
  NameTable BlocksByName;
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
    BasicBlock *Target = findBlock(Label);
    if (!Target || Target->empty())
      return fail("jump to undefined block '" + std::string(Label) + "'");
    const auto &Succs = Block->successors();
    if (std::find(Succs.begin(), Succs.end(), Target) != Succs.end())
      return fail("duplicate edge to block '" + std::string(Label) + "'");
    Block->addSuccessor(Target);
  }
  // Patch φ incoming blocks.
  for (auto &[Phi, Idx, Label] : PendingPhis) {
    BasicBlock *Incoming = findBlock(Label);
    if (!Incoming)
      return fail("phi references undefined block '" + std::string(Label) +
                  "'");
    Phi->setIncomingBlock(Idx, Incoming);
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

ModuleSplit ssalive::splitModule(std::string_view Text) {
  // The grammar has exactly one brace pair per function, so the module
  // splits at every top-level '}' (outside comments).
  ModuleSplit S;
  std::size_t ChunkStart = 0;
  std::size_t ChunkStartLine = 1;
  std::size_t Line = 1;
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
    S.Functions.push_back(
        {Text.substr(ChunkStart, Pos + 1 - ChunkStart), ChunkStartLine});
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
      S.TrailingInput = true;
      break;
    }
  }
  return S;
}

ParseResult ssalive::parseModuleFunction(const ModuleChunk &Chunk,
                                         std::size_t Index) {
  ParseResult R = parseFunction(Chunk.Text);
  if (R.Func)
    return R;
  // Parser diagnostics are "line N: msg" relative to the chunk.
  std::size_t RelLine = 0;
  if (std::sscanf(R.Error.c_str(), "line %zu:", &RelLine) == 1)
    R.Error = "line " + std::to_string(Chunk.FirstLine + RelLine - 1) +
              R.Error.substr(R.Error.find(':'));
  R.Error = "function " + std::to_string(Index + 1) + ", " + R.Error;
  return R;
}

ModuleParseResult ssalive::parseModule(std::string_view Text) {
  ModuleParseResult R;
  ModuleSplit S = splitModule(Text);
  R.Funcs.reserve(S.Functions.size());
  for (std::size_t I = 0; I != S.Functions.size(); ++I) {
    ParseResult FR = parseModuleFunction(S.Functions[I], I);
    if (!FR.Func) {
      R.Funcs.clear();
      R.Error = std::move(FR.Error);
      return R;
    }
    R.Funcs.push_back(std::move(FR.Func));
  }
  if (S.TrailingInput) {
    R.Funcs.clear();
    R.Error = TrailingInputError;
  }
  return R;
}
