//===- tests/server/ModuleLoadTest.cpp ------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The server's module load: the text is split at function boundaries and
// each function is parsed and verified as one ticket of the shared pool.
// The contract under test is that the parallel load is invisible on the
// wire: for any text, good or bad, a 4-thread SessionManager replies
// byte for byte what serial parseModule + verifySSA decide (the lowest
// parse error, then trailing input, then an empty module, then the lowest
// verify error), and a loaded module has the serial parse's functions,
// ids, phi operand order and cfgVersion. Also here: a session's reload
// cycle leaves the prepared-arena gauges flat. The suite runs under ASan
// and TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "server/SessionManager.h"

#include "TestUtil.h"
#include "TextMutator.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

namespace {

std::vector<std::uint8_t> loadRequest(const std::string &Text) {
  return proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text);
}

/// The reply a serial load gives: parseModule, then verifySSA on each
/// function in order, with the server's wording of each verdict.
std::vector<std::uint8_t> serialReply(const std::string &Text) {
  ModuleParseResult P = parseModule(Text);
  std::string Error = P.Error;
  if (Error.empty() && P.Funcs.empty())
    Error = "module has no functions";
  for (std::size_t I = 0; Error.empty() && I != P.Funcs.size(); ++I) {
    VerifyResult V = verifySSA(*P.Funcs[I]);
    if (!V.ok())
      Error = "function @" + P.Funcs[I]->name() + ": " + V.message();
  }
  if (!Error.empty())
    return proto::encodeError(proto::ErrorCode::BadModule, Error);
  std::uint64_t Blocks = 0, Values = 0;
  for (const auto &F : P.Funcs) {
    Blocks += F->numBlocks();
    Values += F->numValues();
  }
  return proto::encodeModuleLoaded(static_cast<std::uint32_t>(P.Funcs.size()),
                                   Blocks, Values);
}

/// The session's module is the serial parse of \p Text: same functions in
/// the same order, the same value and block ids, the same instructions and
/// phi operand order (the printed form), and the same cfgVersion.
void expectSerialModule(const server::Session &S, const std::string &Text) {
  ModuleParseResult P = parseModule(Text);
  ASSERT_EQ(S.numFunctions(), P.Funcs.size());
  for (unsigned I = 0; I != S.numFunctions(); ++I) {
    const Function &Got = S.function(I), &Want = *P.Funcs[I];
    SCOPED_TRACE("function " + std::to_string(I));
    EXPECT_EQ(printFunction(Got), printFunction(Want));
    EXPECT_EQ(Got.cfgVersion(), Want.cfgVersion());
    ASSERT_EQ(Got.numValues(), Want.numValues());
    for (unsigned V = 0; V != Got.numValues(); ++V)
      EXPECT_EQ(Got.value(V)->name(), Want.value(V)->name());
    ASSERT_EQ(Got.numBlocks(), Want.numBlocks());
    for (unsigned B = 0; B != Got.numBlocks(); ++B)
      EXPECT_EQ(Got.block(B)->name(), Want.block(B)->name());
  }
}

/// \p N generated strict SSA functions, printed; the I-th has about
/// 6 + Step * I blocks.
std::vector<std::string> printedFunctions(std::uint64_t Seed, unsigned N,
                                          unsigned Step = 7) {
  std::vector<std::string> Out;
  for (unsigned I = 0; I != N; ++I) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 6 + Step * I;
    Cfg.GotoEdges = I % 3 == 2 ? 2 : 0;
    Out.push_back(printFunction(*randomSSAFunction(Seed * 97 + I, Cfg)));
  }
  return Out;
}

std::string concat(const std::vector<std::string> &Funcs) {
  std::string Text;
  for (const std::string &F : Funcs)
    Text += F + "\n";
  return Text;
}

/// A function that parses but is not strict SSA (use before def).
std::string notSSA(const std::string &Name) {
  return "func @" + Name +
         " {\nentry:\n  %a = add %b, %b\n  %b = const 1\n  ret %a\n}\n";
}

/// Breaks the parse of \p F: its first instruction's opcode is misspelt.
std::string unparsable(std::string F) {
  std::size_t Eq = F.find(" = ");
  EXPECT_NE(Eq, std::string::npos);
  F.insert(Eq + 3, "qwerty_");
  return F;
}

std::uint64_t gauge(const char *Name) {
  return telemetry::Registry::global().value(Name);
}

} // namespace

TEST(ModuleLoad, MalformedCorpusRepliesLikeTheSerialLoad) {
  const std::vector<std::string> Good = printedFunctions(5, 6);
  auto with = [&](std::vector<std::pair<unsigned, std::string>> Swaps) {
    std::vector<std::string> Funcs = Good;
    for (auto &[I, F] : Swaps)
      Funcs[I] = std::move(F);
    return concat(Funcs);
  };
  struct Case {
    const char *Name;
    std::string Text;
    const char *Expect; ///< A substring of the error text; null: loads.
  };
  const std::vector<Case> Corpus = {
      {"good module", concat(Good), nullptr},
      {"parse error in function 4 alone", with({{3, unparsable(Good[3])}}),
       "function 4, line"},
      {"parse errors in functions 2 and 5",
       with({{1, unparsable(Good[1])}, {4, unparsable(Good[4])}}),
       "function 2, line"},
      {"parse error after a verify error",
       with({{0, notSSA("early")}, {4, unparsable(Good[4])}}),
       "function 5, line"},
      {"verify error after a parse error",
       with({{1, unparsable(Good[1])}, {5, notSSA("late")}}),
       "function 2, line"},
      {"trailing input", concat(Good) + "func @cut {\nentry:\n  ret\n",
       "trailing input after last function"},
      {"trailing input after a verify error",
       with({{2, notSSA("mid")}}) + "junk\n",
       "trailing input after last function"},
      {"parse error before trailing input",
       with({{5, unparsable(Good[5])}}) + "junk\n", "function 6, line"},
      {"trailing input alone", "junk\n",
       "trailing input after last function"},
      {"empty module", "", "module has no functions"},
      {"comments only", "# nothing\n; here\n", "module has no functions"},
      {"verify errors in functions 2 and 5",
       with({{1, notSSA("second")}, {4, notSSA("fifth")}}),
       "function @second:"},
      {"stray brace", "}\n" + concat(Good), "function 1, line 1"},
  };
  for (unsigned Threads : {1u, 4u}) {
    server::ServerConfig Cfg;
    Cfg.Threads = Threads;
    server::SessionManager Mgr(Cfg);
    auto S = Mgr.createSession();
    for (const Case &C : Corpus) {
      SCOPED_TRACE(std::string(C.Name) + ", " + std::to_string(Threads) +
                   " thread(s)");
      std::vector<std::uint8_t> Want = serialReply(C.Text);
      std::vector<std::uint8_t> Got = S->handle(loadRequest(C.Text));
      EXPECT_EQ(Got, Want);
      std::string Reply(Want.begin(), Want.end());
      if (!C.Expect) {
        ASSERT_EQ(Got[0],
                  static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
        expectSerialModule(*S, C.Text);
      } else {
        EXPECT_EQ(Want[0], static_cast<std::uint8_t>(proto::Opcode::Error));
        EXPECT_NE(Reply.find(C.Expect), std::string::npos) << Reply;
      }
    }
  }
}

TEST(ModuleLoad, MutantsOfAnEightFunctionModuleReplyLikeTheSerialLoad) {
  // Small functions: the differential's cost is the parses of each mutant.
  const std::vector<std::string> Funcs = printedFunctions(17, 8, 3);
  MutationSeed Seed;
  Seed.Text = concat(Funcs);
  {
    ModuleParseResult P = parseModule(Seed.Text);
    ASSERT_TRUE(P.Error.empty()) << P.Error;
    for (const auto &F : P.Funcs) {
      for (const auto &B : F->blocks())
        Seed.Labels.push_back(B->name());
      for (const auto &V : F->values())
        Seed.Values.push_back(V->name());
    }
  }

  server::ServerConfig Cfg;
  Cfg.Threads = 4;
  server::SessionManager Mgr(Cfg);
  auto S = Mgr.createSession();
  unsigned Loaded = 0, ParseErrors = 0, VerifyErrors = 0, Trailing = 0;
  constexpr unsigned PerKind = 20;
  for (unsigned MI = 0; MI != NumTextMutations; ++MI)
    for (unsigned N = 0; N != PerKind; ++N) {
      std::uint64_t RngSeed = 5000 + MI * PerKind + N;
      RandomEngine Rng(RngSeed);
      std::string Text =
          mutate(Seed.Text, Seed, static_cast<TextMutation>(MI), Rng);
      if (Rng.chancePercent(33))
        Text = mutate(
            Text, Seed,
            static_cast<TextMutation>(Rng.nextBelow(NumTextMutations)), Rng);
      SCOPED_TRACE("mutation " + std::to_string(MI) + ", rng " +
                   std::to_string(RngSeed));
      std::vector<std::uint8_t> Want = serialReply(Text);
      ASSERT_EQ(S->handle(loadRequest(Text)), Want) << Text;
      std::string Reply(Want.begin(), Want.end());
      if (Want[0] == static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded)) {
        ++Loaded;
        expectSerialModule(*S, Text);
      } else if (Reply.find("trailing input") != std::string::npos) {
        ++Trailing;
      } else if (Reply.find("function @") != std::string::npos) {
        ++VerifyErrors;
      } else {
        ++ParseErrors;
      }
    }
  // The mutants must reach every verdict.
  EXPECT_GT(Loaded, 0u);
  EXPECT_GT(ParseErrors, 0u);
  EXPECT_GT(VerifyErrors, 0u);
  EXPECT_GT(Trailing, 0u);
}

TEST(ModuleLoad, ReloadCycleKeepsPreparedArenaGaugesFlat) {
  // Each reload replaces the session's driver, and with it every prepared
  // cache: the arena gauges must read the same after every cycle, and
  // return to where they started when the session closes.
  const std::string First = concat(printedFunctions(29, 3));
  const std::string Second = concat(printedFunctions(31, 3));
  const std::uint64_t Bytes0 = gauge("ssalive_prepared_arena_bytes");
  const std::uint64_t Slices0 = gauge("ssalive_prepared_arena_slices");
  server::ServerConfig Cfg;
  Cfg.Threads = 1;
  server::SessionManager Mgr(Cfg);
  {
    auto S = Mgr.createSession();
    std::vector<std::uint64_t> Bytes, Slices;
    for (unsigned Cycle = 0; Cycle != 6; ++Cycle) {
      const std::string &Text = Cycle % 2 ? Second : First;
      ASSERT_EQ(S->handle(loadRequest(Text))[0],
                static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
      std::vector<const Function *> Funcs;
      for (unsigned I = 0; I != S->numFunctions(); ++I)
        Funcs.push_back(&S->function(I));
      std::vector<proto::QueryItem> Items;
      for (const BatchQuery &Q :
           BatchLivenessDriver::generateWorkload(Funcs, 77, 512))
        Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
      ASSERT_EQ(S->handle(proto::encodeQueryBatch(Items))[0],
                static_cast<std::uint8_t>(proto::Opcode::Answers));
      Bytes.push_back(gauge("ssalive_prepared_arena_bytes"));
      Slices.push_back(gauge("ssalive_prepared_arena_slices"));
    }
    EXPECT_GT(Bytes[0], Bytes0);
    for (unsigned Cycle = 2; Cycle != Bytes.size(); ++Cycle) {
      EXPECT_EQ(Bytes[Cycle], Bytes[Cycle % 2]) << "cycle " << Cycle;
      EXPECT_EQ(Slices[Cycle], Slices[Cycle % 2]) << "cycle " << Cycle;
    }
  }
  EXPECT_EQ(gauge("ssalive_prepared_arena_bytes"), Bytes0);
  EXPECT_EQ(gauge("ssalive_prepared_arena_slices"), Slices0);
}
