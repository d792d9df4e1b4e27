//===- tests/server/ModuleShareTest.cpp -----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The server's module registry: sessions that load byte-identical text
// share one parsed module, concurrent loaders of one text wait for a single
// parse, and a session copies its module only on its first edit — in place
// when it holds the only reference, by re-parsing the retained text
// otherwise. The contract under test is that sharing is invisible on the
// wire: every reply of a sharing session is byte-identical to that of a
// session that loaded the same text alone, and the registry lets go of
// every module once its sessions are gone. The suite runs under ASan and
// TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "server/SessionManager.h"

#include "TestUtil.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/RandomEngine.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

namespace {

std::string moduleText(std::uint64_t Seed) {
  std::string Text;
  for (unsigned I = 0; I != 3; ++I) {
    Text += printFunction(*randomSSAFunction(Seed * 31 + I,
                                             {/*TargetBlocks=*/18 + 6 * I}));
    Text += "\n";
  }
  return Text;
}

std::vector<std::uint8_t> loadRequest(const std::string &Text) {
  return proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text);
}

std::vector<std::uint8_t> queryRequest(const std::vector<BatchQuery> &W) {
  std::vector<proto::QueryItem> Items;
  Items.reserve(W.size());
  for (const BatchQuery &Q : W)
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
  return proto::encodeQueryBatch(Items);
}

std::uint64_t metric(const char *Name) {
  return telemetry::Registry::global().value(Name);
}

/// A parsed copy of a module text and the reference answers over it. With
/// the Dataflow backend (a single-threaded driver) it is the independent
/// oracle for an unedited module; a module under CFG edits may leave
/// strict SSA, where only the server's own engine defines the answers, so
/// an edit mirror answers through LiveCheck's block-id entry points over
/// fresh engines (blockIdAnswers), as the soak clients do.
struct Oracle {
  explicit Oracle(const std::string &Text,
                  BatchBackend Backend = BatchBackend::Dataflow)
      : Parsed(parseModule(Text)) {
    EXPECT_TRUE(Parsed.Error.empty()) << Parsed.Error;
    for (const auto &F : Parsed.Funcs)
      Funcs.push_back(F.get());
    if (!batchBackendUsesLiveCheck(Backend)) {
      BatchOptions Opts;
      Opts.Backend = Backend;
      Opts.Threads = 1;
      Driver = std::make_unique<BatchLivenessDriver>(Funcs, Opts);
    }
  }

  /// Applies a mutator-chosen edit to function \p FI, if one applies.
  std::optional<Mutation> mutate(unsigned FI, RandomEngine &Rng,
                                 const CFGMutatorOptions &Opts = {}) {
    std::optional<Mutation> M =
        mutateFunctionCFG(*Parsed.Funcs[FI], Rng, Opts);
    if (M && Driver)
      Driver->notifyCFGEdited();
    return M;
  }

  std::vector<std::uint8_t> answers(const std::vector<BatchQuery> &W) {
    return proto::encodeAnswers(Driver ? Driver->run(W).Answers
                                       : blockIdAnswers(Funcs, W));
  }

  ModuleParseResult Parsed;
  std::vector<const Function *> Funcs;
  /// Null for a LiveCheck mirror.
  std::unique_ptr<BatchLivenessDriver> Driver;
};

} // namespace

TEST(ModuleShare, ConcurrentLoadsShareOneParsedModule) {
  const std::string Text = moduleText(11);
  server::SessionManager Alone({});
  std::vector<std::uint8_t> WantLoaded =
      Alone.createSession()->handle(loadRequest(Text));
  ASSERT_EQ(WantLoaded[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));

  Oracle O(Text);
  std::vector<std::vector<BatchQuery>> Workloads;
  std::vector<std::vector<std::uint8_t>> WantAnswers;
  for (unsigned I = 0; I != 6; ++I) {
    Workloads.push_back(
        BatchLivenessDriver::generateWorkload(O.Funcs, 700 + I, 96));
    WantAnswers.push_back(O.answers(Workloads.back()));
  }

  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::SessionManager Mgr(Cfg);
  const std::uint64_t SharedBefore =
      metric("ssalive_server_module_shared_loads_total");
  constexpr unsigned Clients = 4;
  std::vector<std::unique_ptr<server::Session>> Sessions;
  for (unsigned C = 0; C != Clients; ++C)
    Sessions.push_back(Mgr.createSession());
  std::vector<std::vector<std::uint8_t>> Loaded(Clients);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      // Start the loads together so they race on the registry.
      Ready.fetch_add(1);
      while (Ready.load() != Clients)
        std::this_thread::yield();
      Loaded[C] = Sessions[C]->handle(loadRequest(Text));
      for (std::size_t I = 0; I != Workloads.size(); ++I)
        EXPECT_EQ(Sessions[C]->handle(queryRequest(Workloads[I])),
                  WantAnswers[I])
            << "client " << C << " batch " << I;
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned C = 0; C != Clients; ++C)
    EXPECT_EQ(Loaded[C], WantLoaded) << "client " << C;
  EXPECT_EQ(Mgr.residentModules(), 1u);
  EXPECT_EQ(metric("ssalive_server_module_shared_loads_total") - SharedBefore,
            Clients - 1);
  for (unsigned C = 1; C != Clients; ++C)
    EXPECT_EQ(&Sessions[C]->function(0), &Sessions[0]->function(0));
}

TEST(ModuleShare, EditCopiesWhileTheOtherSessionKeepsQuerying) {
  // At 4 threads the private copy's per-function parse tickets run on
  // helpers while B's query batches share the pool.
  const std::string Text = moduleText(23);
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    server::ServerConfig Cfg;
    Cfg.Threads = Threads;
    server::SessionManager Mgr(Cfg);
    auto A = Mgr.createSession();
    auto B = Mgr.createSession();
    ASSERT_EQ(A->handle(loadRequest(Text)), B->handle(loadRequest(Text)));
    ASSERT_EQ(Mgr.residentModules(), 1u);

    // The reference: a session that loaded the same text alone and gets the
    // same frames as A.
    server::SessionManager AloneMgr(Cfg);
    auto Alone = AloneMgr.createSession();
    ASSERT_EQ(Alone->handle(loadRequest(Text))[0],
              static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));

    // B keeps querying the unedited module while A edits.
    Oracle Unedited(Text);
    std::vector<std::vector<BatchQuery>> BWork;
    std::vector<std::vector<std::uint8_t>> BWant;
    for (unsigned I = 0; I != 40; ++I) {
      BWork.push_back(
          BatchLivenessDriver::generateWorkload(Unedited.Funcs, 900 + I, 64));
      BWant.push_back(Unedited.answers(BWork.back()));
    }
    std::thread Reader([&] {
      for (std::size_t I = 0; I != BWork.size(); ++I)
        EXPECT_EQ(B->handle(queryRequest(BWork[I])), BWant[I])
            << "reader batch " << I;
    });

    // A's stream: warm queries first (the copy must carry the warm analyses
    // and cache counters over), then edits interleaved with queries. The
    // mirror picks the edits and draws each workload from the edited graph.
    const std::uint64_t CopiesBefore =
        metric("ssalive_server_module_private_copies_total");
    Oracle Mirror(Text, BatchBackend::LiveCheckPropagated);
    RandomEngine Rng(4242);
    CFGMutatorOptions MOpts;
    MOpts.MaxNodes = 96;
    unsigned EditFrames = 0;
    for (unsigned Step = 0; Step != 60; ++Step) {
      std::vector<std::uint8_t> Request;
      if (Step >= 3 && Step % 2 == 1) {
        std::vector<proto::EditItem> Items;
        for (unsigned K = 0; K != 2; ++K) {
          unsigned FI = Rng.nextBelow(
              static_cast<unsigned>(Mirror.Parsed.Funcs.size()));
          if (auto M = Mirror.mutate(FI, Rng, MOpts))
            Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                             M->To, M->To2});
        }
        if (Items.empty())
          continue;
        Request = proto::encodeEditBatch(Items);
        ++EditFrames;
      } else {
        std::vector<BatchQuery> W = BatchLivenessDriver::generateWorkload(
            Mirror.Funcs, Rng.next(), 64);
        Request = queryRequest(W);
        EXPECT_EQ(A->handle(Request), Mirror.answers(W)) << "step " << Step;
        EXPECT_EQ(Alone->handle(Request), Mirror.answers(W)) << "step " << Step;
        continue;
      }
      EXPECT_EQ(A->handle(Request), Alone->handle(Request)) << "step " << Step;
    }
    ASSERT_GT(EditFrames, 0u);
    EXPECT_EQ(A->handle(proto::encodeStats()),
              Alone->handle(proto::encodeStats()));
    Reader.join();

    EXPECT_EQ(metric("ssalive_server_module_private_copies_total") -
                  CopiesBefore,
              1u);
    // The edited copy is A's alone; the registry still holds B's original.
    EXPECT_NE(&A->function(0), &B->function(0));
    EXPECT_EQ(Mgr.residentModules(), 1u);
  }
}

TEST(ModuleShare, SoleOwnerEditsInPlaceAndLaterLoadsGetTheOriginal) {
  const std::string Text = moduleText(37);
  server::SessionManager Mgr({});
  auto A = Mgr.createSession();
  std::vector<std::uint8_t> Loaded = A->handle(loadRequest(Text));
  ASSERT_EQ(Mgr.residentModules(), 1u);
  const Function *Before = &A->function(0);

  Oracle Mirror(Text, BatchBackend::LiveCheckPropagated);
  RandomEngine Rng(99);
  std::optional<Mutation> M;
  for (unsigned Try = 0; Try != 32 && !M; ++Try)
    M = Mirror.mutate(0, Rng);
  ASSERT_TRUE(M.has_value());
  const std::uint64_t CopiesBefore =
      metric("ssalive_server_module_private_copies_total");
  EXPECT_EQ(A->handle(proto::encodeEditBatch(
                {{static_cast<std::uint8_t>(M->Kind), 0, M->From, M->To,
                  M->To2}})),
            proto::encodeEditApplied(
                {{1, Mirror.Parsed.Funcs[0]->cfgVersion()}}));
  // In place: same functions, no re-parse, and out of the registry.
  EXPECT_EQ(&A->function(0), Before);
  EXPECT_EQ(metric("ssalive_server_module_private_copies_total"),
            CopiesBefore);
  EXPECT_EQ(Mgr.residentModules(), 0u);

  // A later loader of the original text gets the original module.
  auto C = Mgr.createSession();
  EXPECT_EQ(C->handle(loadRequest(Text)), Loaded);
  EXPECT_NE(&C->function(0), &A->function(0));
  Oracle Unedited(Text);
  EXPECT_EQ(C->function(0).cfgVersion(),
            Unedited.Parsed.Funcs[0]->cfgVersion());
  std::vector<BatchQuery> W =
      BatchLivenessDriver::generateWorkload(Unedited.Funcs, 5, 128);
  EXPECT_EQ(C->handle(queryRequest(W)), Unedited.answers(W));
}

TEST(ModuleShare, EqualLengthTextsDifferingInOneByteShareNothing) {
  const std::string Text = moduleText(51);
  std::string Other = Text;
  std::size_t Name = Other.find("func @") + 6;
  ASSERT_LT(Name, Other.size());
  Other[Name] = Other[Name] == 'q' ? 'r' : 'q';
  ASSERT_EQ(Other.size(), Text.size());

  server::SessionManager Mgr({});
  const std::uint64_t SharedBefore =
      metric("ssalive_server_module_shared_loads_total");
  auto A = Mgr.createSession();
  auto B = Mgr.createSession();
  ASSERT_EQ(A->handle(loadRequest(Text))[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  ASSERT_EQ(B->handle(loadRequest(Other))[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  EXPECT_EQ(Mgr.residentModules(), 2u);
  EXPECT_EQ(metric("ssalive_server_module_shared_loads_total"), SharedBefore);
  EXPECT_NE(&A->function(0), &B->function(0));
  EXPECT_NE(A->function(0).name(), B->function(0).name());
}

TEST(ModuleShare, ConcurrentBadLoadsGetOneVerdictAndLeaveNothing) {
  // Parses, but the second function is not strict SSA.
  std::string Text = moduleText(63);
  Text += "func @broken {\n"
          "entry:\n"
          "  %a = add %b, %b\n"
          "  %b = const 1\n"
          "  ret %a\n"
          "}\n";
  server::SessionManager Alone({});
  std::vector<std::uint8_t> Want =
      Alone.createSession()->handle(loadRequest(Text));
  ASSERT_EQ(Want[0], static_cast<std::uint8_t>(proto::Opcode::Error));
  EXPECT_EQ(Want[1], static_cast<std::uint8_t>(proto::ErrorCode::BadModule));

  server::SessionManager Mgr({});
  constexpr unsigned Clients = 4;
  std::vector<std::unique_ptr<server::Session>> Sessions;
  for (unsigned C = 0; C != Clients; ++C)
    Sessions.push_back(Mgr.createSession());
  std::vector<std::vector<std::uint8_t>> Got(Clients);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      Ready.fetch_add(1);
      while (Ready.load() != Clients)
        std::this_thread::yield();
      Got[C] = Sessions[C]->handle(loadRequest(Text));
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C != Clients; ++C) {
    EXPECT_EQ(Got[C], Want) << "client " << C;
    EXPECT_FALSE(Sessions[C]->hasModule());
  }
  EXPECT_EQ(Mgr.residentModules(), 0u);
}

TEST(ModuleShare, NothingResidentOnceEverySessionCloses) {
  const std::string First = moduleText(71), Second = moduleText(72);
  const std::uint64_t ResidentBefore =
      metric("ssalive_server_modules_resident");
  const std::uint64_t TextBytesBefore =
      metric("ssalive_server_module_text_bytes");
  server::SessionManager Mgr({});
  {
    std::vector<std::unique_ptr<server::Session>> Sessions;
    for (unsigned C = 0; C != 5; ++C) {
      Sessions.push_back(Mgr.createSession());
      Sessions.back()->handle(loadRequest(C % 2 ? Second : First));
    }
    EXPECT_EQ(Mgr.residentModules(), 2u);
    EXPECT_EQ(metric("ssalive_server_modules_resident") - ResidentBefore, 2u);
    EXPECT_EQ(metric("ssalive_server_module_text_bytes") - TextBytesBefore,
              First.size() + Second.size());
    // A reload replaces the session's reference; an edit by a sharing
    // session takes a private copy.
    Sessions[0]->handle(loadRequest(Second));
    Sessions[2]->handle(proto::encodeEditBatch(
        {{static_cast<std::uint8_t>(MutationKind::AddEdge), 0, 0, 1, 0}}));
    EXPECT_EQ(Mgr.residentModules(), 2u);
  }
  EXPECT_EQ(Mgr.residentModules(), 0u);
  EXPECT_EQ(metric("ssalive_server_modules_resident"), ResidentBefore);
  EXPECT_EQ(metric("ssalive_server_module_text_bytes"), TextBytesBefore);
}
