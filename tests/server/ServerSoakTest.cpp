//===- tests/server/ServerSoakTest.cpp ------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The differential soak harness of the liveness server: several concurrent
// clients (>= 4), each with its own module (or one shared module text) and
// backend, replay randomized query+edit streams against one LivenessServer
// over socketpair transports — >= 100k requests in total — and every single
// reply is compared byte for byte against an in-process oracle built from
// the exact bytes each client sent. Edits are chosen by the CFGMutator on
// the oracle copy and shipped as deterministic replays, so the server's
// refresh plane and the oracle stay in lockstep; any divergence (a stale
// repatch, a cross-session race on the shared pool, a framing bug) shows
// up as a byte mismatch with a replayable (client, seed, request) tag.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "TestUtil.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/BatchLivenessDriver.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <cstring>
#include <latch>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

namespace {

/// One client's configuration for a soak campaign.
struct ClientPlan {
  std::uint64_t Seed;       ///< The query and edit stream.
  std::uint64_t ModuleSeed; ///< The module text; equal seeds share a module.
  BatchBackend Backend;
  unsigned Iterations;
  unsigned QueriesPerBatch;
  unsigned EditPercent; ///< Chance an iteration sends edits, in percent.
};

/// Builds a small module deterministically from \p Seed and renders it to
/// the text both the server and the oracle will parse.
std::string makeModuleText(std::uint64_t Seed, unsigned NumFuncs) {
  std::string Text;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    auto F = randomSSAFunction(Seed * 101 + I,
                               {/*TargetBlocks=*/20 + (I % 3) * 8});
    Text += printFunction(*F);
    Text += "\n";
  }
  return Text;
}

bool roundTrip(int Fd, const std::vector<std::uint8_t> &Request,
               std::vector<std::uint8_t> &Reply) {
  return proto::roundTrip(Fd, Fd, Request, Reply);
}

/// Runs one client's whole stream; returns the number of requests
/// (queries + edits) it executed, or 0 after a recorded failure.
/// When \p AllLoaded is given, the client waits on it after its load, so
/// every client's load lands before any stream frame.
std::uint64_t runClient(int Fd, const ClientPlan &Plan, unsigned ClientId,
                        std::atomic<std::uint64_t> *QueryLedger = nullptr,
                        std::latch *AllLoaded = nullptr) {
  auto tag = [&](const char *What, std::uint64_t Index) {
    std::ostringstream OS;
    OS << "client " << ClientId << " seed=" << Plan.Seed
       << " module-seed=" << Plan.ModuleSeed << " backend="
       << batchBackendName(Plan.Backend) << ": " << What << " #" << Index
       << " (replay: rerun this client alone with this seed)";
    return OS.str();
  };

  // The oracle: parse the same text the server will parse and apply the
  // same edits to it.
  std::string Text = makeModuleText(Plan.ModuleSeed, /*NumFuncs=*/4);
  ModuleParseResult Oracle = parseModule(Text);
  if (!Oracle.Error.empty()) {
    ADD_FAILURE() << tag("module parse", 0) << ": " << Oracle.Error;
    return 0;
  }
  std::vector<const Function *> Funcs;
  std::uint64_t Blocks = 0, Values = 0;
  for (const auto &F : Oracle.Funcs) {
    Funcs.push_back(F.get());
    Blocks += F->numBlocks();
    Values += F->numValues();
  }
  // A LiveCheck session is checked against LiveCheck's block-id entry
  // points over fresh engines (blockIdAnswers): no prepared cache, no
  // incremental repair, no numbering remap, so every byte-compared Answers
  // frame below checks the server's cached plane across the whole
  // query+edit stream. A baseline session is checked against a
  // single-threaded driver of the same backend.
  const bool LiveCheckPlan = batchBackendUsesLiveCheck(Plan.Backend);
  BatchOptions OOpts;
  OOpts.Backend = Plan.Backend;
  OOpts.Threads = 1;
  BatchLivenessDriver OracleDriver(Funcs, OOpts);
  auto oracleAnswers = [&](const std::vector<BatchQuery> &Workload) {
    return LiveCheckPlan ? blockIdAnswers(Funcs, Workload)
                         : OracleDriver.run(Workload).Answers;
  };

  std::vector<std::uint8_t> Reply;
  bool LoadSent = roundTrip(Fd,
                            proto::encodeLoadModule(
                                static_cast<std::uint8_t>(Plan.Backend),
                                static_cast<std::uint8_t>(
                                    QueryPlane::Prepared),
                                Text),
                            Reply);
  if (AllLoaded)
    AllLoaded->arrive_and_wait();
  if (!LoadSent) {
    ADD_FAILURE() << tag("load transport", 0);
    return 0;
  }
  std::vector<std::uint8_t> WantLoaded = proto::encodeModuleLoaded(
      static_cast<std::uint32_t>(Funcs.size()), Blocks, Values);
  if (Reply != WantLoaded) {
    ADD_FAILURE() << tag("load reply mismatch", 0);
    return 0;
  }

  RandomEngine Rng(Plan.Seed * 7919 + ClientId);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 128;
  std::uint64_t Requests = 0;
  std::uint64_t ExpectQueries = 0, ExpectEdits = 0;

  for (unsigned It = 0; It != Plan.Iterations; ++It) {
    if (Rng.chancePercent(Plan.EditPercent)) {
      // --- Edit batch: 1-3 mutator-chosen edits, mirrored locally.
      unsigned Count = 1 + Rng.nextBelow(3);
      std::vector<proto::EditItem> Items;
      std::vector<std::pair<std::uint8_t, std::uint64_t>> Expect;
      for (unsigned E = 0; E != Count; ++E) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Oracle.Funcs.size()));
        Function &F = *Oracle.Funcs[FI];
        auto M = mutateFunctionCFG(F, Rng, MOpts);
        if (!M)
          continue;
        Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                         M->To, M->To2});
        Expect.emplace_back(1, F.cfgVersion());
      }
      // Occasionally ship a known-inapplicable edit: the server must
      // reject it exactly like the oracle's applyFunctionMutation would
      // (applied=0, epoch unchanged).
      if (Rng.chancePercent(25)) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Oracle.Funcs.size()));
        Function &F = *Oracle.Funcs[FI];
        // A self-AddEdge on block 0 -> 0 usually exists or is rejected
        // consistently; mirror the decision locally either way.
        Mutation M{MutationKind::AddEdge, 0, 0, 0};
        bool Applied = applyFunctionMutation(F, M);
        Items.push_back({static_cast<std::uint8_t>(M.Kind), FI, M.From,
                         M.To, M.To2});
        Expect.emplace_back(Applied ? 1 : 0, F.cfgVersion());
      }
      if (Items.empty())
        continue;
      OracleDriver.notifyCFGEdited();
      if (!roundTrip(Fd, proto::encodeEditBatch(Items), Reply)) {
        ADD_FAILURE() << tag("edit transport", It);
        return Requests;
      }
      std::vector<std::uint8_t> Want = proto::encodeEditApplied(Expect);
      if (Reply != Want) {
        ADD_FAILURE() << tag("edit reply mismatch", It);
        return Requests;
      }
      Requests += Items.size();
      ExpectEdits += Expect.size();
    } else {
      // --- Query batch drawn fresh each iteration (post-edit modules
      // reshuffle which values/blocks exist, so regenerate from the
      // oracle copy).
      std::vector<BatchQuery> Workload =
          BatchLivenessDriver::generateWorkload(Funcs, Rng.next(),
                                                Plan.QueriesPerBatch);
      if (Workload.empty())
        continue;
      std::vector<proto::QueryItem> Items;
      Items.reserve(Workload.size());
      for (const BatchQuery &Q : Workload)
        Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
      if (!roundTrip(Fd, proto::encodeQueryBatch(Items), Reply)) {
        ADD_FAILURE() << tag("query transport", It);
        return Requests;
      }
      std::vector<std::uint8_t> Want =
          proto::encodeAnswers(oracleAnswers(Workload));
      if (Reply != Want) {
        ADD_FAILURE() << tag("query reply mismatch", It);
        return Requests;
      }
      Requests += Workload.size();
      ExpectQueries += Workload.size();
    }
  }

  // Final stats cross-check (field-wise: cache counters include engine
  // internals the oracle does not model byte for byte).
  if (!roundTrip(Fd, proto::encodeStats(), Reply) || Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::StatsReply)) {
    ADD_FAILURE() << tag("stats", Plan.Iterations);
    return Requests;
  }
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  std::uint64_t Served = R.u64();
  (void)R.u64(); // positives
  std::uint64_t Applied = R.u64();
  std::uint64_t Rejected = R.u64();
  EXPECT_EQ(Served, ExpectQueries) << tag("stats queries", 0);
  EXPECT_EQ(Applied + Rejected, ExpectEdits) << tag("stats edits", 0);
  if (QueryLedger)
    QueryLedger->fetch_add(ExpectQueries);
  return Requests;
}

} // namespace

//===----------------------------------------------------------------------===//
// The soak campaign: >= 4 concurrent clients, >= 100k requests total.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, ConcurrentClientsMatchOracleByteForByte) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2; // One pool fan-out shared by all sessions.
  server::LivenessServer Server(Cfg);

  // Six clients across backends; the shapes chosen so the request total
  // comfortably clears 100k. The LiveCheck sessions run with edit
  // streams, so stale-entry bugs in the prepared cache surface as byte
  // mismatches against the block-id oracle.
  std::vector<ClientPlan> Plans = {
      {1001, 1001, BatchBackend::LiveCheckPropagated, 560, 42, 8},
      {1002, 1002, BatchBackend::LiveCheckPropagated, 560, 42, 6},
      {1003, 1003, BatchBackend::LiveCheckPropagated, 560, 42, 8},
      {1004, 1004, BatchBackend::LiveCheckPropagated, 560, 42, 6},
      {1005, 1005, BatchBackend::Dataflow, 150, 42, 4},
      {1006, 1006, BatchBackend::LiveCheckPropagated, 560, 42, 12},
  };

  std::vector<int> ClientFds;
  std::vector<std::thread> ServerSide;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    int Pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
    ClientFds.push_back(Pair[0]);
    int ServerFd = Pair[1];
    ServerSide.emplace_back([&Server, ServerFd] {
      Server.serveStream(ServerFd, ServerFd);
      ::close(ServerFd);
    });
  }

  // Registry reconcile: the process-wide telemetry counter must advance by
  // exactly the number of queries the clients' oracles ledger — across six
  // concurrent sessions and two backends. (Snapshot deltas, not absolutes:
  // earlier tests in this binary also serve queries.)
  std::uint64_t QueriesBefore =
      telemetry::Registry::global().value("ssalive_server_queries_total");
  std::atomic<std::uint64_t> QueryLedger{0};

  std::atomic<std::uint64_t> TotalRequests{0};
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    Clients.emplace_back([&, I] {
      TotalRequests.fetch_add(runClient(ClientFds[I], Plans[I],
                                        static_cast<unsigned>(I),
                                        &QueryLedger));
      ::close(ClientFds[I]);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (std::thread &T : ServerSide)
    T.join();

  RecordProperty("requests", static_cast<int>(TotalRequests.load()));
  EXPECT_GE(TotalRequests.load(), 100000u)
      << "the soak must replay at least 100k query+edit requests";
  EXPECT_EQ(Server.connectionsServed(), Plans.size());
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_queries_total") -
                QueriesBefore,
            QueryLedger.load())
      << "server telemetry must reconcile with the oracle request ledger";
}

//===----------------------------------------------------------------------===//
// Shared modules: several concurrent clients load one module text, so they
// share one parsed module on the server, and each runs its own query and
// edit stream. A client's first edit copies the module (or, for the last
// holder, unregisters it) while the others keep querying it; every reply
// must still match the client's own oracle byte for byte.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, SharedModuleClientsMatchOracleByteForByte) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::LivenessServer Server(Cfg);

  // Both backends, edit rates from none (a client that reads the shared
  // module to the end) to frequent.
  constexpr std::uint64_t Module = 3000;
  std::vector<ClientPlan> Plans = {
      {3001, Module, BatchBackend::LiveCheckPropagated, 240, 42, 10},
      {3002, Module, BatchBackend::LiveCheckPropagated, 240, 42, 6},
      {3003, Module, BatchBackend::Dataflow, 80, 42, 8},
      {3004, Module, BatchBackend::Dataflow, 80, 42, 4},
      {3005, Module, BatchBackend::LiveCheckPropagated, 240, 42, 0},
      {3006, Module, BatchBackend::LiveCheckPropagated, 240, 42, 20},
  };

  std::vector<int> ClientFds;
  std::vector<std::thread> ServerSide;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    int Pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
    ClientFds.push_back(Pair[0]);
    int ServerFd = Pair[1];
    ServerSide.emplace_back([&Server, ServerFd] {
      Server.serveStream(ServerFd, ServerFd);
      ::close(ServerFd);
    });
  }

  const std::uint64_t SharedBefore = telemetry::Registry::global().value(
      "ssalive_server_module_shared_loads_total");
  std::latch AllLoaded(static_cast<std::ptrdiff_t>(Plans.size()));
  std::atomic<std::uint64_t> TotalRequests{0};
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    Clients.emplace_back([&, I] {
      TotalRequests.fetch_add(runClient(ClientFds[I], Plans[I],
                                        static_cast<unsigned>(I), nullptr,
                                        &AllLoaded));
      ::close(ClientFds[I]);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (std::thread &T : ServerSide)
    T.join();

  EXPECT_GE(TotalRequests.load(), 20000u);
  // Every load after the first found the registered module: all loads
  // land before any edit can unregister it.
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_module_shared_loads_total") -
                SharedBefore,
            Plans.size() - 1);
  EXPECT_EQ(Server.sessions().residentModules(), 0u);
}

//===----------------------------------------------------------------------===//
// The accept-loop transport: same differential client over a real
// unix-domain socket, plus server shutdown via the protocol.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, UnixSocketAcceptLoopServesAndShutsDown) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::LivenessServer Server(Cfg);
  std::string Path =
      "/tmp/ssalive-soak-" + std::to_string(::getpid()) + ".sock";
  std::string Err;
  ASSERT_TRUE(Server.listenUnix(Path, Err)) << Err;
  Server.start();

  auto connect = [&]() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
        0);
    return Fd;
  };

  // Two short differential clients in parallel over the real socket.
  std::vector<std::thread> Clients;
  std::atomic<std::uint64_t> Requests{0};
  for (unsigned I = 0; I != 2; ++I) {
    Clients.emplace_back([&, I] {
      int Fd = connect();
      ClientPlan Plan{2000 + I, 2000 + I, BatchBackend::LiveCheckPropagated,
                      40, 32, 10};
      Requests.fetch_add(runClient(Fd, Plan, I));
      ::close(Fd);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GT(Requests.load(), 1000u);

  // Shutdown through the protocol stops the accept loop.
  int Fd = connect();
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(roundTrip(Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
  EXPECT_TRUE(Server.stopRequested());
}

namespace {

int connectLoopback(std::uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// A deterministic request sequence: module load plus mixed query/edit
/// frames, \p Frames in all. The local module copy evolves in lockstep so
/// every generated edit and workload is valid on the server's copy too.
/// Returns an empty sequence after a recorded failure.
std::vector<std::vector<std::uint8_t>>
buildMixedStream(std::uint64_t Seed, unsigned ClientId, BatchBackend Backend,
                 std::size_t Frames) {
  std::string Text = makeModuleText(Seed, /*NumFuncs=*/4);
  ModuleParseResult Local = parseModule(Text);
  if (!Local.Error.empty()) {
    ADD_FAILURE() << "seed=" << Seed << " parse: " << Local.Error;
    return {};
  }
  std::vector<const Function *> Funcs;
  for (const auto &F : Local.Funcs)
    Funcs.push_back(F.get());

  RandomEngine Rng(Seed * 733 + ClientId);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 128;
  std::vector<std::vector<std::uint8_t>> Requests;
  Requests.push_back(proto::encodeLoadModule(
      static_cast<std::uint8_t>(Backend),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text));
  while (Requests.size() != Frames) {
    if (Rng.chancePercent(10)) {
      std::vector<proto::EditItem> Items;
      unsigned Count = 1 + Rng.nextBelow(2);
      for (unsigned E = 0; E != Count; ++E) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Local.Funcs.size()));
        auto M = mutateFunctionCFG(*Local.Funcs[FI], Rng, MOpts);
        if (M)
          Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                           M->To, M->To2});
      }
      if (!Items.empty())
        Requests.push_back(proto::encodeEditBatch(Items));
    } else {
      std::vector<BatchQuery> Workload =
          BatchLivenessDriver::generateWorkload(Funcs, Rng.next(), 24);
      if (Workload.empty())
        continue;
      std::vector<proto::QueryItem> Items;
      for (const BatchQuery &Q : Workload)
        Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
      Requests.push_back(proto::encodeQueryBatch(Items));
    }
  }
  return Requests;
}

/// Replies of an uninterrupted in-process session fed \p Requests. Reply
/// purity makes them the ground truth for any connection that sends the
/// same sequence.
std::vector<std::vector<std::uint8_t>>
oracleReplies(const std::vector<std::vector<std::uint8_t>> &Requests) {
  server::SessionManager OracleMgr(
      server::ServerConfig{/*Threads=*/1, proto::DefaultMaxFrameBytes});
  auto OracleS = OracleMgr.createSession();
  std::vector<std::vector<std::uint8_t>> Expected;
  Expected.reserve(Requests.size());
  for (const auto &Req : Requests)
    Expected.push_back(OracleS->handle(Req));
  return Expected;
}

/// A plain differential client over TCP: every reply to a mixed stream
/// must match the single-session oracle byte for byte. Returns the frames
/// served before the first failure.
std::uint64_t runMixedClient(std::uint16_t Port, std::uint64_t Seed,
                             BatchBackend Backend, unsigned ClientId) {
  std::vector<std::vector<std::uint8_t>> Requests =
      buildMixedStream(Seed, ClientId, Backend, /*Frames=*/400);
  std::vector<std::vector<std::uint8_t>> Expected = oracleReplies(Requests);
  int Fd = connectLoopback(Port);
  if (Fd < 0) {
    ADD_FAILURE() << "mixed client " << ClientId << ": connect";
    return 0;
  }
  std::vector<std::uint8_t> Reply;
  std::size_t I = 0;
  for (; I != Requests.size(); ++I) {
    if (!roundTrip(Fd, Requests[I], Reply) || Reply != Expected[I]) {
      ADD_FAILURE() << "mixed client " << ClientId << " seed=" << Seed
                    << ": reply mismatch vs single-session oracle #" << I;
      break;
    }
  }
  ::close(Fd);
  return I;
}

} // namespace

//===----------------------------------------------------------------------===//
// The TCP soak: six differential clients share one server's query pool
// over loopback TCP, each streaming mixed query/edit frames on its own
// module. Every reply is byte-compared against a single-session oracle.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, TcpDifferentialClientsMatchOracles) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", /*Port=*/0, Err)) << Err;
  Server.start();

  const std::vector<std::uint64_t> Seeds = {7001, 7002, 7003,
                                            7004, 7005, 7006};
  std::atomic<std::uint64_t> Frames{0};
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Seeds.size(); ++I)
    Clients.emplace_back([&, I] {
      Frames.fetch_add(runMixedClient(Server.boundTcpPort(), Seeds[I],
                                      BatchBackend::LiveCheckPropagated,
                                      static_cast<unsigned>(I)));
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Frames.load(), Seeds.size() * 400u);

  int Fd = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Fd, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(roundTrip(Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
}
