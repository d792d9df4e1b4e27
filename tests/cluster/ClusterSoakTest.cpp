//===- tests/cluster/ClusterSoakTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential soak of the shard router: M concurrent clients against one
// LivenessServer running N > 1 SessionManager shards, every reply byte-
// compared against single-session in-process oracles — so consistent-hash
// placement, per-shard pools, and strided session ids must all be invisible
// at the wire. Plus directed coverage of the router's own contracts:
//
//  * Mixed query/edit/resume streams over TCP: differential clients run
//    beside kill-and-resume clients on the same sharded server, and the
//    rebuilt sessions must continue byte-identically wherever the router
//    placed them.
//  * Forced cross-shard migration: park a journal on shard A, adopt it on
//    shard B through the resume plane, and the pending replies, continued
//    stream, and rebuilt analyses must be bit-identical to the unmigrated
//    oracle — reply purity is the whole migration story.
//  * Router-level shedding: past ServerConfig::MaxSessions (aggregated
//    across shards), frames that would open a NEW session are answered
//    Error(Overloaded) while existing sessions keep being served.
//  * Placement spread: the bounded-loads consistent hash must actually use
//    the shards instead of piling sessions onto one.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"
#include "server/ShardRouter.h"

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
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

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

bool isError(const std::vector<std::uint8_t> &Reply, proto::ErrorCode Code) {
  if (Reply.size() < 3 ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::Error))
    return false;
  std::uint16_t Got = static_cast<std::uint16_t>(Reply[1]) |
                      static_cast<std::uint16_t>(Reply[2]) << 8;
  return Got == static_cast<std::uint16_t>(Code);
}

bool readResumed(const std::vector<std::uint8_t> &Reply, std::uint64_t &Sid,
                 std::uint64_t &JournalLen, std::uint64_t &Pending) {
  if (Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::Resumed))
    return false;
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  Sid = R.u64();
  JournalLen = R.u64();
  Pending = R.u64();
  return R.ok() && R.atEnd();
}

std::string makeModuleText(std::uint64_t Seed, unsigned NumFuncs) {
  std::string Text;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    auto F = randomSSAFunction(Seed * 101 + I,
                               {/*TargetBlocks=*/18 + (I % 3) * 6});
    Text += printFunction(*F);
    Text += "\n";
  }
  return Text;
}

/// Builds one client's deterministic request sequence — module load plus
/// \p Frames mixed query/edit frames — mutating \p Local in lockstep so
/// every edit is valid on the server's copy too.
std::vector<std::vector<std::uint8_t>>
buildStream(ModuleParseResult &Local, const std::string &Text,
            BatchBackend Backend, QueryPlane Plane, std::uint64_t Seed,
            std::size_t Frames) {
  std::vector<const Function *> Funcs;
  for (const auto &F : Local.Funcs)
    Funcs.push_back(F.get());
  RandomEngine Rng(Seed * 733 + 17);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 128;
  std::vector<std::vector<std::uint8_t>> Requests;
  Requests.push_back(proto::encodeLoadModule(
      static_cast<std::uint8_t>(Backend), static_cast<std::uint8_t>(Plane),
      Text));
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
  Requests.push_back(proto::encodeStats());
  return Requests;
}

/// Replies of an uninterrupted single-shard oracle session fed \p Requests.
std::vector<std::vector<std::uint8_t>>
oracleReplies(const std::vector<std::vector<std::uint8_t>> &Requests) {
  server::SessionManager OracleMgr(
      server::ServerConfig{/*Threads=*/1, proto::DefaultMaxFrameBytes});
  auto S = OracleMgr.createSession();
  std::vector<std::vector<std::uint8_t>> Expected;
  Expected.reserve(Requests.size());
  for (const auto &Req : Requests)
    Expected.push_back(S->handle(Req));
  return Expected;
}

/// A plain differential client: every reply over the sharded server must
/// match the single-session oracle byte for byte. Returns frames served.
std::uint64_t runShardedClient(std::uint16_t Port, std::uint64_t Seed,
                               BatchBackend Backend, QueryPlane Plane,
                               unsigned ClientId) {
  auto tag = [&](const char *What, std::size_t I) {
    std::ostringstream OS;
    OS << "cluster client " << ClientId << " seed=" << Seed << ": " << What
       << " #" << I;
    return OS.str();
  };
  std::string Text = makeModuleText(Seed, /*NumFuncs=*/3);
  ModuleParseResult Local = parseModule(Text);
  if (!Local.Error.empty()) {
    ADD_FAILURE() << tag("parse", 0) << Local.Error;
    return 0;
  }
  std::vector<std::vector<std::uint8_t>> Requests =
      buildStream(Local, Text, Backend, Plane, Seed, /*Frames=*/400);
  std::vector<std::vector<std::uint8_t>> Expected = oracleReplies(Requests);

  int Fd = connectLoopback(Port);
  if (Fd < 0) {
    ADD_FAILURE() << tag("connect", 0);
    return 0;
  }
  std::vector<std::uint8_t> Reply;
  for (std::size_t I = 0; I != Requests.size(); ++I) {
    if (!proto::roundTrip(Fd, Fd, Requests[I], Reply)) {
      ADD_FAILURE() << tag("transport", I);
      ::close(Fd);
      return I;
    }
    if (Reply != Expected[I]) {
      ADD_FAILURE() << tag("reply mismatch vs single-session oracle", I);
      ::close(Fd);
      return I;
    }
  }
  ::close(Fd);
  return Requests.size();
}

/// A resume client on the sharded server: round-trips a prefix, floods a
/// few frames with replies unread, drops, resumes at the true high-water
/// mark, and byte-verifies the pending and continued replies — wherever
/// the router rebuilt the session.
void runShardedResumeClient(std::uint16_t Port, std::uint64_t Seed,
                            BatchBackend Backend, unsigned ClientId) {
  auto tag = [&](const char *What, std::size_t I) {
    std::ostringstream OS;
    OS << "cluster resume client " << ClientId << " seed=" << Seed << ": "
       << What << " #" << I;
    return OS.str();
  };
  std::string Text = makeModuleText(Seed, /*NumFuncs=*/3);
  ModuleParseResult Local = parseModule(Text);
  ASSERT_TRUE(Local.Error.empty()) << tag("parse", 0) << Local.Error;
  const std::size_t TotalFrames = 300;
  std::vector<std::vector<std::uint8_t>> Requests = buildStream(
      Local, Text, Backend, QueryPlane::Prepared, Seed, TotalFrames);
  std::vector<std::vector<std::uint8_t>> Expected = oracleReplies(Requests);

  const std::size_t KillAt = 220; // Round-tripped before the drop.
  const std::size_t Unacked = 12; // Sent with replies left unread.
  int Fd = connectLoopback(Port);
  ASSERT_GE(Fd, 0) << tag("connect", 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeResume(0, 0), Reply))
      << tag("handshake", 0);
  std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
  ASSERT_TRUE(readResumed(Reply, Sid, JournalLen, Pending))
      << tag("handshake reply", 0);
  ASSERT_NE(Sid, 0u);

  for (std::size_t I = 0; I != KillAt; ++I) {
    ASSERT_TRUE(proto::roundTrip(Fd, Fd, Requests[I], Reply))
        << tag("transport", I);
    ASSERT_EQ(Reply, Expected[I]) << tag("pre-kill mismatch", I);
  }
  for (std::size_t I = KillAt; I != KillAt + Unacked; ++I)
    ASSERT_TRUE(proto::writeFrame(Fd, Requests[I])) << tag("flood", I);
  ::shutdown(Fd, SHUT_WR);
  while (proto::readFrame(Fd, Reply) == proto::ReadStatus::Ok) {
  }
  ::close(Fd);

  const std::uint64_t Hwm = KillAt;
  Fd = connectLoopback(Port);
  ASSERT_GE(Fd, 0) << tag("reconnect", 0);
  bool Resumed = false;
  for (int Try = 0; Try != 500 && !Resumed; ++Try) {
    ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeResume(Sid, Hwm),
                                 Reply))
        << tag("resume transport", Try);
    Resumed = readResumed(Reply, Sid, JournalLen, Pending);
    if (!Resumed)
      ::usleep(10000);
  }
  ASSERT_TRUE(Resumed) << tag("resume", 0);
  ASSERT_EQ(JournalLen, KillAt + Unacked) << tag("journal length", 0);
  ASSERT_EQ(Pending, Unacked) << tag("pending count", 0);
  for (std::uint64_t I = 0; I != Pending; ++I) {
    ASSERT_EQ(proto::readFrame(Fd, Reply), proto::ReadStatus::Ok)
        << tag("pending transport", I);
    ASSERT_EQ(Reply, Expected[Hwm + I]) << tag("pending mismatch", Hwm + I);
  }
  for (std::size_t I = KillAt + Unacked; I != Requests.size(); ++I) {
    ASSERT_TRUE(proto::roundTrip(Fd, Fd, Requests[I], Reply))
        << tag("post", I);
    ASSERT_EQ(Reply, Expected[I]) << tag("post-resume mismatch", I);
  }
  ::close(Fd);
}

} // namespace

//===----------------------------------------------------------------------===//
// The cluster soak: M clients x N shards, mixed query/edit/resume, every
// reply byte-compared against single-session oracles.
//===----------------------------------------------------------------------===//

TEST(ClusterSoak, ShardedDifferentialMatchesSingleSessionOracles) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Shards = 3;
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", /*Port=*/0, Err)) << Err;
  Server.start();

  struct PlanEntry {
    std::uint64_t Seed;
    BatchBackend Backend;
    QueryPlane Plane;
  };
  std::vector<PlanEntry> Plans = {
      {7001, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared},
      {7002, BatchBackend::LiveCheckFiltered, QueryPlane::BlockId},
      {7003, BatchBackend::LiveCheckFiltered, QueryPlane::Prepared},
      {7004, BatchBackend::LiveCheckPropagated, QueryPlane::BlockId},
      {7005, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared},
      {7006, BatchBackend::LiveCheckFiltered, QueryPlane::Prepared},
  };
  std::atomic<std::uint64_t> Frames{0};
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Plans.size(); ++I)
    Clients.emplace_back([&, I] {
      Frames.fetch_add(runShardedClient(Server.boundTcpPort(),
                                        Plans[I].Seed, Plans[I].Backend,
                                        Plans[I].Plane,
                                        static_cast<unsigned>(I)));
    });
  // Two kill-and-resume clients ride the same sharded server.
  for (unsigned I = 0; I != 2; ++I)
    Clients.emplace_back([&, I] {
      runShardedResumeClient(Server.boundTcpPort(), 7101 + I,
                             I == 0 ? BatchBackend::LiveCheckPropagated
                                    : BatchBackend::LiveCheckFiltered,
                             I);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GE(Frames.load(), Plans.size() * 400u);

  // The router must actually have spread the sessions: with 8+ sessions on
  // 3 shards under bounded loads, at least two shards serve.
  unsigned ShardsUsed = 0;
  for (unsigned I = 0; I != Server.router().numShards(); ++I)
    if (Server.router().shard(I).sessionsCreated() != 0)
      ++ShardsUsed;
  EXPECT_GE(ShardsUsed, 2u)
      << "consistent-hash placement left all sessions on one shard";

  int Fd = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Fd, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
}

//===----------------------------------------------------------------------===//
// Forced cross-shard migration: park on shard A, adopt on shard B, and the
// rebuilt session must be indistinguishable from the unmigrated oracle.
//===----------------------------------------------------------------------===//

TEST(ClusterMigration, ForcedCrossShardMigrationIsByteIdentical) {
  server::ServerConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Shards = 3;
  server::ShardRouter Router(Cfg);

  std::string Text = makeModuleText(7201, /*NumFuncs=*/3);
  ModuleParseResult Local = parseModule(Text);
  ASSERT_TRUE(Local.Error.empty()) << Local.Error;
  std::vector<std::vector<std::uint8_t>> Requests =
      buildStream(Local, Text, BatchBackend::LiveCheckPropagated,
                  QueryPlane::Prepared, 7201, /*Frames=*/120);
  std::vector<std::vector<std::uint8_t>> Expected = oracleReplies(Requests);

  auto S = Router.createResumableSession();
  const std::uint64_t Id = S->sessionId();
  const unsigned Origin = Router.shardOf(Id);
  ASSERT_EQ(&S->manager(), &Router.shard(Origin))
      << "placement map and session ownership disagree";
  const std::size_t Acked = 100; // The client's high-water mark.
  for (std::size_t I = 0; I != Requests.size(); ++I)
    ASSERT_EQ(S->handle(Requests[I]), Expected[I]) << "request " << I;
  Router.parkSession(std::move(S));

  std::uint64_t MigrationsBefore = telemetry::Registry::global().value(
      "ssalive_router_migrations_total");
  const unsigned Target = (Origin + 1) % Router.numShards();
  auto R = Router.resumeSessionOn(Id, Acked, Target);
  ASSERT_NE(R.S, nullptr);
  std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
  ASSERT_TRUE(readResumed(R.Reply, Sid, JournalLen, Pending));
  EXPECT_EQ(Sid, Id);
  EXPECT_EQ(JournalLen, Requests.size());
  ASSERT_EQ(Pending, Requests.size() - Acked);
  for (std::size_t I = 0; I != R.PendingReplies.size(); ++I)
    EXPECT_EQ(R.PendingReplies[I], Expected[Acked + I])
        << "pending reply " << I << " diverged across the migration";

  // The session now lives on shard B — placement map, manager identity,
  // and migration counter all agree.
  EXPECT_EQ(Router.shardOf(Id), Target);
  EXPECT_EQ(&R.S->manager(), &Router.shard(Target));
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_router_migrations_total") -
                MigrationsBefore,
            1u);

  // And it keeps serving byte-identically to the never-parked oracle:
  // fresh workload against the migrated session vs an oracle session fed
  // the same full sequence.
  server::SessionManager OracleMgr(
      server::ServerConfig{/*Threads=*/1, proto::DefaultMaxFrameBytes});
  auto OracleS = OracleMgr.createSession();
  for (const auto &Req : Requests)
    OracleS->handle(Req);
  std::vector<const Function *> Funcs;
  for (const auto &F : Local.Funcs)
    Funcs.push_back(F.get());
  std::vector<BatchQuery> More =
      BatchLivenessDriver::generateWorkload(Funcs, 99, 48);
  ASSERT_FALSE(More.empty());
  std::vector<proto::QueryItem> Items;
  for (const BatchQuery &Q : More)
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
  auto Req = proto::encodeQueryBatch(Items);
  EXPECT_EQ(R.S->handle(Req), OracleS->handle(Req))
      << "migrated session diverged from the unmigrated oracle";

  // A second forced hop (back to the origin) still replays cleanly: the
  // journal traveled with the session (and grew by the frame above).
  const std::uint64_t GrownJournal = JournalLen + 1;
  Router.parkSession(std::move(R.S));
  auto R2 = Router.resumeSessionOn(Id, GrownJournal + 1, Origin);
  EXPECT_EQ(R2.S, nullptr); // Bad hwm refused; journal stays on Target.
  EXPECT_EQ(Router.shardOf(Id), Target);
  auto R3 = Router.resumeSessionOn(Id, /*HighWaterMark=*/0, Origin);
  ASSERT_NE(R3.S, nullptr);
  EXPECT_EQ(Router.shardOf(Id), Origin);
}

//===----------------------------------------------------------------------===//
// Router-level shedding: past the aggregate session cap, NEW sessions are
// refused with Error(Overloaded) while existing ones keep being served.
//===----------------------------------------------------------------------===//

TEST(ClusterRouter, SessionCapShedsNewSessionsButServesExisting) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Shards = 2;
  Cfg.MaxSessions = 1;
  server::LivenessServer Server(Cfg);

  int PairA[2], PairB[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, PairA), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, PairB), 0);
  std::thread SideA([&] {
    Server.serveStream(PairA[1], PairA[1]);
    ::close(PairA[1]);
  });
  std::thread SideB([&] {
    Server.serveStream(PairB[1], PairB[1]);
    ::close(PairB[1]);
  });

  std::uint64_t ShedsBefore =
      telemetry::Registry::global().value("ssalive_router_sheds_total");

  // Client A takes the only session slot.
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(PairA[0], PairA[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));

  // Client B's first frame would open session #2: shed, connection stays
  // usable. Client A keeps being served the whole time.
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
                               Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded))
      << "past MaxSessions a new session must be shed";
  ASSERT_TRUE(proto::roundTrip(PairA[0], PairA[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_GE(telemetry::Registry::global().value(
                "ssalive_router_sheds_total") -
                ShedsBefore,
            1u);

  // A resumable-open handshake is admission too: shed the same way.
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeResume(0, 0),
                               Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded));

  // Client A leaves; once its session closes, B's retry is admitted.
  ::close(PairA[0]);
  SideA.join();
  bool Served = false;
  for (int Try = 0; Try != 500 && !Served; ++Try) {
    ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
                                 Reply));
    Served =
        Reply[0] == static_cast<std::uint8_t>(proto::Opcode::StatsReply);
    if (!Served) {
      ASSERT_TRUE(isError(Reply, proto::ErrorCode::Overloaded));
      ::usleep(5000);
    }
  }
  EXPECT_TRUE(Served) << "a freed slot must admit the waiting client";
  ::close(PairB[0]);
  SideB.join();
}

//===----------------------------------------------------------------------===//
// Placement spread: bounded-loads consistent hashing uses every shard and
// never piles far past the load ceiling.
//===----------------------------------------------------------------------===//

TEST(ClusterRouter, ConsistentHashSpreadsSessionsAcrossShards) {
  server::ServerConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Shards = 4;
  server::ShardRouter Router(Cfg);

  std::vector<std::unique_ptr<server::Session>> Keep;
  for (unsigned I = 0; I != 64; ++I)
    Keep.push_back(Router.createSession());
  ASSERT_EQ(Router.activeSessions(), 64);

  std::int64_t MaxLoad = 0;
  unsigned Used = 0;
  for (unsigned I = 0; I != Router.numShards(); ++I) {
    std::int64_t L = Router.shard(I).activeSessions();
    MaxLoad = std::max(MaxLoad, L);
    if (L != 0)
      ++Used;
  }
  EXPECT_EQ(Used, Router.numShards())
      << "64 sessions over 4 shards must land on every shard";
  // The bounded-loads ceiling at the final placement (total 63 before it)
  // was ceil(64/4)+1 = 17; nothing may sit above it.
  EXPECT_LE(MaxLoad, 17);

  // Session ids stay process-wide unique across shards (strided minting):
  // resumable ids from different shards never collide.
  server::ServerConfig RCfg;
  RCfg.Threads = 1;
  RCfg.Shards = 4;
  server::ShardRouter RRouter(RCfg);
  std::vector<std::uint64_t> Ids;
  std::vector<std::unique_ptr<server::Session>> RKeep;
  for (unsigned I = 0; I != 32; ++I) {
    RKeep.push_back(RRouter.createResumableSession());
    Ids.push_back(RKeep.back()->sessionId());
  }
  std::sort(Ids.begin(), Ids.end());
  EXPECT_EQ(std::adjacent_find(Ids.begin(), Ids.end()), Ids.end())
      << "strided session-id minting collided across shards";
}
