//===- tests/server/ServerTeardownTest.cpp --------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Directed regressions for the server's lifecycle and resume planes:
//
//  * The teardown hang: stop() used to only raise StopFlag, so a handler
//    blocked in readFrame on an idle-but-connected client kept wait()
//    hostage until that client deigned to disconnect. stop() now shuts
//    the tracked client sockets down; a Shutdown frame with a second
//    idle TCP client attached must return from wait() within a second.
//  * listenUnix must refuse to bind over a *live* server (the old code
//    unconditionally unlinked the path, orphaning it) while still
//    cleaning up a stale file from a dead one.
//  * Overload shedding: connections past MaxConnections get one
//    well-formed Error(Overloaded) and a close; frames that would open a
//    session past MaxSessions are shed, and concurrent admissions never
//    overshoot the cap.
//  * The resume plane: unknown/evicted ids, bad high-water marks,
//    journal-overflow latching, oldest-first eviction, and the core
//    replay contract — a park/resume cycle rebuilds a session whose
//    pending and future replies are byte-identical to an uninterrupted
//    oracle session fed the same request sequence.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "TestUtil.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/BatchLivenessDriver.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
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

bool isResumed(const std::vector<std::uint8_t> &Reply, std::uint64_t &Sid,
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

} // namespace

//===----------------------------------------------------------------------===//
// The teardown regression (the lead bugfix of this change).
//===----------------------------------------------------------------------===//

TEST(ServerTeardown, ShutdownUnblocksIdleTcpClientWithinOneSecond) {
  proto::ignoreSigpipe();
  server::LivenessServer Server{server::ServerConfig{}};
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", /*Port=*/0, Err)) << Err;
  ASSERT_NE(Server.boundTcpPort(), 0);
  Server.start();

  // The idle client: connects, never sends a byte. Its handler thread
  // blocks in readFrame — the exact state the old stop() never escaped.
  int Idle = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Idle, 0);
  for (int Try = 0; Try != 500 && Server.connectionsServed() < 1; ++Try)
    ::usleep(10000);
  ASSERT_GE(Server.connectionsServed(), 1u)
      << "idle client's handler never started";

  int Active = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Active, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Active, Active, proto::encodeShutdown(),
                               Reply));
  EXPECT_EQ(Reply, proto::encodeOk());

  auto T0 = std::chrono::steady_clock::now();
  Server.wait(); // Used to hang here until the idle client hung up.
  double Millis = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  EXPECT_LT(Millis, 1000.0)
      << "wait() must unblock idle handlers, not outwait their clients";
  ::close(Idle);
  ::close(Active);
}

TEST(ServerTeardown, ListenUnixRefusesLiveServerButReplacesStaleFile) {
  proto::ignoreSigpipe();
  std::string Path =
      "/tmp/ssalive-teardown-" + std::to_string(::getpid()) + ".sock";
  std::string Err;
  {
    server::LivenessServer Live{server::ServerConfig{}};
    ASSERT_TRUE(Live.listenUnix(Path, Err)) << Err;
    // A second server must not steal the path out from under a live one.
    server::LivenessServer Thief{server::ServerConfig{}};
    EXPECT_FALSE(Thief.listenUnix(Path, Err));
    EXPECT_NE(Err.find("live server"), std::string::npos) << Err;
  }
  // The live server's destructor unlinks its path; recreate a *stale*
  // file (bound once, owner long gone) — that one must be cleaned up.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Stale, 0);
  ASSERT_EQ(::bind(Stale, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Stale); // No listener behind the file anymore.
  server::LivenessServer Fresh{server::ServerConfig{}};
  EXPECT_TRUE(Fresh.listenUnix(Path, Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Overload shedding at the accept gate.
//===----------------------------------------------------------------------===//

TEST(ServerOverload, ConnectionsPastTheCapGetWellFormedOverloadedError) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.MaxConnections = 1;
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, Err)) << Err;
  Server.start();

  // First client occupies the only slot (and proves it is served).
  int First = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(First, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(First, First, proto::encodeStats(), Reply));
  ASSERT_FALSE(Reply.empty());
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));

  // Second client is shed: one well-formed Error(Overloaded), then EOF.
  int Second = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Second, 0);
  ASSERT_EQ(proto::readFrame(Second, Reply), proto::ReadStatus::Ok);
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded));
  EXPECT_EQ(proto::readFrame(Second, Reply), proto::ReadStatus::Eof);
  ::close(Second);

  ASSERT_TRUE(proto::roundTrip(First, First, proto::encodeShutdown(),
                               Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(First);
  Server.wait();
}

// Connection churn below the cap must never shed: the accept gate used to
// count finished-but-unreaped handlers (reaped only once per accept-loop
// iteration) against MaxConnections, so a client reconnecting right after
// a disconnect was shed with a free slot available.
TEST(ServerOverload, ConnectionChurnBelowTheCapIsNeverShed) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.MaxConnections = 2;
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, Err)) << Err;
  Server.start();

  std::uint64_t ShedBefore = telemetry::Registry::global().value(
      "ssalive_server_shed_connections_total");

  // One persistent client holds a slot for the whole churn.
  int Persistent = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Persistent, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Persistent, Persistent, proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));

  // Churn through the second slot: each cycle connects, round-trips, and
  // hangs up. The next connect waits for the previous handler's session to
  // close (plus a beat for its Done flag) — from there the server has one
  // live handler and MUST serve, dead-handler bookkeeping notwithstanding.
  for (unsigned Cycle = 0; Cycle != 20; ++Cycle) {
    std::uint64_t Closed = telemetry::Registry::global().value(
        "ssalive_server_sessions_closed_total");
    int Fd = connectLoopback(Server.boundTcpPort());
    ASSERT_GE(Fd, 0) << "cycle " << Cycle;
    ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeStats(), Reply))
        << "cycle " << Cycle;
    EXPECT_EQ(Reply[0],
              static_cast<std::uint8_t>(proto::Opcode::StatsReply))
        << "churn cycle " << Cycle << " was shed below the cap";
    ::close(Fd);
    for (int Try = 0;
         Try != 500 && telemetry::Registry::global().value(
                           "ssalive_server_sessions_closed_total") == Closed;
         ++Try)
      ::usleep(2000);
    ::usleep(5000); // Session closed -> handler's Done store lands next.
  }
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_shed_connections_total"),
            ShedBefore)
      << "churn below the cap must never shed a connection";

  ASSERT_TRUE(proto::roundTrip(Persistent, Persistent,
                               proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Persistent);
  Server.wait();
}

// The shed/resume interaction the client-side high-water fix is about:
// shed frames are answered Error(Overloaded) WITHOUT being dispatched or
// journaled, so they must not count toward the resume high-water mark. A
// client that counted them (the old ssalive-client bug) resumes off by
// the shed count — BadResume here, silently skipped replies in the worst
// case. This drives the exact flood/drop/resume cycle over TCP.
TEST(ServerOverload, ShedFramesDoNotCountTowardTheResumeHighWaterMark) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.InFlightBudgetBytes = 64; // Tiny: a one-write flood trips it.
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, Err)) << Err;
  Server.start();

  int Fd = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Fd, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeResume(0, 0), Reply));
  std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
  ASSERT_TRUE(isResumed(Reply, Sid, JournalLen, Pending));
  ASSERT_NE(Sid, 0u);

  // Flood: 200 Stats frames in one write, far past the 64-byte budget,
  // then read all 200 replies without interleaving. The server serves
  // what it reads with little queued behind it and sheds the rest.
  const unsigned Flood = 200;
  std::vector<std::uint8_t> Burst;
  for (unsigned I = 0; I != Flood; ++I) {
    std::vector<std::uint8_t> Frame = proto::encodeStats();
    std::uint32_t Len = static_cast<std::uint32_t>(Frame.size());
    for (int B = 0; B != 4; ++B)
      Burst.push_back(static_cast<std::uint8_t>(Len >> (8 * B)));
    Burst.insert(Burst.end(), Frame.begin(), Frame.end());
  }
  ASSERT_EQ(::write(Fd, Burst.data(), Burst.size()),
            static_cast<ssize_t>(Burst.size()));
  std::uint64_t Served = 0, Shed = 0;
  for (unsigned I = 0; I != Flood; ++I) {
    ASSERT_EQ(proto::readFrame(Fd, Reply), proto::ReadStatus::Ok)
        << "flood reply " << I;
    if (isError(Reply, proto::ErrorCode::Overloaded))
      ++Shed;
    else {
      ASSERT_EQ(Reply[0],
                static_cast<std::uint8_t>(proto::Opcode::StatsReply));
      ++Served;
    }
  }
  ASSERT_GE(Shed, 1u) << "the flood must trip the in-flight budget";
  ASSERT_GE(Served, 1u);

  // Drop the connection with the journal holding exactly the SERVED
  // frames, then resume. Counting shed replies (served + shed) overshoots
  // the journal: BadResume, and the journal stays parked.
  ::close(Fd);
  Fd = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Fd, 0);
  bool Answered = false;
  for (int Try = 0; Try != 500 && !Answered; ++Try) {
    ASSERT_TRUE(
        proto::roundTrip(Fd, Fd, proto::encodeResume(Sid, Served + Shed),
                         Reply));
    // UnknownSession: the dropped handler has not parked the journal yet.
    Answered = !isError(Reply, proto::ErrorCode::UnknownSession);
    if (!Answered)
      ::usleep(10000);
  }
  ASSERT_TRUE(Answered);
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::BadResume))
      << "a high-water mark inflated by shed frames must be refused";

  // The true high-water mark — dispatched frames only — resumes cleanly:
  // journalLen is exactly Served, nothing pending, zero skipped replies.
  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeResume(Sid, Served),
                               Reply));
  ASSERT_TRUE(isResumed(Reply, Sid, JournalLen, Pending));
  EXPECT_EQ(JournalLen, Served) << "shed frames must never be journaled";
  EXPECT_EQ(Pending, 0u);

  // And the rebuilt session continues byte-identically to an oracle fed
  // only the dispatched frames.
  server::SessionManager OracleMgr({});
  auto OracleS = OracleMgr.createSession();
  for (std::uint64_t I = 0; I != Served; ++I)
    OracleS->handle(proto::encodeStats());
  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeStats(), Reply));
  EXPECT_EQ(Reply, OracleS->handle(proto::encodeStats()))
      << "post-resume stream must match the unshed oracle byte for byte";

  ASSERT_TRUE(proto::roundTrip(Fd, Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
}

// The session cap sheds admissions, not service: past MaxSessions, a frame
// that would open a NEW session — a plain first frame or the Resume(0, 0)
// handshake — is answered Error(Overloaded) and counted as one shed frame,
// while the session already open keeps being served.
TEST(ServerOverload, SessionCapShedsNewSessionsButServesExisting) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
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
  auto shedFrames = [] {
    return telemetry::Registry::global().value(
        "ssalive_server_shed_frames_total");
  };

  // Client A takes the only session slot.
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(PairA[0], PairA[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_EQ(Server.sessions().activeSessions(), 1);

  // Client B's first frame would open session #2: shed, connection stays
  // usable. Client A keeps being served the whole time.
  std::uint64_t ShedBefore = shedFrames();
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
                               Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded))
      << "past MaxSessions a new session must be shed";
  EXPECT_EQ(shedFrames() - ShedBefore, 1u);
  ASSERT_TRUE(proto::roundTrip(PairA[0], PairA[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));

  // A resumable-open handshake is admission too: shed the same way.
  ShedBefore = shedFrames();
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeResume(0, 0),
                               Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded));
  EXPECT_EQ(shedFrames() - ShedBefore, 1u);
  EXPECT_EQ(Server.sessions().activeSessions(), 1);

  // Client A leaves; once its session closes, B's retry is admitted.
  ::close(PairA[0]);
  SideA.join();
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply))
      << "a freed slot must admit the waiting client";
  ::close(PairB[0]);
  SideB.join();
}

// The cap check and the slot reservation are one atomic step: eight
// threads released together at MaxSessions = 1 must open at most one
// session between them, and the live count may never pass the cap.
TEST(ServerOverload, SessionCapIsExactUnderConcurrentAdmission) {
  server::ServerConfig Cfg;
  Cfg.MaxSessions = 1;
  server::SessionManager Mgr(Cfg);
  constexpr unsigned Threads = 8;
  for (unsigned Round = 0; Round != 200; ++Round) {
    Gate Start;
    std::atomic<unsigned> Ready{0};
    std::atomic<std::int64_t> MaxLive{0};
    std::vector<std::unique_ptr<server::Session>> Opened(Threads);
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I != Threads; ++I)
      Ts.emplace_back([&, I] {
        Start.wait();
        // The gate wakes threads microseconds apart; spinning until all
        // are awake lines their admissions up within nanoseconds.
        Ready.fetch_add(1);
        while (Ready.load() != Threads)
          std::this_thread::yield();
        Opened[I] = I % 2 ? Mgr.tryCreateResumableSession()
                          : Mgr.tryCreateSession();
        std::int64_t Live = Mgr.activeSessions();
        std::int64_t Seen = MaxLive.load();
        while (Live > Seen && !MaxLive.compare_exchange_weak(Seen, Live)) {
        }
      });
    Start.open();
    for (std::thread &T : Ts)
      T.join();
    unsigned Admitted = 0;
    for (const auto &S : Opened)
      Admitted += S != nullptr;
    EXPECT_EQ(Admitted, 1u) << "round " << Round;
    EXPECT_LE(MaxLive.load(), 1) << "round " << Round;
    EXPECT_EQ(Mgr.activeSessions(), 1) << "round " << Round;
  }
  EXPECT_EQ(Mgr.activeSessions(), 0);
}

//===----------------------------------------------------------------------===//
// The resume plane, driven in-process through SessionManager.
//===----------------------------------------------------------------------===//

TEST(SessionResume, UnknownIdsAndBadHighWaterMarksAreRefused) {
  server::SessionManager Mgr({});
  auto Unknown = Mgr.resumeSession(/*SessionId=*/42, /*HighWaterMark=*/0);
  EXPECT_EQ(Unknown.S, nullptr);
  EXPECT_TRUE(isError(Unknown.Reply, proto::ErrorCode::UnknownSession));

  auto S = Mgr.tryCreateResumableSession();
  std::uint64_t Id = S->sessionId();
  ASSERT_NE(Id, 0u);
  EXPECT_EQ(S->handle(proto::encodeStats())[0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_EQ(S->journalLength(), 1u);
  Mgr.parkSession(std::move(S));
  EXPECT_EQ(Mgr.parkedSessions(), 1u);

  // A high-water mark beyond the journal is the client's confusion, not
  // grounds to destroy the parked journal.
  auto Bad = Mgr.resumeSession(Id, /*HighWaterMark=*/5);
  EXPECT_EQ(Bad.S, nullptr);
  EXPECT_TRUE(isError(Bad.Reply, proto::ErrorCode::BadResume));
  EXPECT_EQ(Mgr.parkedSessions(), 1u);

  auto Good = Mgr.resumeSession(Id, /*HighWaterMark=*/1);
  ASSERT_NE(Good.S, nullptr);
  std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
  ASSERT_TRUE(isResumed(Good.Reply, Sid, JournalLen, Pending));
  EXPECT_EQ(Sid, Id);
  EXPECT_EQ(JournalLen, 1u);
  EXPECT_EQ(Pending, 0u);
  EXPECT_TRUE(Good.PendingReplies.empty());
  EXPECT_EQ(Mgr.parkedSessions(), 0u);
}

TEST(SessionResume, ReplayRebuildsByteIdenticalSessionAndPendingReplies) {
  server::SessionManager Mgr({});

  // A deterministic request sequence with real work in it: module load,
  // five query batches, stats.
  std::string Text;
  for (unsigned I = 0; I != 2; ++I)
    Text += printFunction(*randomSSAFunction(9100 + I,
                                             {/*TargetBlocks=*/16}));
  ModuleParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.Error.empty()) << Parsed.Error;
  std::vector<const Function *> Funcs;
  for (const auto &F : Parsed.Funcs)
    Funcs.push_back(F.get());

  std::vector<std::vector<std::uint8_t>> Requests;
  Requests.push_back(proto::encodeLoadModule(
      0, static_cast<std::uint8_t>(QueryPlane::Prepared), Text));
  for (unsigned I = 0; I != 5; ++I) {
    std::vector<BatchQuery> Workload =
        BatchLivenessDriver::generateWorkload(Funcs, 501 + I, 32);
    ASSERT_FALSE(Workload.empty());
    std::vector<proto::QueryItem> Items;
    for (const BatchQuery &Q : Workload)
      Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
    Requests.push_back(proto::encodeQueryBatch(Items));
  }
  Requests.push_back(proto::encodeStats());

  // The oracle: an uninterrupted session fed the same sequence.
  auto OracleS = Mgr.createSession();
  std::vector<std::vector<std::uint8_t>> Expected;
  for (const auto &Req : Requests)
    Expected.push_back(OracleS->handle(Req));

  auto S = Mgr.tryCreateResumableSession();
  std::uint64_t Id = S->sessionId();
  for (std::size_t I = 0; I != Requests.size(); ++I)
    EXPECT_EQ(S->handle(Requests[I]), Expected[I]) << "request " << I;
  EXPECT_EQ(S->journalLength(), Requests.size());

  // Park/resume at several high-water marks; each cycle must surface
  // exactly the unacknowledged suffix, byte for byte.
  for (std::size_t Hwm : {Requests.size(), std::size_t(3), std::size_t(0)}) {
    Mgr.parkSession(std::move(S));
    ASSERT_EQ(Mgr.parkedSessions(), 1u);
    auto R = Mgr.resumeSession(Id, Hwm);
    ASSERT_NE(R.S, nullptr) << "hwm " << Hwm;
    std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
    ASSERT_TRUE(isResumed(R.Reply, Sid, JournalLen, Pending));
    EXPECT_EQ(Sid, Id);
    EXPECT_EQ(JournalLen, Requests.size());
    ASSERT_EQ(Pending, Requests.size() - Hwm);
    for (std::size_t I = 0; I != R.PendingReplies.size(); ++I)
      EXPECT_EQ(R.PendingReplies[I], Expected[Hwm + I])
          << "pending reply " << I << " at hwm " << Hwm;
    S = std::move(R.S);
  }

  // The rebuilt session keeps serving byte-identically to the oracle.
  std::vector<BatchQuery> More =
      BatchLivenessDriver::generateWorkload(Funcs, 999, 48);
  ASSERT_FALSE(More.empty());
  std::vector<proto::QueryItem> Items;
  for (const BatchQuery &Q : More)
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
  auto Req = proto::encodeQueryBatch(Items);
  EXPECT_EQ(S->handle(Req), OracleS->handle(Req));
}

TEST(SessionResume, JournalOverflowLatchesTheSessionUnresumable) {
  server::ServerConfig Cfg;
  Cfg.MaxJournalBytes = 16; // Tiny on purpose.
  server::SessionManager Mgr(Cfg);
  auto S = Mgr.tryCreateResumableSession();
  std::uint64_t Id = S->sessionId();
  EXPECT_TRUE(S->resumable());
  // 1-byte Stats frames fit; the first frame past the cap latches.
  for (unsigned I = 0; I != 16; ++I)
    S->handle(proto::encodeStats());
  EXPECT_TRUE(S->resumable());
  std::string Big(64, 'x');
  S->handle(proto::encodeLoadModule(0, 0, Big)); // Overflows the journal.
  EXPECT_FALSE(S->resumable());
  // Still serving, just not resumable anymore.
  EXPECT_EQ(S->handle(proto::encodeStats())[0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  Mgr.parkSession(std::move(S));
  EXPECT_EQ(Mgr.parkedSessions(), 0u);
  auto R = Mgr.resumeSession(Id, 0);
  EXPECT_TRUE(isError(R.Reply, proto::ErrorCode::UnknownSession));
}

TEST(SessionResume, OldestParkedJournalsAreEvictedPastTheCaps) {
  server::ServerConfig Cfg;
  Cfg.MaxParkedSessions = 2;
  server::SessionManager Mgr(Cfg);
  std::uint64_t Ids[3];
  for (int I = 0; I != 3; ++I) {
    auto S = Mgr.tryCreateResumableSession();
    Ids[I] = S->sessionId();
    S->handle(proto::encodeStats());
    Mgr.parkSession(std::move(S));
  }
  EXPECT_EQ(Mgr.parkedSessions(), 2u);
  EXPECT_TRUE(isError(Mgr.resumeSession(Ids[0], 0).Reply,
                      proto::ErrorCode::UnknownSession))
      << "oldest parked journal must be the one evicted";
  EXPECT_NE(Mgr.resumeSession(Ids[1], 1).S, nullptr);
  EXPECT_NE(Mgr.resumeSession(Ids[2], 1).S, nullptr);

  // The byte cap evicts the same way.
  server::ServerConfig BCfg;
  BCfg.MaxParkedJournalBytes = 6;
  server::SessionManager BMgr(BCfg);
  std::uint64_t BIds[2];
  for (int I = 0; I != 2; ++I) {
    auto S = BMgr.tryCreateResumableSession();
    BIds[I] = S->sessionId();
    for (int J = 0; J != 5; ++J)
      S->handle(proto::encodeStats()); // 5 journal bytes each.
    BMgr.parkSession(std::move(S));
  }
  EXPECT_EQ(BMgr.parkedSessions(), 1u);
  EXPECT_TRUE(isError(BMgr.resumeSession(BIds[0], 0).Reply,
                      proto::ErrorCode::UnknownSession));
  EXPECT_NE(BMgr.resumeSession(BIds[1], 5).S, nullptr);
}

TEST(SessionResume, ShutdownSessionsAreNeverParked) {
  server::SessionManager Mgr({});
  auto S = Mgr.tryCreateResumableSession();
  std::uint64_t Id = S->sessionId();
  EXPECT_EQ(S->handle(proto::encodeShutdown()), proto::encodeOk());
  Mgr.parkSession(std::move(S));
  EXPECT_EQ(Mgr.parkedSessions(), 0u);
  EXPECT_TRUE(isError(Mgr.resumeSession(Id, 0).Reply,
                      proto::ErrorCode::UnknownSession));
}
