//===- tests/server/ServerTeardownTest.cpp --------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Directed regressions for the server's lifecycle and overload planes:
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
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "TestUtil.h"
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

// The session cap sheds admissions, not service: past MaxSessions, a frame
// that would open a NEW session is answered Error(Overloaded) and counted as
// one shed frame, while the session already open keeps being served.
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

  // A retry while the cap still holds is shed the same way.
  ShedBefore = shedFrames();
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
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

// A monitor's Metrics frame on a fresh connection is answered without
// opening a session: it is served even while the session cap holds, and
// the session figures it reports do not count the monitor itself.
TEST(ServerOverload, SessionLessMetricsIsServedAtTheCapAndOpensNoSession) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.MaxSessions = 1;
  server::LivenessServer Server(Cfg);
  const telemetry::Registry &Reg = telemetry::Registry::global();

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

  // Client A takes the only session slot.
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(PairA[0], PairA[0], proto::encodeStats(),
                               Reply));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  ASSERT_EQ(Server.sessions().activeSessions(), 1);

  std::uint64_t Opened = Reg.value("ssalive_server_sessions_opened_total");
  std::uint64_t Active = Reg.value("ssalive_server_sessions_active");
  std::uint64_t Requests = Reg.value("ssalive_server_requests_metrics_total");
  std::uint64_t Shed = Reg.value("ssalive_server_shed_frames_total");
  for (int Rep = 0; Rep != 2; ++Rep) {
    ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0],
                                 proto::encodeMetricsRequest(), Reply));
    ASSERT_FALSE(Reply.empty());
    EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::MetricsReply))
        << "a monitor must not be shed at the session cap";
  }
  EXPECT_EQ(Reg.value("ssalive_server_sessions_opened_total"), Opened);
  EXPECT_EQ(Reg.value("ssalive_server_sessions_active"), Active);
  EXPECT_EQ(Reg.value("ssalive_server_requests_metrics_total") - Requests, 2u);
  EXPECT_EQ(Reg.value("ssalive_server_shed_frames_total"), Shed);
  EXPECT_EQ(Server.sessions().activeSessions(), 1);

  // A body on the session-less path is rejected like on a session's.
  std::vector<std::uint8_t> WithBody = proto::encodeMetricsRequest();
  WithBody.push_back(0);
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], WithBody, Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::MalformedFrame));

  // Any other frame still needs a session, and is shed at the cap.
  ASSERT_TRUE(proto::roundTrip(PairB[0], PairB[0], proto::encodeStats(),
                               Reply));
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::Overloaded));

  ::close(PairA[0]);
  ::close(PairB[0]);
  SideA.join();
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
        Opened[I] = Mgr.tryCreateSession();
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
