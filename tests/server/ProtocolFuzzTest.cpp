//===- tests/server/ProtocolFuzzTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Adversarial input for the liveness server: truncated, oversized, and
// garbage frames; bodies that lie about their element counts; ids far out
// of range; commands out of order (queries before any module is loaded).
// The contract under test: every well-framed request yields a well-formed
// reply (an Error, if the request is nonsense), an unrecoverable stream
// (oversized declared length, truncated frame) ends with a clean
// connection close, and nothing crashes, hangs, or touches memory it
// should not — the suite runs under ASan and TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "TestUtil.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/RandomEngine.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

namespace {

bool isReplyOpcode(std::uint8_t Op) {
  switch (static_cast<proto::Opcode>(Op)) {
  case proto::Opcode::ModuleLoaded:
  case proto::Opcode::Answers:
  case proto::Opcode::EditApplied:
  case proto::Opcode::StatsReply:
  case proto::Opcode::Ok:
  case proto::Opcode::MetricsReply:
  case proto::Opcode::Error:
    return true;
  default:
    return false;
  }
}

bool isError(const std::vector<std::uint8_t> &Reply, proto::ErrorCode Code) {
  if (Reply.size() < 3 ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::Error))
    return false;
  std::uint16_t Got = static_cast<std::uint16_t>(Reply[1]) |
                      static_cast<std::uint16_t>(Reply[2]) << 8;
  return Got == static_cast<std::uint16_t>(Code);
}

/// A session with a small valid module loaded, for the post-load cases.
class LoadedSession {
public:
  LoadedSession()
      : Mgr(server::ServerConfig{/*Threads=*/1,
                                 proto::DefaultMaxFrameBytes}),
        S(Mgr.createSession()) {
    auto F = randomSSAFunction(7001, {/*TargetBlocks=*/12});
    Text = printFunction(*F);
    auto Reply = S->handle(proto::encodeLoadModule(0, 0, Text));
    EXPECT_EQ(Reply[0],
              static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  }

  server::Session &session() { return *S; }
  const std::string &text() const { return Text; }

private:
  server::SessionManager Mgr;
  std::unique_ptr<server::Session> S;
  std::string Text;
};

} // namespace

//===----------------------------------------------------------------------===//
// Dispatch-level fuzz: Session::handle fed hostile payloads directly.
//===----------------------------------------------------------------------===//

TEST(ProtocolFuzz, EmptyAndUnknownOpcodesYieldErrors) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  EXPECT_TRUE(isError(S->handle(nullptr, 0),
                      proto::ErrorCode::MalformedFrame));
  // 0x07 is retired: never reused, answered like any unknown opcode.
  for (unsigned Op : {0x00u, 0x07u, 0x08u, 0x42u, 0x80u, 0x90u, 0xFEu}) {
    std::vector<std::uint8_t> P{static_cast<std::uint8_t>(Op)};
    EXPECT_TRUE(isError(S->handle(P), proto::ErrorCode::UnknownOpcode))
        << "opcode " << Op;
  }
}

TEST(ProtocolFuzz, CommandsBeforeLoadAreRejected) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  EXPECT_TRUE(isError(S->handle(proto::encodeQueryBatch({{0, 0, 0, false}})),
                      proto::ErrorCode::NoModule));
  EXPECT_TRUE(isError(S->handle(proto::encodeEditBatch({{0, 0, 0, 1, 0}})),
                      proto::ErrorCode::NoModule));
  // Stats and shutdown are fine without a module.
  EXPECT_EQ(S->handle(proto::encodeStats())[0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_EQ(S->handle(proto::encodeShutdown()), proto::encodeOk());
  EXPECT_TRUE(S->shutdownRequested());
}

TEST(ProtocolFuzz, TruncatedRequestBodiesYieldErrorsNeverCrashes) {
  LoadedSession L;
  // Take each well-formed request and replay every strict prefix; the
  // reply must always be a well-formed reply frame (almost always an
  // Error; a truncated LoadModule body can be a BadModule parse error).
  std::vector<std::vector<std::uint8_t>> Requests = {
      proto::encodeLoadModule(0, 0, L.text()),
      proto::encodeQueryBatch({{0, 1, 2, true}, {0, 3, 4, false}}),
      proto::encodeEditBatch({{0, 0, 1, 2, 0}}),
      proto::encodeStats(),
      proto::encodeMetricsRequest(),
      proto::encodeShutdown(),
  };
  unsigned Cases = 0;
  for (const auto &Req : Requests)
    for (std::size_t Len = 0; Len < Req.size(); ++Len) {
      // Skip whole-prefix LoadModule truncations that still parse: text
      // bodies are self-delimiting, so only count the decode result.
      auto Reply = L.session().handle(Req.data(), Len);
      ASSERT_FALSE(Reply.empty());
      EXPECT_TRUE(isReplyOpcode(Reply[0])) << "prefix length " << Len;
      ++Cases;
    }
  RecordProperty("cases", static_cast<int>(Cases));
}

TEST(ProtocolFuzz, CountFieldLyingAboutBodySizeIsMalformed) {
  LoadedSession L;
  // Count says 3, body carries 1 item.
  auto Req = proto::encodeQueryBatch({{0, 0, 0, false}});
  Req[1] = 3;
  EXPECT_TRUE(isError(L.session().handle(Req),
                      proto::ErrorCode::MalformedFrame));
  // Huge count with a tiny body must not allocate or crash.
  Req[1] = 0xFF;
  Req[2] = 0xFF;
  Req[3] = 0xFF;
  Req[4] = 0xFF;
  EXPECT_TRUE(isError(L.session().handle(Req),
                      proto::ErrorCode::MalformedFrame));
  auto Edit = proto::encodeEditBatch({{0, 0, 0, 1, 0}});
  Edit[1] = 0xEE;
  Edit[2] = 0xEE;
  Edit[3] = 0xEE;
  Edit[4] = 0xEE;
  EXPECT_TRUE(isError(L.session().handle(Edit),
                      proto::ErrorCode::MalformedFrame));
}

TEST(ProtocolFuzz, OutOfRangeIdsAndKindsAreRejected) {
  LoadedSession L;
  EXPECT_TRUE(isError(
      L.session().handle(proto::encodeQueryBatch({{5, 0, 0, false}})),
      proto::ErrorCode::BadQuery));
  EXPECT_TRUE(isError(
      L.session().handle(proto::encodeQueryBatch({{0, 999999, 0, false}})),
      proto::ErrorCode::BadQuery));
  EXPECT_TRUE(isError(
      L.session().handle(proto::encodeQueryBatch({{0, 0, 999999, true}})),
      proto::ErrorCode::BadQuery));
  EXPECT_TRUE(isError(
      L.session().handle(proto::encodeEditBatch({{9, 0, 0, 1, 0}})),
      proto::ErrorCode::BadEdit));
  EXPECT_TRUE(isError(
      L.session().handle(proto::encodeEditBatch({{0, 77, 0, 1, 0}})),
      proto::ErrorCode::BadEdit));
  // An in-range but inapplicable edit is *reported*, not an error: the
  // reply says applied=0 and the module is untouched.
  auto Reply = L.session().handle(
      proto::encodeEditBatch({{1, 0, 0, 0, 0}})); // remove nonexistent edge
  ASSERT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::EditApplied));
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  EXPECT_EQ(R.u32(), 1u);
  EXPECT_EQ(R.u8(), 0u);
}

TEST(ProtocolFuzz, BadBackendPlaneAndModuleTextAreRejected) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  EXPECT_TRUE(isError(S->handle(proto::encodeLoadModule(99, 0, "func")),
                      proto::ErrorCode::BadBackend));
  EXPECT_TRUE(isError(S->handle(proto::encodeLoadModule(0, 77, "func")),
                      proto::ErrorCode::BadPlane));
  EXPECT_TRUE(isError(S->handle(proto::encodeLoadModule(0, 0, "")),
                      proto::ErrorCode::BadModule));
  EXPECT_TRUE(
      isError(S->handle(proto::encodeLoadModule(0, 0, "garbage \x01\x02")),
              proto::ErrorCode::BadModule));
  // Non-SSA input parses but fails verification.
  std::string NonSSA = "func @f {\nbb0:\n  %a = const 1\n  %a = const 2\n"
                       "  ret %a\n}\n";
  EXPECT_TRUE(isError(S->handle(proto::encodeLoadModule(0, 0, NonSSA)),
                      proto::ErrorCode::BadModule));
  // The session must still be usable afterwards.
  auto F = randomSSAFunction(7002, {/*TargetBlocks=*/10});
  auto Reply = S->handle(proto::encodeLoadModule(0, 0, printFunction(*F)));
  EXPECT_EQ(Reply[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
}

TEST(ProtocolFuzz, OutOfRangeImmediateIsBadModuleAndSessionSurvives) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  std::string Huge = "func @f {\nbb0:\n  %a = const 99999999999999999999\n"
                     "  ret %a\n}\n";
  auto Reply = S->handle(proto::encodeLoadModule(0, 0, Huge));
  ASSERT_TRUE(isError(Reply, proto::ErrorCode::BadModule));
  std::string Msg(Reply.begin(), Reply.end());
  EXPECT_NE(Msg.find("line 3: immediate out of range"), std::string::npos);

  // The same session loads a valid module and answers a query.
  auto F = randomSSAFunction(7003, {/*TargetBlocks=*/10});
  Reply = S->handle(proto::encodeLoadModule(0, 0, printFunction(*F)));
  ASSERT_EQ(Reply[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  Reply = S->handle(proto::encodeQueryBatch({{0, 0, 0, false}}));
  ASSERT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::Answers));
}

TEST(ProtocolFuzz, StatsMetricsAndShutdownRejectBodies) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  std::vector<std::uint8_t> StatsWithBody = proto::encodeStats();
  StatsWithBody.push_back(0xAB);
  EXPECT_TRUE(isError(S->handle(StatsWithBody),
                      proto::ErrorCode::MalformedFrame));
  std::vector<std::uint8_t> MetricsWithBody = proto::encodeMetricsRequest();
  MetricsWithBody.push_back(0xEF);
  EXPECT_TRUE(isError(S->handle(MetricsWithBody),
                      proto::ErrorCode::MalformedFrame));
  std::vector<std::uint8_t> ShutdownWithBody = proto::encodeShutdown();
  ShutdownWithBody.push_back(0xCD);
  EXPECT_TRUE(isError(S->handle(ShutdownWithBody),
                      proto::ErrorCode::MalformedFrame));
  EXPECT_FALSE(S->shutdownRequested());
}

TEST(ProtocolFuzz, MetricsRequestYieldsDecodableRegistryDump) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  auto Reply = S->handle(proto::encodeMetricsRequest());
  ASSERT_FALSE(Reply.empty());
  ASSERT_EQ(Reply[0],
            static_cast<std::uint8_t>(proto::Opcode::MetricsReply));
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  std::vector<telemetry::Metric> Metrics;
  ASSERT_TRUE(proto::decodeMetrics(R, Metrics));
  EXPECT_FALSE(Metrics.empty());
  // The dump must round-trip bit-exactly through the codec.
  auto Reencoded = proto::encodeMetricsReply(Metrics);
  EXPECT_EQ(Reencoded, Reply);
}

TEST(ProtocolFuzz, MetricsReplyDecoderSurvivesHostileBodies) {
  server::SessionManager Mgr({});
  auto S = Mgr.createSession();
  auto Reply = S->handle(proto::encodeMetricsRequest());
  ASSERT_FALSE(Reply.empty());

  // Every strict prefix of a real reply body must decode to false, never
  // crash or over-read.
  for (std::size_t Len = 1; Len < Reply.size(); ++Len) {
    proto::WireReader R(Reply.data() + 1, Len - 1);
    std::vector<telemetry::Metric> Metrics;
    EXPECT_FALSE(proto::decodeMetrics(R, Metrics)) << "prefix " << Len;
  }

  // A count field lying upward must not pre-allocate: decoding fails when
  // the payload runs dry, with only fully-decoded entries materialized.
  {
    std::vector<std::uint8_t> Lying(Reply.begin() + 1, Reply.end());
    Lying[0] = 0xFF;
    Lying[1] = 0xFF;
    Lying[2] = 0xFF;
    Lying[3] = 0x7F;
    proto::WireReader R(Lying.data(), Lying.size());
    std::vector<telemetry::Metric> Metrics;
    EXPECT_FALSE(proto::decodeMetrics(R, Metrics));
    EXPECT_LT(Metrics.size(), std::size_t(1) << 20);
  }

  // A histogram bucket count beyond the shared vocabulary is a protocol
  // mismatch, not a buffer to trust.
  {
    proto::WireWriter W;
    W.u32(1);
    W.u8(2); // histogram
    W.u16(3);
    W.raw("abc", 3);
    W.u64(1);
    W.u64(1);
    W.u16(0xFFFF); // lying bucket count
    auto Body = W.take();
    proto::WireReader R(Body.data(), Body.size());
    std::vector<telemetry::Metric> Metrics;
    EXPECT_FALSE(proto::decodeMetrics(R, Metrics));
  }

  // Pure garbage bodies: decode must return cleanly for any byte soup.
  RandomEngine Rng(0x4e7a11);
  for (unsigned Case = 0; Case != 500; ++Case) {
    std::vector<std::uint8_t> Body(Rng.nextBelow(200));
    for (auto &B : Body)
      B = static_cast<std::uint8_t>(Rng.next());
    proto::WireReader R(Body.data(), Body.size());
    std::vector<telemetry::Metric> Metrics;
    (void)proto::decodeMetrics(R, Metrics); // Must not crash or hang.
  }
}

TEST(ProtocolFuzz, RandomGarbagePayloadsAlwaysGetWellFormedReplies) {
  LoadedSession L;
  RandomEngine Rng(0xf522ed);
  for (unsigned Case = 0; Case != 2000; ++Case) {
    unsigned Len = Rng.nextBelow(160);
    std::vector<std::uint8_t> P(Len);
    for (auto &B : P)
      B = static_cast<std::uint8_t>(Rng.next());
    if (Rng.chancePercent(40) && Len != 0) {
      // Bias half the stream toward real opcodes so the per-command
      // decoders see garbage bodies, not just unknown opcodes.
      static const std::uint8_t Ops[] = {0x01, 0x02, 0x03,
                                         0x04, 0x05, 0x06};
      P[0] = Ops[Rng.nextBelow(6)];
    }
    auto Reply = L.session().handle(P);
    ASSERT_FALSE(Reply.empty()) << "case " << Case;
    EXPECT_TRUE(isReplyOpcode(Reply[0])) << "case " << Case;
    if (L.session().shutdownRequested())
      break; // Random bytes legitimately formed a Shutdown.
  }
}

//===----------------------------------------------------------------------===//
// Transport-level fuzz: hostile byte streams against serveStream.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Bytes as a raw client stream against a fresh server over a
/// socketpair: writes everything, half-closes, then drains the replies.
/// Returns the reply payloads; fails the test on a malformed reply frame.
std::vector<std::vector<std::uint8_t>>
rawStream(const std::vector<std::uint8_t> &Bytes,
          std::size_t MaxFrame = proto::DefaultMaxFrameBytes) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.MaxFrameBytes = MaxFrame;
  server::LivenessServer Server(Cfg);
  int Pair[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  std::thread ServerThread([&] {
    Server.serveStream(Pair[1], Pair[1]);
    ::close(Pair[1]);
  });
  // Write everything (the server reads as it goes), then half-close so
  // the server sees EOF and returns — if it ever stopped reading, the
  // write would block and the test would time out, which is exactly the
  // hang this suite exists to catch.
  std::size_t Put = 0;
  while (Put != Bytes.size()) {
    ssize_t N = ::write(Pair[0], Bytes.data() + Put, Bytes.size() - Put);
    if (N <= 0)
      break; // Server hung up mid-stream (e.g. after FrameTooLarge).
    Put += static_cast<std::size_t>(N);
  }
  ::shutdown(Pair[0], SHUT_WR);
  std::vector<std::vector<std::uint8_t>> Replies;
  std::vector<std::uint8_t> Reply;
  while (proto::readFrame(Pair[0], Reply) == proto::ReadStatus::Ok)
    Replies.push_back(Reply);
  ::close(Pair[0]);
  ServerThread.join();
  for (const auto &Rep : Replies) {
    EXPECT_FALSE(Rep.empty());
    if (!Rep.empty()) {
      EXPECT_TRUE(isReplyOpcode(Rep[0]));
    }
  }
  return Replies;
}

void appendFrame(std::vector<std::uint8_t> &Stream,
                 const std::vector<std::uint8_t> &Payload) {
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  Stream.push_back(static_cast<std::uint8_t>(Len));
  Stream.push_back(static_cast<std::uint8_t>(Len >> 8));
  Stream.push_back(static_cast<std::uint8_t>(Len >> 16));
  Stream.push_back(static_cast<std::uint8_t>(Len >> 24));
  Stream.insert(Stream.end(), Payload.begin(), Payload.end());
}

} // namespace

TEST(ProtocolFuzz, OversizedDeclaredFrameGetsErrorThenClose) {
  server::ServerConfig Cfg;
  Cfg.MaxFrameBytes = 4096;
  server::LivenessServer Server(Cfg);
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  std::thread ServerThread([&] {
    Server.serveStream(Pair[1], Pair[1]);
    ::close(Pair[1]);
  });
  // Declared length far above the cap; no body follows.
  std::uint8_t Header[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::write(Pair[0], Header, 4), 4);
  std::vector<std::uint8_t> Reply;
  ASSERT_EQ(proto::readFrame(Pair[0], Reply), proto::ReadStatus::Ok);
  EXPECT_TRUE(isError(Reply, proto::ErrorCode::FrameTooLarge));
  // And the connection is gone.
  EXPECT_EQ(proto::readFrame(Pair[0], Reply), proto::ReadStatus::Eof);
  ::close(Pair[0]);
  ServerThread.join();
}

TEST(ProtocolFuzz, TruncatedFrameClosesCleanlyWithoutReply) {
  std::vector<std::uint8_t> Stream = {0x40, 0x00, 0x00, 0x00, /*body:*/ 1,
                                      2, 3};
  auto Replies = rawStream(Stream);
  EXPECT_TRUE(Replies.empty());
}

TEST(ProtocolFuzz, ZeroLengthFrameIsMalformedNotFatal) {
  std::vector<std::uint8_t> Stream;
  appendFrame(Stream, {});                    // Zero-length payload.
  appendFrame(Stream, proto::encodeStats()); // Stream must still work.
  auto Replies = rawStream(Stream);
  ASSERT_EQ(Replies.size(), 2u);
  EXPECT_TRUE(isError(Replies[0], proto::ErrorCode::MalformedFrame));
  EXPECT_EQ(Replies[1][0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
}

//===----------------------------------------------------------------------===//
// Retired LoadModule ids. Backends 1-4 and planes 1-2 named removed engine
// variants (backend 1 was the exact-Definition-5 T-set engine); the id
// spaces keep those holes, so a client that still sends one gets a
// well-formed refusal, and its connection stays usable.
//===----------------------------------------------------------------------===//

namespace {

/// Sends LoadModule with a retired id, then a valid LoadModule and a query
/// on the same connection: the first must be refused with \p Want, the
/// rest must succeed.
void expectRetiredIdRefused(std::uint8_t Backend, std::uint8_t Plane,
                            proto::ErrorCode Want) {
  auto F = randomSSAFunction(7003, {/*TargetBlocks=*/10});
  std::string Text = printFunction(*F);
  std::vector<std::uint8_t> Stream;
  appendFrame(Stream, proto::encodeLoadModule(Backend, Plane, Text));
  appendFrame(Stream, proto::encodeLoadModule(0, 3, Text));
  appendFrame(Stream, proto::encodeQueryBatch({{0, 0, 0, false}}));
  auto Replies = rawStream(Stream);
  ASSERT_EQ(Replies.size(), 3u);
  EXPECT_TRUE(isError(Replies[0], Want))
      << "backend " << unsigned(Backend) << " plane " << unsigned(Plane);
  EXPECT_EQ(Replies[1][0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  EXPECT_EQ(Replies[2][0], static_cast<std::uint8_t>(proto::Opcode::Answers));
}

} // namespace

TEST(ProtocolFuzz, RetiredBackendId1IsRefused) {
  expectRetiredIdRefused(1, 0, proto::ErrorCode::BadBackend);
}

TEST(ProtocolFuzz, RetiredBackendId2IsRefused) {
  expectRetiredIdRefused(2, 0, proto::ErrorCode::BadBackend);
}

TEST(ProtocolFuzz, RetiredBackendId3IsRefused) {
  expectRetiredIdRefused(3, 3, proto::ErrorCode::BadBackend);
}

TEST(ProtocolFuzz, RetiredBackendId4IsRefused) {
  expectRetiredIdRefused(4, 0, proto::ErrorCode::BadBackend);
}

TEST(ProtocolFuzz, RetiredPlaneId1IsRefused) {
  expectRetiredIdRefused(0, 1, proto::ErrorCode::BadPlane);
}

TEST(ProtocolFuzz, RetiredPlaneId2IsRefused) {
  expectRetiredIdRefused(5, 2, proto::ErrorCode::BadPlane);
}

TEST(ProtocolFuzz, EveryAssignedBackendAndPlaneIdLoads) {
  // The server has one query plane: plane ids 0 and 3 are both accepted
  // and load the same session, so a query frame and the Stats frame after
  // it get byte-identical replies under either id.
  auto F = randomSSAFunction(7004, {/*TargetBlocks=*/10});
  std::string Text = printFunction(*F);
  // Ids as the server assigns them: draw the queries from the parsed text.
  ModuleParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.Error.empty()) << Parsed.Error;
  std::vector<proto::QueryItem> Items;
  for (const BatchQuery &Q : BatchLivenessDriver::generateWorkload(
           {Parsed.Funcs[0].get()}, 7005, 256))
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
  const std::vector<std::uint8_t> Query = proto::encodeQueryBatch(Items);
  for (std::uint8_t Backend : {0, 5, 6}) {
    std::vector<std::vector<std::uint8_t>> Replies[2];
    for (std::uint8_t Plane : {0, 3}) {
      server::SessionManager Mgr({});
      auto S = Mgr.createSession();
      auto Reply = S->handle(proto::encodeLoadModule(Backend, Plane, Text));
      EXPECT_EQ(Reply[0],
                static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded))
          << "backend " << unsigned(Backend) << " plane " << unsigned(Plane);
      Replies[Plane != 0] = {Reply, S->handle(Query),
                             S->handle(proto::encodeStats())};
    }
    EXPECT_EQ(Replies[1][1][0],
              static_cast<std::uint8_t>(proto::Opcode::Answers));
    EXPECT_EQ(Replies[0], Replies[1])
        << "backend " << unsigned(Backend)
        << ": plane ids 0 and 3 must load the same session";
  }
}

TEST(ProtocolFuzz, MetricsRoundTripsOverTheStreamTransport) {
  std::vector<std::uint8_t> Stream;
  appendFrame(Stream, proto::encodeMetricsRequest());
  appendFrame(Stream, proto::encodeStats()); // Stream survives afterwards.
  auto Replies = rawStream(Stream);
  ASSERT_EQ(Replies.size(), 2u);
  ASSERT_EQ(Replies[0][0],
            static_cast<std::uint8_t>(proto::Opcode::MetricsReply));
  proto::WireReader R(Replies[0].data() + 1, Replies[0].size() - 1);
  std::vector<telemetry::Metric> Metrics;
  EXPECT_TRUE(proto::decodeMetrics(R, Metrics));
  EXPECT_EQ(Replies[1][0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
}

TEST(ProtocolFuzz, RandomFramedGarbageNeverHangsOrKillsTheStream) {
  RandomEngine Rng(0xdeadf002);
  for (unsigned Round = 0; Round != 20; ++Round) {
    std::vector<std::uint8_t> Stream;
    unsigned Frames = 1 + Rng.nextBelow(12);
    for (unsigned F = 0; F != Frames; ++F) {
      std::vector<std::uint8_t> Payload(Rng.nextBelow(96));
      for (auto &B : Payload)
        B = static_cast<std::uint8_t>(Rng.next());
      appendFrame(Stream, Payload);
    }
    // A final probe proves the server processed the whole stream without
    // wedging (unless a random Shutdown/oversize closed it early, which
    // rawStream tolerates by design).
    appendFrame(Stream, proto::encodeStats());
    auto Replies = rawStream(Stream, /*MaxFrame=*/1 << 16);
    EXPECT_LE(Replies.size(), static_cast<std::size_t>(Frames) + 1);
  }
}

//===----------------------------------------------------------------------===//
// Mid-stream disconnects: the client vanishes between header and payload,
// right after a bare header, and mid-reply. The server must close its
// side cleanly every time — no reply invented, no hang, no crash.
//===----------------------------------------------------------------------===//

TEST(ProtocolFuzz, DisconnectAfterBareHeaderClosesCleanly) {
  // A header declaring 16 bytes, then EOF before any payload byte.
  std::vector<std::uint8_t> Stream = {0x10, 0x00, 0x00, 0x00};
  auto Replies = rawStream(Stream);
  EXPECT_TRUE(Replies.empty());
}

TEST(ProtocolFuzz, DisconnectMidReplyDoesNotWedgeTheServer) {
  proto::ignoreSigpipe();
  // A module big enough that the Answers reply spans many kilobytes, so
  // the client's close lands while the server is still writing.
  std::string Text;
  for (unsigned I = 0; I != 4; ++I)
    Text += printFunction(*randomSSAFunction(8800 + I,
                                             {/*TargetBlocks=*/24}));
  ModuleParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.Error.empty()) << Parsed.Error;
  std::vector<const Function *> Funcs;
  for (const auto &F : Parsed.Funcs)
    Funcs.push_back(F.get());
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(Funcs, 4321, 50000);
  ASSERT_FALSE(Workload.empty());
  std::vector<proto::QueryItem> Items;
  for (const BatchQuery &Q : Workload)
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});

  server::LivenessServer Server{server::ServerConfig{}};
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  std::thread ServerThread([&] {
    Server.serveStream(Pair[1], Pair[1]);
    ::close(Pair[1]);
  });
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(proto::roundTrip(Pair[0], Pair[0],
                               proto::encodeLoadModule(0, 0, Text), Reply));
  ASSERT_EQ(Reply[0],
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  // Ship the big batch and hang up without reading a byte of the reply.
  ASSERT_TRUE(proto::writeFrame(Pair[0], proto::encodeQueryBatch(Items)));
  ::close(Pair[0]);
  // The only pass criterion: the handler returns. A wedged write or a
  // SIGPIPE death shows up as a hang/abort here.
  ServerThread.join();
}

//===----------------------------------------------------------------------===//
// Overload shedding at the frame gate: flooding past the in-flight
// budget yields well-formed Error(Overloaded) replies, bounded work per
// shed frame, and a stream that keeps serving once the flood drains.
//===----------------------------------------------------------------------===//

TEST(ProtocolFuzz, FloodPastTheInFlightBudgetIsShedWellFormed) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.InFlightBudgetBytes = 64; // Tiny, so a small flood trips it.
  server::LivenessServer Server(Cfg);
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);

  // Queue the whole flood before the server reads its first frame: every
  // frame after the first then sees hundreds of bytes still in flight.
  const unsigned Flood = 200;
  std::vector<std::uint8_t> Stream;
  for (unsigned I = 0; I != Flood; ++I)
    appendFrame(Stream, proto::encodeStats());
  ASSERT_EQ(::write(Pair[0], Stream.data(), Stream.size()),
            static_cast<ssize_t>(Stream.size()));

  std::uint64_t ShedBefore = telemetry::Registry::global().value(
      "ssalive_server_shed_frames_total");
  std::uint64_t StatsBefore = telemetry::Registry::global().value(
      "ssalive_server_requests_stats_total");
  std::thread ServerThread([&] {
    Server.serveStream(Pair[1], Pair[1]);
    ::close(Pair[1]);
  });
  ::shutdown(Pair[0], SHUT_WR);
  unsigned Served = 0, Shed = 0;
  std::vector<std::uint8_t> Reply;
  for (unsigned I = 0; I != Flood; ++I) {
    ASSERT_EQ(proto::readFrame(Pair[0], Reply), proto::ReadStatus::Ok)
        << "flooded frame " << I << " got no reply";
    if (isError(Reply, proto::ErrorCode::Overloaded))
      ++Shed;
    else if (Reply[0] ==
             static_cast<std::uint8_t>(proto::Opcode::StatsReply))
      ++Served;
    else
      FAIL() << "flood reply " << I << " is neither shed nor served";
  }
  EXPECT_EQ(proto::readFrame(Pair[0], Reply), proto::ReadStatus::Eof);
  ::close(Pair[0]);
  ServerThread.join();
  EXPECT_EQ(Served + Shed, Flood);
  EXPECT_GE(Shed, Flood / 2) << "most of the flood must be shed";
  EXPECT_GE(Served, 1u) << "draining below the budget must restore service";
  // Shed work is bounded per frame: the telemetry ledger advances by
  // exactly the shed replies — nothing queued, nothing allocated
  // proportional to the flood's depth.
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_shed_frames_total") -
                ShedBefore,
            Shed);
  // Shed frames are never dispatched: only the served ones reach the
  // session's request counter.
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_requests_stats_total") -
                StatsBefore,
            Served);
}

//===----------------------------------------------------------------------===//
// Retired opcodes over the stream transport.
//===----------------------------------------------------------------------===//

TEST(ProtocolFuzz, RetiredOpcode07IsUnknownAtAnyPosition) {
  // 0x07 is a retired request opcode. A frame of its old shape (the opcode,
  // then two u64s: 17 bytes) must be an unknown opcode wherever it lands —
  // as the frame that opens the session and mid-stream alike — and the
  // stream must keep serving afterwards.
  std::vector<std::uint8_t> Retired(17, 0);
  Retired[0] = 0x07;
  std::vector<std::uint8_t> Stream;
  appendFrame(Stream, Retired);
  appendFrame(Stream, proto::encodeStats());
  appendFrame(Stream, Retired);
  appendFrame(Stream, proto::encodeStats());
  std::uint64_t UnknownBefore = telemetry::Registry::global().value(
      "ssalive_server_requests_unknown_total");
  auto Replies = rawStream(Stream);
  ASSERT_EQ(Replies.size(), 4u);
  EXPECT_TRUE(isError(Replies[0], proto::ErrorCode::UnknownOpcode));
  EXPECT_EQ(Replies[1][0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_TRUE(isError(Replies[2], proto::ErrorCode::UnknownOpcode));
  EXPECT_EQ(Replies[3][0],
            static_cast<std::uint8_t>(proto::Opcode::StatsReply));
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_requests_unknown_total") -
                UnknownBefore,
            2u);
}
