//===- tests/server/PoolSeatTest.cpp --------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every open session holds one seat of the shared query pool. Four sessions
// on a four-thread pool therefore leave no room for helpers: each frame runs
// on its own connection's thread. Once three of them close, the last one
// fans its frame out to the other three threads again. Neither changes a
// reply byte: the answers equal those of a one-thread server.
//
//===----------------------------------------------------------------------===//

#include "server/SessionManager.h"

#include "TestUtil.h"
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

std::uint64_t helperWakes() {
  return telemetry::Registry::global().value(
      "ssalive_pool_helper_wakes_total");
}

/// A server-side session that has loaded \p Text.
std::unique_ptr<server::Session> loadedSession(server::SessionManager &Mgr,
                                               const std::string &Text) {
  std::unique_ptr<server::Session> S = Mgr.createSession();
  std::vector<std::uint8_t> Reply = S->handle(proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text));
  EXPECT_EQ(Reply[0], static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded));
  return S;
}

/// Sends \p Frame as a warm-up, waits for every helper it woke to leave,
/// then sends it again and returns that reply together with the helpers
/// the second frame woke.
std::vector<std::uint8_t> measuredReply(server::SessionManager &Mgr,
                                        server::Session &S,
                                        const std::vector<std::uint8_t> &Frame,
                                        std::uint64_t &Wakes) {
  std::vector<std::uint8_t> Warm = S.handle(Frame);
  Mgr.pool().wait();
  const std::uint64_t Before = helperWakes();
  std::vector<std::uint8_t> Reply = S.handle(Frame);
  Wakes = helperWakes() - Before;
  EXPECT_EQ(Reply, Warm) << "a warm frame changed its answers";
  return Reply;
}

} // namespace

TEST(PoolSeat, OpenSessionsKeepTheirFramesOnTheirOwnThread) {
  std::string Text;
  for (unsigned I = 0; I != 4; ++I)
    Text += printFunction(*randomSSAFunction(90 + I, {/*TargetBlocks=*/48}));
  ModuleParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.Error.empty()) << Parsed.Error;
  std::vector<const Function *> Funcs;
  for (const auto &F : Parsed.Funcs)
    Funcs.push_back(F.get());
  // 4096 queries on four workers carve into 16 chunks of 256.
  std::vector<proto::QueryItem> Items;
  for (const BatchQuery &Q :
       BatchLivenessDriver::generateWorkload(Funcs, 5, 4096))
    Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
  const std::vector<std::uint8_t> Frame = proto::encodeQueryBatch(Items);

  server::SessionManager One({});
  ASSERT_EQ(One.pool().numThreads(), 1u);
  const std::vector<std::uint8_t> Want =
      loadedSession(One, Text)->handle(Frame);
  ASSERT_EQ(Want[0], static_cast<std::uint8_t>(proto::Opcode::Answers));

  server::ServerConfig Cfg;
  Cfg.Threads = 4;
  server::SessionManager Mgr(Cfg);
  std::vector<std::unique_ptr<server::Session>> Sessions;
  for (unsigned C = 0; C != 4; ++C)
    Sessions.push_back(loadedSession(Mgr, Text));
  EXPECT_EQ(Mgr.pool().seats(), 4u);
  for (unsigned C = 0; C != 4; ++C) {
    std::uint64_t Wakes = 0;
    EXPECT_EQ(measuredReply(Mgr, *Sessions[C], Frame, Wakes), Want)
        << "session " << C;
    EXPECT_EQ(Wakes, 0u) << "session " << C << " woke a helper";
  }

  Sessions.resize(1);
  EXPECT_EQ(Mgr.pool().seats(), 1u);
  std::uint64_t Wakes = 0;
  EXPECT_EQ(measuredReply(Mgr, *Sessions[0], Frame, Wakes), Want);
  EXPECT_EQ(Wakes, 3u) << "a lone session lost its fan-out";

  Sessions.clear();
  EXPECT_EQ(Mgr.pool().seats(), 0u);
}
