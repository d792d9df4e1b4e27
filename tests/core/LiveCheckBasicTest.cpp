//===- tests/core/LiveCheckBasicTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct Engines {
  CFG G;
  DFS D;
  DomTree DT;
  LiveCheck Check;

  explicit Engines(CFG Graph, LiveCheckOptions Opts = {})
      : G(std::move(Graph)), D(G), DT(G, D), Check(G, D, DT, Opts) {}
};

} // namespace

TEST(LiveCheckBasic, StraightLine) {
  // 0 -> 1 -> 2; def at 0, use at 2.
  Engines E(makeCFG(3, {{0, 1}, {1, 2}}));
  std::vector<unsigned> Uses{2};
  EXPECT_FALSE(E.Check.isLiveIn(0, 0, Uses)) << "never live-in at the def";
  EXPECT_TRUE(E.Check.isLiveIn(0, 1, Uses));
  EXPECT_TRUE(E.Check.isLiveIn(0, 2, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 0, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 1, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(0, 2, Uses)) << "dead past the last use";
}

TEST(LiveCheckBasic, DiamondOneArm) {
  // def at 0, use only in the left arm.
  Engines E(makeCFG(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  std::vector<unsigned> Uses{1};
  EXPECT_TRUE(E.Check.isLiveIn(0, 1, Uses));
  EXPECT_FALSE(E.Check.isLiveIn(0, 2, Uses));
  EXPECT_FALSE(E.Check.isLiveIn(0, 3, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 0, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(0, 1, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(0, 2, Uses));
}

TEST(LiveCheckBasic, LoopKeepsValueLive) {
  // 0 -> 1(header) -> 2(body) -> 1, 1 -> 3. Def at 0, use at 2: the value
  // stays live around the whole loop.
  Engines E(makeCFG(4, {{0, 1}, {1, 2}, {2, 1}, {1, 3}}));
  std::vector<unsigned> Uses{2};
  EXPECT_TRUE(E.Check.isLiveIn(0, 1, Uses));
  EXPECT_TRUE(E.Check.isLiveIn(0, 2, Uses));
  EXPECT_FALSE(E.Check.isLiveIn(0, 3, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 1, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 2, Uses)) << "live along the back edge";
  EXPECT_FALSE(E.Check.isLiveOut(0, 3, Uses));
}

TEST(LiveCheckBasic, UseAtDefBlockOnly) {
  // A use only in the def block creates no liveness anywhere...
  Engines E(makeCFG(3, {{0, 1}, {1, 2}}));
  std::vector<unsigned> Uses{1};
  EXPECT_FALSE(E.Check.isLiveIn(1, 2, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(1, 1, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(1, 0, Uses));
}

TEST(LiveCheckBasic, UseAtDefBlockInLoop) {
  // ...unless the block sits on a cycle avoiding nothing: def and use in
  // the loop body, the value crosses the back edge. Def block = 1, use
  // block = 1, cycle 1 -> 2 -> 1.
  Engines E(makeCFG(4, {{0, 1}, {1, 2}, {2, 1}, {1, 3}}));
  std::vector<unsigned> Uses{1};
  // Formal Definition 2: any path from a successor back to the use at 1
  // does not pass the def block 1? No — node 1 is the def block, every
  // path to the use enters it. Live-out at 1 is false; but live-out at 2
  // (inside the loop, use reachable without re-entering... it must enter
  // node 1, the def block). All false.
  EXPECT_FALSE(E.Check.isLiveOut(1, 1, Uses));
  EXPECT_FALSE(E.Check.isLiveIn(1, 2, Uses));

  // A use in the body (block 2) with def at header 1: live around.
  std::vector<unsigned> UsesBody{2};
  EXPECT_TRUE(E.Check.isLiveOut(1, 1, UsesBody));
  EXPECT_TRUE(E.Check.isLiveIn(1, 2, UsesBody));
  EXPECT_FALSE(E.Check.isLiveOut(1, 3, UsesBody));
}

TEST(LiveCheckBasic, SelfLoopTrivialPathException) {
  // Algorithm 2 line 8: a use at q counts for live-out only if q is a
  // back-edge target. Here q = 2 has a self loop; def at 0, use at 2.
  Engines E(makeCFG(4, {{0, 1}, {1, 2}, {2, 2}, {2, 3}}));
  std::vector<unsigned> Uses{2};
  EXPECT_TRUE(E.Check.isLiveOut(0, 1, Uses));
  EXPECT_TRUE(E.Check.isLiveOut(0, 2, Uses))
      << "the self loop re-reaches the use";
  // Without the self loop the same query is false.
  Engines E2(makeCFG(4, {{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_FALSE(E2.Check.isLiveOut(0, 2, Uses));
  EXPECT_TRUE(E2.Check.isLiveIn(0, 2, Uses));
}

TEST(LiveCheckBasic, QueryOutsideDominanceSubtree) {
  // def in one branch arm: queries in the sibling arm or above must be
  // false instantly (interval test).
  Engines E(makeCFG(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  std::vector<unsigned> Uses{3};
  EXPECT_FALSE(E.Check.isLiveIn(1, 2, Uses));
  EXPECT_FALSE(E.Check.isLiveIn(1, 0, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(1, 2, Uses));
  // Not even at the join: 1 does not dominate 3, and a strict program
  // could not use the value there anyway.
  EXPECT_FALSE(E.Check.isLiveIn(1, 3, Uses));
}

TEST(LiveCheckBasic, MultipleUsesAnyMatch) {
  Engines E(makeCFG(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}));
  std::vector<unsigned> Uses{1, 4};
  EXPECT_TRUE(E.Check.isLiveIn(0, 1, Uses));
  EXPECT_TRUE(E.Check.isLiveIn(0, 2, Uses)) << "use at 4 reachable";
  EXPECT_TRUE(E.Check.isLiveIn(0, 3, Uses));
  EXPECT_TRUE(E.Check.isLiveIn(0, 4, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(0, 4, Uses));
}

TEST(LiveCheckBasic, EmptyUsesNeverLive) {
  Engines E(makeCFG(3, {{0, 1}, {1, 2}}));
  std::vector<unsigned> Uses;
  for (unsigned Q = 0; Q != 3; ++Q) {
    EXPECT_FALSE(E.Check.isLiveIn(0, Q, Uses));
    EXPECT_FALSE(E.Check.isLiveOut(0, Q, Uses));
  }
}

TEST(LiveCheckBasic, SingleNodeGraph) {
  Engines E{CFG(1)};
  std::vector<unsigned> Uses{0};
  EXPECT_FALSE(E.Check.isLiveIn(0, 0, Uses));
  EXPECT_FALSE(E.Check.isLiveOut(0, 0, Uses));
}

TEST(LiveCheckBasic, ReducedReachabilityExcludesBackEdges) {
  Engines E(makeCFG(4, {{0, 1}, {1, 2}, {2, 1}, {1, 3}}));
  EXPECT_TRUE(E.Check.isReducedReachable(1, 2));
  EXPECT_FALSE(E.Check.isReducedReachable(2, 1))
      << "only the back edge connects 2 to 1";
  EXPECT_TRUE(E.Check.isReducedReachable(0, 3));
  EXPECT_TRUE(E.Check.isReducedReachable(2, 2)) << "trivial path";
}

TEST(LiveCheckBasic, StatsCountQueries) {
  Engines E(makeCFG(3, {{0, 1}, {1, 2}}));
  std::vector<unsigned> Uses{2};
  LiveCheckStats Stats;
  E.Check.isLiveIn(0, 1, Uses, &Stats);
  E.Check.isLiveOut(0, 1, Uses, &Stats);
  E.Check.isLiveOut(0, 0, Uses, &Stats);
  EXPECT_EQ(Stats.LiveInQueries, 1u);
  EXPECT_EQ(Stats.LiveOutQueries, 2u);
  EXPECT_GT(Stats.UseTests, 0u);
  // Queries without a sink leave the caller's counters untouched; the
  // engine itself holds no query state at all.
  LiveCheckStats Fresh;
  E.Check.isLiveIn(0, 1, Uses);
  EXPECT_EQ(Fresh.LiveInQueries, 0u);
}

TEST(LiveCheckBasic, MemoryFootprintIsQuadratic) {
  // N nodes, one N-bit row per node for R and T each: the paper's
  // quadratic behaviour (Sections 6.1, 8). memoryBytes() also accounts
  // for the per-node side tables (maxnum, back-target flags) and container
  // metadata, so assert the quadratic payload as an exact floor and allow
  // only a linear overhead on top of it.
  auto QuadraticPayload = [](unsigned N) {
    return std::size_t(N) * ((N + 63) / 64) * 8 * 2;
  };
  Engines Small(makeCFG(3, {{0, 1}, {1, 2}}));
  EXPECT_GE(Small.Check.memoryBytes(), QuadraticPayload(3));
  EXPECT_LT(Small.Check.memoryBytes(), QuadraticPayload(3) + 3 * 64 + 1024);
  CFG Chain(70);
  for (unsigned V = 0; V + 1 != 70; ++V)
    Chain.addEdge(V, V + 1);
  Engines Large(std::move(Chain));
  EXPECT_GE(Large.Check.memoryBytes(), QuadraticPayload(70));
  EXPECT_LT(Large.Check.memoryBytes(),
            QuadraticPayload(70) + 70 * 64 + 1024);
}
