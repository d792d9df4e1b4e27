//===- tests/core/Figure3Test.cpp -----------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The worked example of the paper's Figure 3 and Section 3.2. The figure
// itself does not survive text extraction, so the graph is reconstructed
// from every constraint the prose states (see DESIGN.md "Reconstruction
// notes"): nodes 1..11 numbered in dominance-tree preorder, back edges
// (10,8), (6,5), (7,2) — giving back-edge targets {8,5,2} — and the
// variables w (def 2, use 4), x (def 3, use 9), y (def 1, use 5).
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "analysis/Reducibility.h"
#include "liveness/LivenessOracle.h"

#include <gtest/gtest.h>

using namespace ssalive;

namespace {

/// Paper node numbers are 1-based; node ids are paper - 1.
constexpr unsigned P(unsigned PaperNode) { return PaperNode - 1; }

class Figure3 : public ::testing::Test {
protected:
  Figure3()
      : G(buildGraph()), D(G), DT(G, D), Check(G, D, DT) {}

  static CFG buildGraph() {
    CFG G(11);
    auto Edge = [&G](unsigned From, unsigned To) {
      G.addEdge(P(From), P(To));
    };
    Edge(1, 2);
    Edge(2, 3);
    Edge(2, 11);
    Edge(3, 4);
    Edge(3, 8);
    Edge(4, 5);
    Edge(5, 6);
    Edge(6, 7);
    Edge(6, 5); // Back edge.
    Edge(7, 2); // Back edge.
    Edge(8, 9);
    Edge(9, 6); // Cross edge.
    Edge(9, 10);
    Edge(10, 8); // Back edge.
    return G;
  }

  bool liveIn(unsigned Def, unsigned Use, unsigned Q) {
    std::vector<unsigned> Uses{P(Use)};
    return Check.isLiveIn(P(Def), P(Q), Uses);
  }

  CFG G;
  DFS D;
  DomTree DT;
  LiveCheck Check;

  // Variable placement from the prose.
  static constexpr unsigned DefW = 2, UseW = 4;
  static constexpr unsigned DefX = 3, UseX = 9;
  static constexpr unsigned DefY = 1, UseY = 5;
};

} // namespace

TEST_F(Figure3, NodeNumbersAreDominancePreorder) {
  // "The example graph of Figure 3 exhibits such a numeration": paper node
  // numbers equal dominance preorder numbers (+1 for our 0-based ids).
  for (unsigned Paper = 1; Paper <= 11; ++Paper)
    EXPECT_EQ(DT.num(P(Paper)), Paper - 1);
}

TEST_F(Figure3, BackEdgeTargetsAreExactly_8_5_2) {
  // "All back edge targets (8, 5, 2)".
  EXPECT_TRUE(D.isBackEdgeTarget(P(8)));
  EXPECT_TRUE(D.isBackEdgeTarget(P(5)));
  EXPECT_TRUE(D.isBackEdgeTarget(P(2)));
  EXPECT_EQ(D.backEdges().size(), 3u);
}

TEST_F(Figure3, UseOfXReducedReachableFrom8) {
  // "the use of x at 9 is reduced reachable from node 8".
  EXPECT_TRUE(Check.isReducedReachable(P(8), P(9)));
  // "no use of x is reduced reachable from 10".
  EXPECT_FALSE(Check.isReducedReachable(P(10), P(9)));
}

TEST_F(Figure3, XLiveInAt10ViaBackEdge) {
  // First worked query: "is x live-in at node 10?" — yes.
  EXPECT_TRUE(liveIn(DefX, UseX, 10));
}

TEST_F(Figure3, YLiveInAt10ViaChainedBackEdges) {
  // Second worked query: "is y live-in at 10?" — "yes, but requires more
  // indirection": back edge to 8, tree+cross to 6, back edge to the use
  // in 5.
  EXPECT_TRUE(liveIn(DefY, UseY, 10));
}

TEST_F(Figure3, WNotLiveAt10DespiteReachableTarget) {
  // "if we pick 2 ... we get yes, but obviously w is not live at 10":
  // target 2 is not strictly dominated by def(w) = 2, so the dominance
  // filter must reject it.
  EXPECT_FALSE(liveIn(DefW, UseW, 10));
  // The temptation exists: 4 is indeed reduced reachable from 2.
  EXPECT_TRUE(Check.isReducedReachable(P(2), P(4)));
}

TEST_F(Figure3, XNotLiveInAt4DespiteSubtreeTarget) {
  // "Assume we want to test for x being live-in at 4 ... However, x is not
  // at all live at 4": the path 4,5,6,7,2,3,8 leaves def(x)'s dominance
  // subtree, so 8 must not be considered for queries at 4.
  EXPECT_FALSE(liveIn(DefX, UseX, 4));
  EXPECT_FALSE(Check.isInT(P(4), P(8)))
      << "T_4 must not contain 8 (Definition 5 filter)";
}

TEST_F(Figure3, TSetOf10ChainsThroughTargets) {
  // T_10 per Definition 5: {10} then 8 (via (10,8)), then 5 and 2 from
  // T_8's chain.
  EXPECT_TRUE(Check.isInT(P(10), P(10)));
  EXPECT_TRUE(Check.isInT(P(10), P(8)));
  EXPECT_TRUE(Check.isInT(P(10), P(5)));
  EXPECT_TRUE(Check.isInT(P(10), P(2)));
}

TEST_F(Figure3, GraphIsIrreducibleAtEdge65) {
  // The reconstruction contains the multi-entry loop {5,6} entered both
  // from 4 and (via the cross edge) from 9; edge (6,5) is irreducible.
  ReducibilityInfo Info = analyzeReducibility(D, DT);
  EXPECT_FALSE(Info.Reducible);
  ASSERT_EQ(Info.IrreducibleEdges.size(), 1u);
  EXPECT_EQ(Info.IrreducibleEdges[0],
            (std::pair<unsigned, unsigned>{P(6), P(5)}));
}

TEST_F(Figure3, AllQueriesMatchOracleForAllVariables) {
  struct Var {
    unsigned Def;
    unsigned Use;
  };
  const Var Vars[] = {{DefW, UseW}, {DefX, UseX}, {DefY, UseY}};
  for (const Var &V : Vars) {
    std::vector<unsigned> Uses{P(V.Use)};
    for (unsigned Q = 1; Q <= 11; ++Q) {
      EXPECT_EQ(Check.isLiveIn(P(V.Def), P(Q), Uses),
                LivenessOracle::liveInSearch(G, P(V.Def), Uses, P(Q)))
          << "live-in def=" << V.Def << " q=" << Q;
      EXPECT_EQ(Check.isLiveOut(P(V.Def), P(Q), Uses),
                LivenessOracle::liveOutSearch(G, P(V.Def), Uses, P(Q)))
          << "live-out def=" << V.Def << " q=" << Q;
    }
  }
}
