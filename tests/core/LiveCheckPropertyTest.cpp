//===- tests/core/LiveCheckPropertyTest.cpp -------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The load-bearing correctness tests: on random CFGs (structured reducible
// and goto-mangled irreducible) with random variable placements, every
// (variable, block) live-in and live-out answer of the fast engine — in
// all option combinations — must equal the brute-force oracle that
// implements the paper's Definitions 2 and 3 by graph search.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"
#include "liveness/LivenessOracle.h"
#include "workload/CFGGenerator.h"

#include <gtest/gtest.h>

#include <memory>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

/// One synthetic variable for CFG-level checks: a def block and use blocks
/// placed in the def's dominance subtree (as strict SSA guarantees).
struct SyntheticVar {
  unsigned Def;
  std::vector<unsigned> Uses;
};

std::vector<SyntheticVar> placeVariables(const CFG &G, const DomTree &DT,
                                         RandomEngine &Rng,
                                         unsigned Count) {
  std::vector<SyntheticVar> Vars;
  unsigned N = G.numNodes();
  for (unsigned I = 0; I != Count; ++I) {
    SyntheticVar V;
    V.Def = Rng.nextBelow(N);
    // Dominated blocks form the interval [num, maxnum].
    unsigned Lo = DT.num(V.Def), Hi = DT.maxnum(V.Def);
    unsigned NumUses = 1 + Rng.nextBelow(4);
    for (unsigned U = 0; U != NumUses; ++U)
      V.Uses.push_back(DT.nodeAtNum(Rng.nextInRange(Lo, Hi)));
    Vars.push_back(std::move(V));
  }
  return Vars;
}

struct Config {
  const char *Name;
  unsigned MinBlocks;
  unsigned MaxBlocks;
  unsigned GotoEdges;
  unsigned Seeds;
};

class LiveCheckProperty : public ::testing::TestWithParam<Config> {};

} // namespace

TEST_P(LiveCheckProperty, AllQueriesMatchOracle) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != C.Seeds; ++Seed) {
    RandomEngine Rng(Seed * 7919 + 13);
    CFGGenOptions Opts;
    Opts.TargetBlocks = C.MinBlocks + Rng.nextBelow(C.MaxBlocks -
                                                    C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);

    // Every option combination: both T modes, with and without the
    // subtree skip and the reducible fast path.
    const LiveCheckOptions Variants[] = {{TMode::Propagated, true, true},
                                         {TMode::Filtered, true, true},
                                         {TMode::Propagated, false, false},
                                         {TMode::Filtered, true, false}};
    std::vector<std::unique_ptr<LiveCheck>> Engines;
    for (const LiveCheckOptions &O : Variants)
      Engines.push_back(std::make_unique<LiveCheck>(G, D, DT, O));

    auto Vars = placeVariables(G, DT, Rng, 12);
    for (const SyntheticVar &V : Vars) {
      for (unsigned Q = 0; Q != G.numNodes(); ++Q) {
        bool WantIn = LivenessOracle::liveInSearch(G, V.Def, V.Uses, Q);
        bool WantOut = LivenessOracle::liveOutSearch(G, V.Def, V.Uses, Q);
        for (std::size_t I = 0; I != Engines.size(); ++I) {
          EXPECT_EQ(Engines[I]->isLiveIn(V.Def, Q, V.Uses), WantIn)
              << C.Name << " seed " << Seed << " variant " << I << " def "
              << V.Def << " q " << Q;
          EXPECT_EQ(Engines[I]->isLiveOut(V.Def, Q, V.Uses), WantOut)
              << C.Name << " seed " << Seed << " variant " << I << " def "
              << V.Def << " q " << Q;
        }
      }
    }
  }
}

/// Definition-5 invariants of the precomputed sets themselves, checked
/// structurally on random graphs.
TEST_P(LiveCheckProperty, PrecomputedSetInvariants) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != std::min(C.Seeds, 8u); ++Seed) {
    RandomEngine Rng(Seed * 104729 + 7);
    CFGGenOptions Opts;
    Opts.TargetBlocks = C.MinBlocks + Rng.nextBelow(C.MaxBlocks -
                                                    C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);
    LiveCheck Propagated(G, D, DT, {TMode::Propagated, true, true});
    LiveCheck Filtered(G, D, DT, {TMode::Filtered, true, true});

    for (unsigned V = 0; V != G.numNodes(); ++V) {
      // v ∈ R_v and v ∈ T_v.
      EXPECT_TRUE(Propagated.isReducedReachable(V, V));
      EXPECT_TRUE(Propagated.isInT(V, V));
      EXPECT_TRUE(Filtered.isInT(V, V));
      for (unsigned W = 0; W != G.numNodes(); ++W) {
        // Filtered sets are Definition 5; propagated sets may only add.
        if (Filtered.isInT(V, W)) {
          EXPECT_TRUE(Propagated.isInT(V, W))
              << "propagated must be a superset, seed " << Seed;
        }
        // Every T member other than the node itself is a back-edge target.
        if (W != V && Propagated.isInT(V, W)) {
          EXPECT_TRUE(D.isBackEdgeTarget(W)) << "seed " << Seed;
        }
        // R agrees between modes (it does not depend on the T mode).
        EXPECT_EQ(Propagated.isReducedReachable(V, W),
                  Filtered.isReducedReachable(V, W));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LiveCheckProperty,
    ::testing::Values(Config{"TinyReducible", 2, 8, 0, 40},
                      Config{"SmallReducible", 8, 24, 0, 25},
                      Config{"MediumReducible", 24, 64, 0, 10},
                      Config{"TinyIrreducible", 3, 10, 2, 40},
                      Config{"SmallIrreducible", 8, 24, 3, 25},
                      Config{"MediumIrreducible", 24, 64, 5, 10},
                      Config{"LargeMixed", 64, 128, 3, 4}),
    [](const auto &Info) { return Info.param.Name; });
