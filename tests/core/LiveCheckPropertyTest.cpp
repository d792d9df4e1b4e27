//===- tests/core/LiveCheckPropertyTest.cpp -------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The load-bearing correctness tests: on random CFGs (structured reducible
// and goto-mangled irreducible) with random variable placements, every
// (variable, block) live-in and live-out answer of the fast engine — with
// and without incremental update state — must equal the brute-force oracle
// that implements the paper's Definitions 2 and 3 by graph search.
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

    // Every option combination: with and without the retained
    // incremental update state.
    const LiveCheckOptions Variants[] = {{/*Incremental=*/false},
                                         {/*Incremental=*/true}};
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

namespace {

/// Definition 4 by brute force: the nodes reachable from \p From over the
/// reduced graph (the DFS's non-back edges), as a per-node flag vector.
std::vector<bool> reducedReach(const DFS &D, unsigned N, unsigned From) {
  std::vector<bool> Seen(N, false);
  std::vector<unsigned> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    for (const unsigned *S = D.reducedBegin(V), *E = D.reducedEnd(V); S != E;
         ++S)
      if (!Seen[*S]) {
        Seen[*S] = true;
        Work.push_back(*S);
      }
  }
  return Seen;
}

/// Definition 5 by brute force: T_q is {q} closed under t -> t' for every
/// back edge (s, t') with s ∈ R_t and t' ∉ R_t.
std::vector<bool> definition5(const LiveCheck &LC, const DFS &D, unsigned N,
                              unsigned Q) {
  std::vector<bool> InT(N, false);
  std::vector<unsigned> Work{Q};
  InT[Q] = true;
  while (!Work.empty()) {
    unsigned T = Work.back();
    Work.pop_back();
    for (auto [S, Tgt] : D.backEdges())
      if (!InT[Tgt] && LC.isReducedReachable(T, S) &&
          !LC.isReducedReachable(T, Tgt)) {
        InT[Tgt] = true;
        Work.push_back(Tgt);
      }
  }
  return InT;
}

} // namespace

/// Definition-4/5 invariants of the precomputed sets themselves, checked
/// against brute-force references on random graphs.
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
    LiveCheck Check(G, D, DT);
    const unsigned N = G.numNodes();

    for (unsigned V = 0; V != N; ++V) {
      std::vector<bool> WantR = reducedReach(D, N, V);
      std::vector<bool> WantT = definition5(Check, D, N, V);
      EXPECT_TRUE(Check.isInT(V, V)) << "seed " << Seed << " v " << V;
      for (unsigned W = 0; W != N; ++W) {
        EXPECT_EQ(Check.isReducedReachable(V, W), WantR[W])
            << "R differs from Definition 4, seed " << Seed << " v " << V
            << " w " << W;
        // The propagated sets are supersets of Definition 5 ...
        if (WantT[W]) {
          EXPECT_TRUE(Check.isInT(V, W))
              << "T misses a Definition-5 member, seed " << Seed << " v "
              << V << " w " << W;
        } else if (Check.isInT(V, W)) {
          // ... whose extra members are all back-edge targets.
          EXPECT_TRUE(D.isBackEdgeTarget(W))
              << "T holds a non-target extra, seed " << Seed << " v " << V
              << " w " << W;
        }
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
