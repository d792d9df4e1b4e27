//===- tests/liveness/BackendAgreementTest.cpp ----------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Cross-validation over real IR functions: the fast engine, the data-flow
// baseline (bit-for-bit the "Native" comparator of Table 2), the
// path-exploration baseline and the brute-force oracle must answer every
// (value, block) live-in/live-out query identically on random strict SSA
// functions with φs, including irreducible ones.
//
//===----------------------------------------------------------------------===//

#include "core/FunctionLiveness.h"
#include "liveness/DataflowLiveness.h"
#include "liveness/LivenessOracle.h"
#include "liveness/PathExplorationLiveness.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct Shape {
  const char *Name;
  unsigned Blocks;
  unsigned GotoEdges;
  unsigned Seeds;
};

class BackendAgreement : public ::testing::TestWithParam<Shape> {};

} // namespace

TEST_P(BackendAgreement, AllBackendsAgreeOnAllQueries) {
  const Shape &S = GetParam();
  for (std::uint64_t Seed = 1; Seed <= S.Seeds; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = S.Blocks;
    Cfg.GotoEdges = S.GotoEdges;
    auto F = randomSSAFunction(Seed * 31 + S.Blocks, Cfg);

    FunctionLiveness Fast(*F);
    DataflowLiveness Dataflow(*F);
    BitVectorDataflowLiveness BitDataflow(*F);
    PathExplorationLiveness PathExp(*F);
    LivenessOracle Oracle(*F);

    for (const auto &VP : F->values()) {
      const Value &V = *VP;
      if (V.defs().empty())
        continue;
      for (const auto &B : F->blocks()) {
        bool WantIn = Oracle.isLiveIn(V, *B);
        bool WantOut = Oracle.isLiveOut(V, *B);
        EXPECT_EQ(BitDataflow.isLiveIn(V, *B), WantIn)
            << S.Name << " seed " << Seed << " %" << V.name() << " in "
            << B->name();
        EXPECT_EQ(BitDataflow.isLiveOut(V, *B), WantOut)
            << S.Name << " seed " << Seed << " %" << V.name() << " out "
            << B->name();
        EXPECT_EQ(Fast.isLiveIn(V, *B), WantIn)
            << S.Name << " seed " << Seed << " %" << V.name() << " in "
            << B->name();
        EXPECT_EQ(Dataflow.isLiveIn(V, *B), WantIn)
            << S.Name << " seed " << Seed << " %" << V.name() << " in "
            << B->name();
        EXPECT_EQ(PathExp.isLiveIn(V, *B), WantIn)
            << S.Name << " seed " << Seed << " %" << V.name() << " in "
            << B->name();
        EXPECT_EQ(Fast.isLiveOut(V, *B), WantOut)
            << S.Name << " seed " << Seed << " %" << V.name() << " out "
            << B->name();
        EXPECT_EQ(Dataflow.isLiveOut(V, *B), WantOut)
            << S.Name << " seed " << Seed << " %" << V.name() << " out "
            << B->name();
        EXPECT_EQ(PathExp.isLiveOut(V, *B), WantOut)
            << S.Name << " seed " << Seed << " %" << V.name() << " out "
            << B->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendAgreement,
    ::testing::Values(Shape{"TinyReducible", 6, 0, 12},
                      Shape{"SmallReducible", 16, 0, 8},
                      Shape{"MediumReducible", 40, 0, 4},
                      Shape{"SmallIrreducible", 16, 3, 8},
                      Shape{"MediumIrreducible", 40, 5, 4}),
    [](const auto &Info) { return Info.param.Name; });

TEST(BackendAgreement, MinimalPlacementAlsoAgrees) {
  // Minimal SSA has dead φs whose liveness still must be consistent.
  for (std::uint64_t Seed = 41; Seed <= 46; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.Placement = PhiPlacement::Minimal;
    auto F = randomSSAFunction(Seed, Cfg);
    FunctionLiveness Fast(*F);
    LivenessOracle Oracle(*F);
    for (const auto &VP : F->values()) {
      const Value &V = *VP;
      if (V.defs().empty())
        continue;
      for (const auto &B : F->blocks()) {
        EXPECT_EQ(Fast.isLiveIn(V, *B), Oracle.isLiveIn(V, *B))
            << "seed " << Seed << " %" << V.name() << " in " << B->name();
        EXPECT_EQ(Fast.isLiveOut(V, *B), Oracle.isLiveOut(V, *B))
            << "seed " << Seed << " %" << V.name() << " out " << B->name();
      }
    }
  }
}
