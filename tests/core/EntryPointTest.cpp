//===- tests/core/EntryPointTest.cpp --------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every LiveCheck entry point, with and without incremental update state,
// must match the brute-force oracle on random reducible and irreducible
// CFGs: classic
// block-id spans, prepared variables over an unsorted duplicate-bearing
// use-number span, over the sorted/deduped span, and over a use mask, and
// the liveInBlocks/liveOutBlocks batch sweeps.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"
#include "liveness/LivenessOracle.h"
#include "workload/CFGGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct SyntheticVar {
  unsigned Def;
  std::vector<unsigned> Uses; ///< Block ids, duplicates possible.
};

std::vector<SyntheticVar> placeVariables(const CFG &G, const DomTree &DT,
                                         RandomEngine &Rng, unsigned Count) {
  std::vector<SyntheticVar> Vars;
  unsigned N = G.numNodes();
  for (unsigned I = 0; I != Count; ++I) {
    SyntheticVar V;
    V.Def = Rng.nextBelow(N);
    unsigned Lo = DT.num(V.Def), Hi = DT.maxnum(V.Def);
    // Mix small and large use sets so both the span and the mask paths of
    // the renumbered plane get exercised (the mask threshold in
    // FunctionLiveness is ~max(8, N/64)).
    unsigned NumUses = 1 + Rng.nextBelow(I % 3 == 0 ? 12 : 3);
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

class EntryPoints : public ::testing::TestWithParam<Config> {};

} // namespace

TEST_P(EntryPoints, EveryEntryPointMatchesOracle) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != C.Seeds; ++Seed) {
    RandomEngine Rng(Seed * 52361 + 19);
    CFGGenOptions Opts;
    Opts.TargetBlocks =
        C.MinBlocks + Rng.nextBelow(C.MaxBlocks - C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);
    unsigned N = G.numNodes();

    std::vector<std::unique_ptr<LiveCheck>> Engines;
    for (bool Incremental : {false, true})
      Engines.push_back(std::make_unique<LiveCheck>(
          G, D, DT, LiveCheckOptions{Incremental}));

    auto Vars = placeVariables(G, DT, Rng, 10);
    BitVector InSweep, OutSweep, Mask(N);
    for (const SyntheticVar &V : Vars) {
      // The renumbered-plane inputs. RawNums is the translation in reverse
      // order with the first use repeated — the span contract allows any
      // order and duplicates — while Nums is the sorted/deduped form a
      // batching caller would prepare.
      std::vector<unsigned> RawNums(V.Uses.rbegin(), V.Uses.rend());
      for (unsigned &U : RawNums)
        U = DT.num(U);
      RawNums.push_back(RawNums.front());
      std::vector<unsigned> Nums = RawNums;
      std::sort(Nums.begin(), Nums.end());
      Nums.erase(std::unique(Nums.begin(), Nums.end()), Nums.end());
      Mask.reset();
      for (unsigned U : Nums)
        Mask.set(U);

      for (const auto &E : Engines) {
        LiveCheck::PreparedVar PVSpan;
        E->prepareDef(V.Def, PVSpan);
        PVSpan.NumsBegin = Nums.data();
        PVSpan.NumsEnd = Nums.data() + Nums.size();
        LiveCheck::PreparedVar PVRaw = PVSpan;
        PVRaw.NumsBegin = RawNums.data();
        PVRaw.NumsEnd = RawNums.data() + RawNums.size();
        LiveCheck::PreparedVar PVMask = PVSpan;
        PVMask.setMask(Mask);

        E->liveInBlocks(V.Def, V.Uses, InSweep);
        E->liveOutBlocks(V.Def, V.Uses, OutSweep);
        BitVector InBoth, OutBoth;
        E->liveInOutBlocks(V.Def, V.Uses, InBoth, OutBoth);
        EXPECT_EQ(InBoth, InSweep) << "combined sweep (in) diverges";
        EXPECT_EQ(OutBoth, OutSweep) << "combined sweep (out) diverges";

        for (unsigned Q = 0; Q != N; ++Q) {
          bool WantIn = LivenessOracle::liveInSearch(G, V.Def, V.Uses, Q);
          bool WantOut = LivenessOracle::liveOutSearch(G, V.Def, V.Uses, Q);
          auto Ctx = [&](const char *Entry) {
            return ::testing::Message()
                   << C.Name << " seed " << Seed << " def " << V.Def
                   << " q " << Q << " entry " << Entry << " incremental "
                   << E->options().Incremental;
          };
          EXPECT_EQ(E->isLiveIn(V.Def, Q, V.Uses), WantIn) << Ctx("blocks");
          EXPECT_EQ(E->isLiveOut(V.Def, Q, V.Uses), WantOut)
              << Ctx("blocks");
          EXPECT_EQ(E->isLiveInPrepared(PVRaw, Q), WantIn)
              << Ctx("prepared-raw-span");
          EXPECT_EQ(E->isLiveOutPrepared(PVRaw, Q), WantOut)
              << Ctx("prepared-raw-span");
          EXPECT_EQ(E->isLiveInPrepared(PVSpan, Q), WantIn)
              << Ctx("prepared-span");
          EXPECT_EQ(E->isLiveOutPrepared(PVSpan, Q), WantOut)
              << Ctx("prepared-span");
          EXPECT_EQ(E->isLiveInPrepared(PVMask, Q), WantIn)
              << Ctx("prepared-mask");
          EXPECT_EQ(E->isLiveOutPrepared(PVMask, Q), WantOut)
              << Ctx("prepared-mask");
          EXPECT_EQ(InSweep.test(Q), WantIn) << Ctx("liveInBlocks");
          EXPECT_EQ(OutSweep.test(Q), WantOut) << Ctx("liveOutBlocks");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EntryPoints,
    ::testing::Values(Config{"TinyReducible", 2, 8, 0, 12},
                      Config{"SmallReducible", 8, 24, 0, 8},
                      Config{"MediumReducible", 24, 56, 0, 3},
                      Config{"TinyIrreducible", 3, 10, 2, 12},
                      Config{"SmallIrreducible", 8, 24, 3, 8},
                      Config{"MediumIrreducible", 24, 56, 5, 3}),
    [](const auto &Info) { return Info.param.Name; });
