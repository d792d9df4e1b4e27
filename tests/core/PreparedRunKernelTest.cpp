//===- tests/core/PreparedRunKernelTest.cpp -------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The multi-query kernel (LiveCheck::answerPreparedRun): a run of probes
// against one prepared variable must answer bit-identically to calling
// isLiveInPrepared / isLiveOutPrepared per probe, on every internal path —
// the short-run fallback and the interval sweep in its mask-backed,
// bits-probe (few uses), and scratch-mask (many uses, no mask) modes. The
// batch driver's locality-grouped phase 2 rests on exactly this
// equivalence.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"
#include "core/PreparedCache.h"
#include "ir/IRParser.h"
#include "pipeline/AnalysisManager.h"
#include "support/RandomEngine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

/// Answers deterministic random probe runs of several lengths through the
/// kernel and byte-compares each against the per-probe oracle. Lengths
/// straddle the sweep gate: short runs take the fallback loop, longer runs
/// the interval sweep (under arena storage). Also pins the stats contract:
/// exactly one LiveIn/LiveOut count per probe regardless of path.
void checkRunsMatchPerProbe(const LiveCheck &LC,
                            const LiveCheck::PreparedVar &P,
                            unsigned NumBlocks, std::uint64_t Seed,
                            const char *What) {
  RandomEngine Rng(Seed);
  for (std::size_t N : {std::size_t(1), std::size_t(3), std::size_t(7),
                        std::size_t(8), std::size_t(16), std::size_t(64),
                        std::size_t(200)}) {
    std::vector<LiveCheck::PreparedProbe> Probes(N);
    for (LiveCheck::PreparedProbe &Q : Probes) {
      Q.Block = Rng.nextBelow(NumBlocks);
      Q.IsLiveOut = Rng.nextBelow(2) != 0;
    }
    std::vector<std::uint8_t> Got(N, 0xCC), Want(N, 0xCC);
    LiveCheckStats Sink;
    LC.answerPreparedRun(P, Probes.data(), N, Got.data(), &Sink);
    std::uint64_t WantIn = 0, WantOut = 0;
    for (std::size_t I = 0; I != N; ++I) {
      if (Probes[I].IsLiveOut) {
        Want[I] = LC.isLiveOutPrepared(P, Probes[I].Block);
        ++WantOut;
      } else {
        Want[I] = LC.isLiveInPrepared(P, Probes[I].Block);
        ++WantIn;
      }
    }
    ASSERT_EQ(Got, Want) << What << " run of " << N;
    EXPECT_EQ(Sink.LiveInQueries, WantIn) << What << " run of " << N;
    EXPECT_EQ(Sink.LiveOutQueries, WantOut) << What << " run of " << N;
  }
}

std::unique_ptr<Function> parse(const char *Text) {
  ParseResult R = parseFunction(Text);
  EXPECT_TRUE(R.Func) << R.Error;
  return std::move(R.Func);
}

} // namespace

TEST(PreparedRunKernel, MatchesPerProbeOnRandomFunctions) {
  // Random CFGs (reducible and goto-edged) with organically mixed use
  // counts: cache entries come out nums-backed (few uses → the bits-probe
  // sweep mode) and mask-backed (the mask sweep mode) as they fall.
  for (std::uint64_t Seed = 4200; Seed != 4210; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 10 + static_cast<unsigned>(Seed % 24);
    Cfg.GotoEdges = Seed % 3;
    auto F = randomSSAFunction(Seed, Cfg);
    AnalysisManager AM;
    FunctionAnalyses &FA = AM.get(*F);
    const LiveCheck &LC = FA.liveCheck();
    PreparedCache Cache(*F, LC, FA.domTree());
    for (const auto &V : F->values()) {
      if (V->defs().size() != 1 || !V->hasUses())
        continue;
      checkRunsMatchPerProbe(LC, Cache.ensure(*V), F->numBlocks(),
                             Seed ^ V->id(), V->name().c_str());
    }
  }
}

TEST(PreparedRunKernel, MatchesPerProbeAcrossSweepSourceModes) {
  // A constructed chain where every heavy value is used in 20 distinct
  // blocks: its cache entry is mask-backed (mask sweep mode), and a
  // mask-stripped copy of the same entry has more use numbers than the
  // bits-probe cutoff, forcing the scratch-mask mode — all three sweep
  // sources answered against the same oracle.
  constexpr unsigned NumHeavy = 6;
  constexpr unsigned NumBlocks = 30;
  constexpr unsigned UsesPerValue = 20;
  std::string Text = "func @modes {\ne:\n  %p = param 0\n";
  for (unsigned J = 0; J != NumHeavy; ++J)
    Text += "  %h" + std::to_string(J) + " = const " + std::to_string(J) +
            "\n";
  Text += "  jump b0\n";
  unsigned Tmp = 0;
  for (unsigned I = 0; I != NumBlocks; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    for (unsigned J = 0; J != NumHeavy; ++J)
      if ((I + NumBlocks - J) % NumBlocks < UsesPerValue)
        Text += "  %t" + std::to_string(Tmp++) + " = opaque %h" +
                std::to_string(J) + "\n";
    if (I + 1 != NumBlocks)
      Text += "  jump b" + std::to_string(I + 1) + "\n";
    else
      Text += "  ret %p\n";
  }
  Text += "}\n";
  auto F = parse(Text.c_str());
  ASSERT_TRUE(F);

  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  const LiveCheck &LC = FA.liveCheck();
  PreparedCache Cache(*F, LC, FA.domTree());
  for (const auto &V : F->values()) {
    if (V->name().empty() || V->name()[0] != 'h')
      continue;
    const LiveCheck::PreparedVar &P = Cache.ensure(*V);
    ASSERT_NE(P.MaskWords, nullptr)
        << "%" << V->name() << " has " << UsesPerValue
        << " distinct use numbers; the mask plane must engage";
    checkRunsMatchPerProbe(LC, P, F->numBlocks(), 0x90D ^ V->id(),
                           "mask-backed");

    // Same variable, nums only (own the span storage — the idiom the
    // batch driver's non-cached planes use): too many uses for the
    // bits-probe mode, so the sweep builds its scratch mask.
    std::vector<unsigned> Nums(P.NumsBegin, P.NumsEnd);
    ASSERT_GT(Nums.size(), 16u);
    LiveCheck::PreparedVar NumsOnly = P;
    NumsOnly.NumsBegin = Nums.data();
    NumsOnly.NumsEnd = Nums.data() + Nums.size();
    NumsOnly.clearMask();
    checkRunsMatchPerProbe(LC, NumsOnly, F->numBlocks(), 0x90D ^ V->id(),
                           "scratch-mask");
  }
}
