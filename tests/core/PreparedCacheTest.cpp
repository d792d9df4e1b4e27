//===- tests/core/PreparedCacheTest.cpp -----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The value-indexed prepared cache: agreement of the cached plane with the
// block-id oracle, the per-value def-use invalidation contract, and —
// pinned forever — the stale-after-renumbering scenario the CFG-epoch key
// exists to forbid: a PreparedVar held across a structural edit answers
// queries *wrongly* against the repaired engine, so the cache must drop
// (and rebuild) the entry, never serve it. A synced cache instead remaps
// entries onto the new numbering: the directed cases below pin a split's
// number shift, the mask-width fallback, and the use-block invariant the
// remap rests on.
//
//===----------------------------------------------------------------------===//

#include "core/PreparedCache.h"

#include "TestUtil.h"
#include "core/FunctionLiveness.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "pipeline/AnalysisManager.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

std::unique_ptr<Function> parse(const char *Text) {
  ParseResult R = parseFunction(Text);
  EXPECT_TRUE(R.Func) << R.Error;
  return std::move(R.Func);
}

std::vector<const Value *> queryableValues(const Function &F) {
  std::vector<const Value *> Out;
  for (const auto &V : F.values())
    if (V->defs().size() == 1 && V->hasUses())
      Out.push_back(V.get());
  return Out;
}

/// The fields of a prepared entry, owned.
struct EntryImage {
  unsigned DefNum = 0, MaxDom = 0;
  std::vector<unsigned> Nums;
  std::vector<std::uint64_t> Mask;
  bool operator==(const EntryImage &O) const {
    return DefNum == O.DefNum && MaxDom == O.MaxDom && Nums == O.Nums &&
           Mask == O.Mask;
  }
};

EntryImage imageOf(const LiveCheck::PreparedVar &P) {
  EntryImage I;
  I.DefNum = P.DefNum;
  I.MaxDom = P.MaxDom;
  I.Nums.assign(P.NumsBegin, P.NumsEnd);
  if (P.MaskWords)
    I.Mask.assign(P.MaskWords, P.MaskWords + P.MaskNumWords);
  return I;
}

/// Every (block, direction) answer of \p Cache's entry for \p V agrees
/// with a fresh block-id engine.
void expectAgreesWithOracle(PreparedCache &Cache, const Function &F,
                            const Value &V) {
  BlockIdLiveness Oracle(F);
  const LiveCheck::PreparedVar &P = Cache.ensure(V);
  for (const auto &B : F.blocks()) {
    EXPECT_EQ(Cache.engine().isLiveInPrepared(P, B->id()),
              Oracle.isLiveIn(V, *B))
        << "%" << V.name() << " in b" << B->id();
    EXPECT_EQ(Cache.engine().isLiveOutPrepared(P, B->id()),
              Oracle.isLiveOut(V, *B))
        << "%" << V.name() << " out b" << B->id();
  }
}

} // namespace

TEST(PreparedCache, CachedPlaneMatchesBlockIdOracle) {
  // FunctionLiveness (the cached plane) against the block-id oracle over
  // every (value, block) pair and both directions, including irreducible
  // shapes; a second full sweep must be all cache hits.
  for (std::uint64_t Seed = 7100; Seed != 7112; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 12 + static_cast<unsigned>(Seed % 20);
    Cfg.GotoEdges = Seed % 3;
    auto F = randomSSAFunction(Seed, Cfg);
    FunctionLiveness Cached(*F);
    BlockIdLiveness Oracle(*F);

    for (unsigned Sweep = 0; Sweep != 2; ++Sweep)
      for (const auto &V : F->values()) {
        if (V->defs().size() != 1)
          continue;
        for (const auto &B : F->blocks()) {
          ASSERT_EQ(Cached.isLiveIn(*V, *B), Oracle.isLiveIn(*V, *B))
              << "seed " << Seed << " %" << V->name() << " in b"
              << B->id();
          ASSERT_EQ(Cached.isLiveOut(*V, *B), Oracle.isLiveOut(*V, *B))
              << "seed " << Seed << " %" << V->name() << " out b"
              << B->id();
        }
      }

    PreparedCacheStats S = Cached.preparedCache().stats();
    EXPECT_GT(S.Builds, 0u) << "seed " << Seed;
    EXPECT_GT(S.Hits, S.Builds) << "seed " << Seed;
    EXPECT_EQ(S.Rebuilds, 0u) << "seed " << Seed;
    EXPECT_EQ(S.EpochDrops, 0u) << "seed " << Seed;
  }
}

TEST(PreparedCache, DestroyedCacheRetractsItsArenaGauges) {
  // The arena gauges are the live total across caches: a cache that built
  // entries and then died must leave both exactly where they were.
  auto Gauge = [](const char *Name) {
    return static_cast<std::int64_t>(
        telemetry::Registry::global().value(Name));
  };
  const std::int64_t Bytes0 = Gauge("ssalive_prepared_arena_bytes");
  const std::int64_t Slices0 = Gauge("ssalive_prepared_arena_slices");
  for (std::uint64_t Seed = 7200; Seed != 7204; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 40;
    auto F = randomSSAFunction(Seed, Cfg);
    FunctionLiveness FL(*F);
    {
      PreparedCache Cache(*F, FL.engine(), FL.domTree());
      for (const Value *V : queryableValues(*F))
        (void)Cache.ensure(*V);
      Cache.publishTelemetry();
      EXPECT_GT(Gauge("ssalive_prepared_arena_bytes"), Bytes0)
          << "seed " << Seed;
      EXPECT_GT(Gauge("ssalive_prepared_arena_slices"), Slices0)
          << "seed " << Seed;
    }
    EXPECT_EQ(Gauge("ssalive_prepared_arena_bytes"), Bytes0)
        << "seed " << Seed;
    EXPECT_EQ(Gauge("ssalive_prepared_arena_slices"), Slices0)
        << "seed " << Seed;
  }
}

TEST(PreparedCache, StaleEntryAfterRenumberingIsDroppedNotServed) {
  // The pinned contract scenario. A structural edit reparents part of the
  // dominator tree, so the preorder numbering every cached span lives in
  // shifts under the in-place LiveCheck repair. A PreparedVar snapshotted
  // before the edit must then answer at least one query differently from
  // the repaired truth — proving "keep using the old entry" is a real
  // wrong-answer bug, not a theoretical one — and the cache must mark the
  // entry stale, refuse to serve it (debug assert in cached()), and
  // rebuild it to bit-identical agreement with a fresh engine.
  auto F = parse(R"(
func @stale {
e:
  %p = param 0
  %v = const 7
  branch %p, a, b
a:
  %s = opaque %v
  jump c
b:
  jump c
c:
  %u = opaque %v
  branch %p, x, b
x:
  ret %u
}
)");
  ASSERT_TRUE(F);

  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  const LiveCheck &LC = FA.liveCheck();
  PreparedCache Cache(*F, LC, FA.domTree());

  // Snapshot every queryable value's prepared entry under the old
  // numbering (own the span storage: the cache will rebuild over its own).
  struct Snapshot {
    const Value *V;
    std::vector<unsigned> Nums;
    LiveCheck::PreparedVar Prep;
  };
  std::vector<Snapshot> Old;
  for (const auto &V : F->values()) {
    if (V->defs().size() != 1 || !V->hasUses())
      continue;
    const LiveCheck::PreparedVar &P = Cache.ensure(*V);
    Snapshot S;
    S.V = V.get();
    S.Nums.assign(P.NumsBegin, P.NumsEnd);
    S.Prep = P;
    S.Prep.NumsBegin = S.Nums.data();
    S.Prep.NumsEnd = S.Nums.data() + S.Nums.size();
    S.Prep.clearMask(); // Spans only; masks don't engage at this size.
    Old.push_back(std::move(S));
    EXPECT_TRUE(Cache.isFresh(*V.get()));
  }
  ASSERT_FALSE(Old.empty());

  // The renumbering edit: a -> x gives x a second predecessor, reparenting
  // it from c to e in the dominator tree and shifting the preorder
  // numbers/intervals of the blocks behind it.
  Mutation M{MutationKind::AddEdge, /*From=*/1, /*To=*/4, 0};
  ASSERT_TRUE(applyFunctionMutation(*F, M));
  FunctionAnalyses &FA2 = AM.refresh(*F);
  ASSERT_EQ(&FA2, &FA) << "refresh must repair in place";
  EXPECT_EQ(AM.counters().Refreshes, 1u);

  // Every entry went stale with the epoch.
  for (const Snapshot &S : Old)
    EXPECT_FALSE(Cache.isFresh(*S.V)) << "%" << S.V->name();

  // The stale spans are wrong against the repaired engine somewhere: the
  // fresh rebuild is the truth, and at least one (value, block, direction)
  // must disagree with a stale-prep answer.
  BlockIdLiveness Fresh(*F);
  bool StaleAnswersDiffer = false;
  for (const Snapshot &S : Old) {
    for (const auto &B : F->blocks()) {
      if (LC.isLiveInPrepared(S.Prep, B->id()) !=
              Fresh.isLiveIn(*S.V, *B) ||
          LC.isLiveOutPrepared(S.Prep, B->id()) !=
              Fresh.isLiveOut(*S.V, *B))
        StaleAnswersDiffer = true;
    }
  }
  EXPECT_TRUE(StaleAnswersDiffer)
      << "the edit did not make the old numbering wrong — the regression "
         "scenario this test pins no longer reproduces";

  // ensure() rebuilds against the repaired analyses and agrees with the
  // fresh oracle everywhere; the drop is recorded as an epoch drop.
  for (const Snapshot &S : Old) {
    const LiveCheck::PreparedVar &P = Cache.ensure(*S.V);
    EXPECT_TRUE(Cache.isFresh(*S.V));
    for (const auto &B : F->blocks()) {
      EXPECT_EQ(LC.isLiveInPrepared(P, B->id()), Fresh.isLiveIn(*S.V, *B))
          << "%" << S.V->name() << " in b" << B->id();
      EXPECT_EQ(LC.isLiveOutPrepared(P, B->id()),
                Fresh.isLiveOut(*S.V, *B))
          << "%" << S.V->name() << " out b" << B->id();
    }
  }
  EXPECT_EQ(Cache.stats().EpochDrops, Old.size());
}

TEST(PreparedCache, DefUseEditInvalidatesExactlyTheEditedValue) {
  // The paper's Section-7 stability at the cache layer: adding a use
  // never touches the engine, and it drops exactly the edited value's
  // entry — queries then see the new use immediately.
  auto F = parse(R"(
func @duedit {
e:
  %p = param 0
  %a = const 1
  %b = const 2
  branch %p, l, r
l:
  %s = opaque %a
  jump x
r:
  %t = opaque %b
  jump x
x:
  ret %p
}
)");
  ASSERT_TRUE(F);
  FunctionLiveness Live(*F);

  Value *A = nullptr, *B = nullptr;
  for (const auto &V : F->values()) {
    if (V->name() == "a")
      A = V.get();
    if (V->name() == "b")
      B = V.get();
  }
  ASSERT_TRUE(A && B);
  BasicBlock *R = nullptr, *X = nullptr;
  for (const auto &Blk : F->blocks()) {
    if (Blk->name() == "r")
      R = Blk.get();
    if (Blk->name() == "x")
      X = Blk.get();
  }
  ASSERT_TRUE(R && X);

  // %a is used only down the l arm: dead into r.
  EXPECT_FALSE(Live.isLiveIn(*A, *R));
  EXPECT_TRUE(Live.isLiveOut(*B, *F->entry()));

  // Give %a a use in x (no CFG change, no engine invalidation).
  Value *N = F->createValue("n");
  X->insertAt(0, std::make_unique<Instruction>(Opcode::Opaque, N,
                                               std::vector<Value *>{A}));

  // The cached plane reflects the new use on the next query: %a now
  // reaches x through both arms, so it is live into r.
  EXPECT_TRUE(Live.isLiveIn(*A, *R));
  PreparedCacheStats S = Live.preparedCache().stats();
  EXPECT_EQ(S.Rebuilds, 1u) << "exactly %a's entry rebuilds";
  EXPECT_EQ(S.EpochDrops, 0u);
  // %b's entry was untouched and still serves hits, not rebuilds.
  EXPECT_TRUE(Live.isLiveOut(*B, *F->entry()));
  PreparedCacheStats S2 = Live.preparedCache().stats();
  EXPECT_EQ(S2.Hits, S.Hits + 1);
  EXPECT_EQ(S2.Rebuilds, S.Rebuilds);
}

TEST(PreparedCache, ValuesCreatedAfterConstructionAreServed) {
  // Values (and their instructions) may be created after the backend is
  // built; the cache grows on demand.
  auto F = parse(R"(
func @grow {
e:
  %p = param 0
  jump x
x:
  ret %p
}
)");
  ASSERT_TRUE(F);
  FunctionLiveness Live(*F);
  Value *P = F->value(0);
  EXPECT_TRUE(Live.isLiveIn(*P, *F->block(1)));

  Value *N = F->createValue("late");
  F->entry()->insertAt(1, std::make_unique<Instruction>(
                              Opcode::Const, N, std::vector<Value *>{}));
  F->block(1)->insertAt(0, std::make_unique<Instruction>(
                               Opcode::Opaque, F->createValue("use"),
                               std::vector<Value *>{N}));
  EXPECT_TRUE(Live.isLiveIn(*N, *F->block(1)));
  EXPECT_FALSE(Live.isLiveOut(*N, *F->block(1)));
}

TEST(PreparedCache, ArenaGrowthReanchorsOutstandingSpansAndMasks) {
  // A function whose 24 "heavy" values are each used in 12 distinct blocks
  // of a 36-block chain: every entry takes both a 16-element span slice
  // and (12 >= the mask threshold of 8) a one-word mask slice. Ensuring
  // them one at a time grows and relocates the span arena and the mask
  // arena several times over (pinned below through the first entry's span
  // pointer), and after *every* single ensure the entries prepared earlier
  // must still answer correctly through cached() — the growth re-anchoring
  // contract. A dangling pre-relocation span or mask pointer shows up as a
  // wrong answer (or an ASan hit) here.
  constexpr unsigned NumHeavy = 24;
  constexpr unsigned NumBlocks = 36;
  constexpr unsigned UsesPerValue = 12;
  std::string Text = "func @heavy {\ne:\n  %p = param 0\n";
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
  BlockIdLiveness Oracle(*F);

  std::vector<const Value *> Heavy;
  for (const auto &V : F->values())
    if (!V->name().empty() && V->name()[0] == 'h')
      Heavy.push_back(V.get());
  ASSERT_EQ(Heavy.size(), NumHeavy);

  const unsigned *FirstSpan = nullptr;
  unsigned Relocations = 0;
  for (std::size_t Ensured = 0; Ensured != Heavy.size(); ++Ensured) {
    const LiveCheck::PreparedVar &P = Cache.ensure(*Heavy[Ensured]);
    const unsigned *Span = Cache.cached(*Heavy[0]).NumsBegin;
    Relocations += FirstSpan && Span != FirstSpan;
    FirstSpan = Span;
    ASSERT_NE(P.MaskWords, nullptr)
        << "%" << Heavy[Ensured]->name()
        << " has 12 distinct use numbers; the mask plane must engage";
    for (std::size_t K = 0; K <= Ensured; ++K) {
      const Value &V = *Heavy[K];
      ASSERT_TRUE(Cache.isFresh(V));
      const LiveCheck::PreparedVar &Q = Cache.cached(V);
      for (const auto &B : F->blocks()) {
        ASSERT_EQ(LC.isLiveInPrepared(Q, B->id()), Oracle.isLiveIn(V, *B))
            << "%" << V.name() << " in b" << B->id() << " after "
            << (Ensured + 1) << " ensures";
        ASSERT_EQ(LC.isLiveOutPrepared(Q, B->id()), Oracle.isLiveOut(V, *B))
            << "%" << V.name() << " out b" << B->id() << " after "
            << (Ensured + 1) << " ensures";
      }
    }
  }
  EXPECT_GE(Relocations, 3u) << "the span arena must relocate repeatedly";
  // One span + one mask slice per heavy value, nothing leaked or doubled.
  EXPECT_EQ(Cache.liveSlices(), 2 * std::uint64_t(NumHeavy));
}

TEST(PreparedCache, FreedSlicesAreRecycledWithoutAliasing) {
  // Slice recycling: 8 "v" values and 8 "w" values with 3 use blocks
  // each. The v's are ensured, then grown past their size class (3 -> 6
  // distinct use blocks, slice capacity 4 -> 8): each rebuild frees its
  // old slice to the span arena's capacity-4 freelist, 8 freed slices in
  // all. Ensuring the w's afterwards must pop exactly those freed slices,
  // one per w — the arenas may not grow — and a CFG-epoch drop cycle must
  // rebuild every entry in place: stable memoryBytes(), stable
  // liveSlices(), and no entry aliasing another's payload (pinned as
  // answer agreement with a fresh oracle over every block and direction).
  constexpr unsigned NumEach = 8;
  constexpr unsigned NumBlocks = 12;
  std::string Text = "func @recycle {\ne:\n  %p = param 0\n";
  for (unsigned J = 0; J != NumEach; ++J)
    Text += "  %v" + std::to_string(J) + " = const 1\n";
  for (unsigned J = 0; J != NumEach; ++J)
    Text += "  %w" + std::to_string(J) + " = const 2\n";
  Text += "  jump b0\n";
  unsigned Tmp = 0;
  for (unsigned I = 0; I != NumBlocks; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    for (unsigned J = 0; J != NumEach; ++J) {
      if ((I + NumBlocks - J) % NumBlocks < 3)
        Text += "  %t" + std::to_string(Tmp++) + " = opaque %v" +
                std::to_string(J) + "\n";
      if ((I + NumBlocks - (J + 6)) % NumBlocks < 3)
        Text += "  %t" + std::to_string(Tmp++) + " = opaque %w" +
                std::to_string(J) + "\n";
    }
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
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  Cache.sizeToFunction(); // Fix the table; only arenas move below.

  std::vector<Value *> Vs, Ws;
  for (const auto &V : F->values()) {
    if (V->name().size() >= 2 && V->name()[0] == 'v')
      Vs.push_back(V.get());
    if (V->name().size() >= 2 && V->name()[0] == 'w')
      Ws.push_back(V.get());
  }
  ASSERT_EQ(Vs.size(), NumEach);
  ASSERT_EQ(Ws.size(), NumEach);

  for (Value *V : Vs)
    Cache.ensure(*V);
  EXPECT_EQ(Cache.liveSlices(), std::uint64_t(NumEach));

  // Grow each v into the next size class: three more uses in three blocks
  // it did not reach before ((j+3..j+5) mod 12, disjoint from j..j+2).
  for (unsigned J = 0; J != NumEach; ++J)
    for (unsigned D = 3; D != 6; ++D) {
      BasicBlock *B = F->block(1 + (J + D) % NumBlocks);
      B->insertAt(0, std::make_unique<Instruction>(
                         Opcode::Opaque, F->createValue("g"),
                         std::vector<Value *>{Vs[J]}));
    }
  for (Value *V : Vs)
    Cache.ensure(*V);
  EXPECT_EQ(Cache.stats().Rebuilds, std::uint64_t(NumEach));
  EXPECT_EQ(Cache.liveSlices(), std::uint64_t(NumEach))
      << "a class change must free the old slice, not leak it";

  std::size_t Settled = Cache.memoryBytes();
  for (Value *W : Ws)
    Cache.ensure(*W);
  EXPECT_EQ(Cache.memoryBytes(), Settled)
      << "every w allocation must pop a freed v slice instead of growing "
         "the arena";
  EXPECT_EQ(Cache.liveSlices(), std::uint64_t(2 * NumEach));

  // CFG-epoch drop cycle: a structural edit drops every entry; the rebuild
  // reuses each slice in place (classes unchanged) — footprint stable.
  Mutation M{MutationKind::AddEdge, /*From=*/NumBlocks - 1, /*To=*/6, 0};
  ASSERT_TRUE(applyFunctionMutation(*F, M));
  AM.refresh(*F);
  for (Value *V : Vs)
    Cache.ensure(*V);
  for (Value *W : Ws)
    Cache.ensure(*W);
  EXPECT_EQ(Cache.stats().EpochDrops, std::uint64_t(2 * NumEach));
  EXPECT_EQ(Cache.memoryBytes(), Settled);
  EXPECT_EQ(Cache.liveSlices(), std::uint64_t(2 * NumEach));

  // No aliasing anywhere: every entry agrees with a fresh oracle.
  BlockIdLiveness Fresh(*F);
  for (const std::vector<Value *> *Group : {&Vs, &Ws})
    for (Value *V : *Group) {
      const LiveCheck::PreparedVar &P = Cache.cached(*V);
      for (const auto &B : F->blocks()) {
        ASSERT_EQ(Cache.engine().isLiveInPrepared(P, B->id()),
                  Fresh.isLiveIn(*V, *B))
            << "%" << V->name() << " in b" << B->id();
        ASSERT_EQ(Cache.engine().isLiveOutPrepared(P, B->id()),
                  Fresh.isLiveOut(*V, *B))
            << "%" << V->name() << " out b" << B->id();
      }
    }
}

TEST(PreparedCache, SplitBlockNumberShiftsAreRemappedNotRebuilt) {
  // Splitting the entry inserts the new block at preorder number 1, so
  // every other block's number (and every maxnum) shifts by one. A synced
  // cache must carry each entry to the new numbering — DefNum, MaxDom and
  // the re-sorted span equal to a from-scratch build — without a single
  // rebuild.
  auto F = parse(R"(
func @split {
e:
  %p = param 0
  %a = const 1
  %b = const 2
  branch %p, l, r
l:
  %s = opaque %a
  jump x
r:
  %t = opaque %b
  %u = opaque %a
  jump x
x:
  %w = opaque %b
  %y = opaque %p
  %z = opaque %y
  ret %p
}
)");
  ASSERT_TRUE(F);
  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  Cache.syncNumbering();
  std::vector<const Value *> Vals = queryableValues(*F);
  ASSERT_EQ(Vals.size(), 4u); // %p, %a, %b, %y.
  std::vector<EntryImage> Before;
  for (const Value *V : Vals)
    Before.push_back(imageOf(Cache.ensure(*V)));

  Mutation M{MutationKind::SplitBlock, /*From=*/0, /*To=*/4, 0};
  ASSERT_TRUE(applyFunctionMutation(*F, M));
  ASSERT_EQ(&AM.refresh(*F), &FA) << "refresh must repair in place";
  Cache.syncNumbering();
  EXPECT_EQ(Cache.stats().Remaps, Vals.size());

  AnalysisManager FreshAM;
  FunctionAnalyses &FreshFA = FreshAM.get(*F);
  PreparedCache Ref(*F, FreshFA.liveCheck(), FreshFA.domTree());
  unsigned Shifted = 0;
  for (std::size_t I = 0; I != Vals.size(); ++I) {
    const Value &V = *Vals[I];
    ASSERT_TRUE(Cache.isFresh(V)) << "%" << V.name();
    EntryImage After = imageOf(Cache.cached(V));
    EXPECT_TRUE(After == imageOf(Ref.ensure(V)))
        << "%" << V.name() << ": remapped entry differs from a fresh build";
    Shifted += !(After == Before[I]);
    expectAgreesWithOracle(Cache, *F, V);
  }
  EXPECT_EQ(Shifted, Vals.size()) << "the split must renumber every entry";
  PreparedCacheStats S = Cache.stats();
  EXPECT_EQ(S.Builds, Vals.size());
  EXPECT_EQ(S.Rebuilds, 0u);
  EXPECT_EQ(S.EpochDrops, 0u);
}

TEST(PreparedCache, MaskEntryCrossingSixtyFourNodesIsRebuilt) {
  // A 64-block chain: %h is used in 10 blocks (a one-word mask entry),
  // %k in two (a span entry). Splitting the entry makes 65 blocks, so a
  // fresh build of %h takes a two-word mask: the remap must leave %h
  // stale for a lazy rebuild and still carry %k and %p.
  std::string Text = "func @wide {\ne:\n  %p = param 0\n  %h = const 1\n"
                     "  %k = const 2\n  jump b0\n";
  for (unsigned I = 0; I != 63; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    if (I < 10)
      Text += "  %th" + std::to_string(I) + " = opaque %h\n";
    if (I == 20 || I == 40)
      Text += "  %tk" + std::to_string(I) + " = opaque %k\n";
    Text += I + 1 != 63 ? "  jump b" + std::to_string(I + 1) + "\n"
                        : std::string("  ret %p\n");
  }
  Text += "}\n";
  auto F = parse(Text.c_str());
  ASSERT_TRUE(F);
  ASSERT_EQ(F->numBlocks(), 64u);
  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  Cache.syncNumbering();
  const Value *H = nullptr;
  std::vector<const Value *> Vals = queryableValues(*F);
  for (const Value *V : Vals) {
    const LiveCheck::PreparedVar &P = Cache.ensure(*V);
    if (V->name() == "h") {
      H = V;
      ASSERT_NE(P.MaskWords, nullptr);
      EXPECT_EQ(P.MaskNumWords, 1u);
    }
  }
  ASSERT_NE(H, nullptr);
  ASSERT_EQ(Vals.size(), 3u);

  Mutation M{MutationKind::SplitBlock, /*From=*/0, /*To=*/64, 0};
  ASSERT_TRUE(applyFunctionMutation(*F, M));
  AM.refresh(*F);
  Cache.syncNumbering();
  EXPECT_EQ(Cache.stats().Remaps, 2u);
  EXPECT_FALSE(Cache.isFresh(*H)) << "a 2-word mask needs a rebuild";
  for (const Value *V : Vals) {
    if (V != H) {
      EXPECT_TRUE(Cache.isFresh(*V)) << "%" << V->name();
    }
  }

  const LiveCheck::PreparedVar &P = Cache.ensure(*H);
  ASSERT_NE(P.MaskWords, nullptr);
  EXPECT_EQ(P.MaskNumWords, 2u);
  EXPECT_EQ(Cache.stats().EpochDrops, 1u);
  for (const Value *V : Vals)
    expectAgreesWithOracle(Cache, *F, *V);
}

TEST(PreparedCache, UnchangedDefUseEpochMeansUnchangedUseBlocks) {
  // The invariant the remap rests on, over all four mutation kinds: a
  // structural edit that leaves a value's def-use epoch alone leaves its
  // def block and its Definition-1 use-block set alone too. The epoch the
  // cache reads by id (Function::defUseEpoch) must be the Value's own.
  std::set<MutationKind> Kinds;
  unsigned Bumped = 0;
  for (std::uint64_t Seed = 7300; Seed != 7306; ++Seed) {
    RandomFunctionConfig Cfg;
    Cfg.TargetBlocks = 20;
    Cfg.GotoEdges = Seed % 2;
    auto F = randomSSAFunction(Seed, Cfg);
    RandomEngine Rng(Seed * 31 + 7);
    CFGMutatorOptions MOpts;
    MOpts.MaxNodes = 48;
    for (unsigned Step = 0; Step != 150; ++Step) {
      struct Seen {
        std::uint64_t Epoch;
        std::vector<unsigned> DefBlocks;
        std::vector<unsigned> Uses;
      };
      auto defBlocks = [](const Value &V) {
        std::vector<unsigned> Out;
        for (const Instruction *D : V.defs())
          Out.push_back(D->parent()->id());
        return Out;
      };
      std::vector<Seen> Old;
      for (const auto &V : F->values())
        Old.push_back({V->defUseEpoch(), defBlocks(*V), liveUseBlocks(*V)});
      auto M = mutateFunctionCFG(*F, Rng, MOpts);
      if (!M)
        continue;
      Kinds.insert(M->Kind);
      ASSERT_EQ(F->numValues(), Old.size());
      for (unsigned I = 0; I != Old.size(); ++I) {
        const Value &V = *F->value(I);
        ASSERT_EQ(F->defUseEpoch(I), V.defUseEpoch());
        if (V.defUseEpoch() != Old[I].Epoch) {
          ++Bumped;
          continue;
        }
        EXPECT_EQ(defBlocks(V), Old[I].DefBlocks)
            << "seed " << Seed << " %" << V.name();
        EXPECT_EQ(liveUseBlocks(V), Old[I].Uses)
            << "seed " << Seed << " step " << Step << " %" << V.name()
            << ": use blocks changed without a def-use epoch bump";
      }
    }
  }
  EXPECT_EQ(Kinds.size(), 4u) << "every mutation kind must be exercised";
  EXPECT_GT(Bumped, 0u) << "no edit touched a φ operand";
}

TEST(PreparedCache, LookupByIdStalesExactlyTheEditedValue) {
  // The warm read keys on the value id and the function's epoch table. A
  // def-use edit with no CFG edit — one use added, then one removed, so
  // the use blocks end where they started — must stale exactly the edited
  // value's entry, leave every other entry fresh, and cost exactly one
  // rebuild on the next ensure().
  auto F = parse(R"(
func @byid {
e:
  %p = param 0
  %a = const 1
  %b = const 2
  branch %p, l, r
l:
  %s = opaque %a
  jump x
r:
  %t = opaque %b
  jump x
x:
  %u = opaque %s, %t
  ret %u
}
)");
  ASSERT_TRUE(F);
  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  EXPECT_EQ(Cache.lookup(0), nullptr) << "nothing is built before ensure()";
  Cache.sizeToFunction();
  std::vector<const Value *> Vals = queryableValues(*F);
  ASSERT_GE(Vals.size(), 4u);
  for (const Value *V : Vals)
    Cache.ensure(*V);
  for (const Value *V : Vals)
    EXPECT_EQ(Cache.lookup(V->id()), &Cache.cached(*V)) << "%" << V->name();

  Value *A = F->value(1);
  ASSERT_EQ(A->name(), "a");
  Instruction *User = F->block(3)->instructions().front().get();
  ASSERT_EQ(User->result()->name(), "u");
  std::uint64_t CFGEpoch = F->cfgVersion();
  User->addOperand(A);
  User->removeOperand(User->numOperands() - 1);
  EXPECT_EQ(F->cfgVersion(), CFGEpoch);
  for (const Value *V : Vals) {
    if (V == A) {
      EXPECT_EQ(Cache.lookup(V->id()), nullptr);
      EXPECT_FALSE(Cache.isFresh(*V));
    } else {
      EXPECT_NE(Cache.lookup(V->id()), nullptr) << "%" << V->name();
    }
  }

  PreparedCacheStats Before = Cache.stats();
  for (const Value *V : Vals)
    Cache.ensure(*V);
  PreparedCacheStats After = Cache.stats();
  EXPECT_EQ(After.Rebuilds - Before.Rebuilds, 1u);
  EXPECT_EQ(After.Builds, Before.Builds);
  EXPECT_EQ(After.EpochDrops, Before.EpochDrops);
  EXPECT_NE(Cache.lookup(A->id()), nullptr);
  expectAgreesWithOracle(Cache, *F, *A);
}

TEST(PreparedCache, ValueCreatedAfterSizingIsBuiltAndLookedUp) {
  // A value created after sizeToFunction() lies past the entry table: its
  // lookup misses (never reads past the table) until ensure() grows it.
  // Any other id past the table misses too.
  auto F = parse(R"(
func @late {
e:
  %p = param 0
  branch %p, a, x
a:
  jump x
x:
  ret %p
}
)");
  ASSERT_TRUE(F);
  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  Cache.sizeToFunction();
  Cache.ensure(*F->value(0));

  Value *N = F->createValue("late");
  F->entry()->insertAt(1, std::make_unique<Instruction>(
                              Opcode::Const, N, std::vector<Value *>{}));
  F->block(2)->insertAt(0, std::make_unique<Instruction>(
                               Opcode::Opaque, F->createValue("use"),
                               std::vector<Value *>{N}));
  EXPECT_EQ(Cache.lookup(N->id()), nullptr);
  EXPECT_EQ(Cache.lookup(~std::uint32_t(0)), nullptr);
  const LiveCheck::PreparedVar &P = Cache.ensure(*N);
  EXPECT_EQ(Cache.lookup(N->id()), &P);
  EXPECT_NE(Cache.lookup(0), nullptr) << "growth keeps older entries fresh";
  expectAgreesWithOracle(Cache, *F, *N);
  EXPECT_TRUE(FA.liveCheck().isLiveInPrepared(P, 1));
}

#ifndef NDEBUG
TEST(PreparedCacheDeathTest, QueryAfterCFGEditAsserts) {
  // FunctionLiveness is pinned to the CFG epoch it was built at; querying
  // across a structural edit must trip the epoch assert instead of
  // answering from a stale engine.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto F = parse(R"(
func @epoch {
e:
  %p = param 0
  branch %p, a, b
a:
  jump b
b:
  ret %p
}
)");
  ASSERT_TRUE(F);
  FunctionLiveness Live(*F);
  Value *P = F->value(0);
  EXPECT_TRUE(Live.isLiveIn(*P, *F->block(2)));
  // a currently ends in `jump b`; a -> e is a new back edge.
  Mutation M{MutationKind::AddEdge, /*From=*/1, /*To=*/0, 0};
  ASSERT_TRUE(applyFunctionMutation(*F, M));
  EXPECT_DEATH((void)Live.isLiveIn(*P, *F->block(2)),
               "CFG edited under FunctionLiveness");
}
#endif
