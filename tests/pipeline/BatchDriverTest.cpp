//===- tests/pipeline/BatchDriverTest.cpp ---------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The module-level batch driver: N-thread execution must produce answers
// byte-identical to the single-threaded run (queries are read-only against
// shared engines; every answer has its own slot), every backend must agree
// with every other, and the analysis cache must amortize across runs.
//
//===----------------------------------------------------------------------===//

#include "pipeline/BatchLivenessDriver.h"

#include "liveness/DataflowLiveness.h"
#include "support/RandomEngine.h"
#include "support/ThreadPool.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct Module {
  std::vector<std::unique_ptr<Function>> Owned;
  std::vector<const Function *> Funcs;

  explicit Module(unsigned Count, std::uint64_t Seed = 0xD00D) {
    for (unsigned I = 0; I != Count; ++I) {
      RandomFunctionConfig Cfg;
      Cfg.TargetBlocks = 12 + 4 * (I % 5);
      // A couple of goto-edge functions so irreducible CFGs are covered.
      if (I % 7 == 3)
        Cfg.GotoEdges = 3;
      Owned.push_back(randomSSAFunction(Seed + I, Cfg));
      Funcs.push_back(Owned.back().get());
    }
  }
};

} // namespace

TEST(BatchDriver, MultiThreadMatchesSingleThreadByteForByte) {
  Module M(10);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0xBEEF, 20000);
  ASSERT_FALSE(Workload.empty());

  BatchOptions Single;
  Single.Threads = 1;
  BatchResult Reference = BatchLivenessDriver(M.Funcs, Single).run(Workload);
  ASSERT_EQ(Reference.Answers.size(), Workload.size());

  for (unsigned Threads : {2u, 4u, 8u}) {
    BatchOptions Opts;
    Opts.Threads = Threads;
    BatchLivenessDriver Driver(M.Funcs, Opts);
    EXPECT_EQ(Driver.numThreads(), Threads);
    BatchResult R = Driver.run(Workload);
    EXPECT_EQ(R.Answers, Reference.Answers)
        << Threads << "-thread answers diverge from the 1-thread oracle";
    EXPECT_EQ(R.checksum(), Reference.checksum());
  }
}

TEST(BatchDriver, AllBackendsAgree) {
  Module M(6, 0xCAFE);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x5EED, 6000);
  ASSERT_FALSE(Workload.empty());

  std::vector<std::uint8_t> Reference;
  for (BatchBackend B : AllBatchBackends) {
    BatchOptions Opts;
    Opts.Backend = B;
    Opts.Threads = 4;
    BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(Workload);
    if (Reference.empty())
      Reference = R.Answers;
    else
      EXPECT_EQ(R.Answers, Reference)
          << "backend " << batchBackendName(B) << " disagrees";
  }
}

TEST(BatchDriver, SecondRunIsCacheWarm) {
  Module M(5);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 1, 2000);
  BatchOptions Opts;
  Opts.Threads = 2;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  BatchResult Cold = Driver.run(Workload);
  AnalysisManager::CacheCounters AfterCold =
      Driver.analysisManager().counters();
  EXPECT_EQ(AfterCold.Misses, M.Funcs.size());
  EXPECT_EQ(AfterCold.Invalidations, 0u);

  BatchResult Warm = Driver.run(Workload);
  AnalysisManager::CacheCounters AfterWarm =
      Driver.analysisManager().counters();
  EXPECT_EQ(AfterWarm.Misses, M.Funcs.size())
      << "nothing changed, nothing may rebuild";
  EXPECT_EQ(AfterWarm.Invalidations, 0u);
  EXPECT_GT(AfterWarm.Hits, AfterCold.Hits);
  EXPECT_EQ(Warm.Answers, Cold.Answers);
}

TEST(BatchDriver, CfgEditBetweenRunsIsPickedUp) {
  Module M(3);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 2, 1000);
  BatchOptions Opts;
  Opts.Threads = 2;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  Driver.run(Workload);

  // Structural edit on one function: exactly one entry rebuilds. Insert a
  // fresh edge (removal could disconnect nodes from the entry, which the
  // analyses reject by contract).
  Function &Edited = *M.Owned[1];
  BasicBlock *From = Edited.block(Edited.numBlocks() - 1);
  BasicBlock *To = nullptr;
  for (unsigned I = 0; I != Edited.numBlocks() && !To; ++I) {
    BasicBlock *Cand = Edited.block(I);
    const auto &Succs = From->successors();
    if (std::find(Succs.begin(), Succs.end(), Cand) == Succs.end())
      To = Cand;
  }
  ASSERT_NE(To, nullptr);
  From->addSuccessor(To);
  Driver.run(Workload);
  EXPECT_EQ(Driver.analysisManager().counters().Invalidations, 1u);
}

TEST(BatchDriver, PerThreadStatsCoverTheWholeWorkload) {
  Module M(4);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 3, 5000);

  // Under the stealing default the per-worker distribution depends on
  // timing, but the totals must cover the workload exactly: each chunk is
  // claimed by exactly one worker, and every query hits the engine exactly
  // once (the generator never draws no-use/no-def values).
  BatchOptions Opts;
  Opts.Threads = 4;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  BatchResult R = Driver.run(Workload);
  ASSERT_EQ(R.PerThread.size(), 4u);
  std::uint64_t EngineQueries = 0, Chunks = 0;
  for (const BatchThreadStats &S : R.PerThread) {
    EngineQueries += S.Engine.LiveInQueries + S.Engine.LiveOutQueries;
    Chunks += S.ChunksClaimed;
    EXPECT_LE(S.ChunksStolen, S.ChunksClaimed);
  }
  EXPECT_EQ(EngineQueries, std::uint64_t(Workload.size()));
  // Adaptive chunking: 5000 queries / (4 workers * 8) clamps to the
  // 256-query floor, so the chunk count is the exact ceiling division.
  EXPECT_EQ(Chunks, (Workload.size() + 255) / 256)
      << "every chunk must be claimed exactly once";
  LiveCheckStats Total = R.totalEngineStats();
  EXPECT_EQ(Total.LiveInQueries + Total.LiveOutQueries,
            std::uint64_t(Workload.size()))
      << "only no-use/no-def values skip the engine, and the generator "
         "never draws those";
}

TEST(BatchDriver, CallerDrainingUnstartedSlotsStealsNothing) {
  // Every pool thread is parked, so the calling thread runs every worker
  // slot itself, one after another. It claims every chunk of every queue,
  // but no chunk moves between threads: the steal counter must stay zero.
  Module M(4);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 3, 5000);
  ThreadPool Pool(4);
  Gate Release;
  std::atomic<unsigned> Blocked{0};
  for (unsigned I = 0; I != Pool.numThreads(); ++I)
    Pool.submit([&] {
      Blocked.fetch_add(1);
      Release.wait();
    });
  while (Blocked.load() != Pool.numThreads())
    std::this_thread::yield();

  BatchOptions Opts;
  Opts.ChunkSize = 256;
  BatchLivenessDriver Driver(M.Funcs, Opts, Pool);
  BatchResult R;
  bool InTime = finishesInTime([&] { R = Driver.run(Workload); },
                               [&] { Release.open(); });
  Release.open();
  Pool.wait();
  ASSERT_TRUE(InTime) << "the frame waited for a blocked pool thread";
  std::uint64_t Claimed = 0, Stolen = 0;
  for (const BatchThreadStats &S : R.PerThread) {
    Claimed += S.ChunksClaimed;
    Stolen += S.ChunksStolen;
  }
  EXPECT_EQ(Claimed, (Workload.size() + 255) / 256);
  EXPECT_GT(Claimed, 1u);
  EXPECT_EQ(Stolen, 0u) << "no other thread ran, so nothing was stolen";
}

TEST(BatchDriver, ThreadsAndGroupingAreByteIdentical) {
  // The scheduler-equivalence suite: a skewed workload (hot values
  // concentrating long same-value runs in a few chunks) and a uniform one,
  // answered under every grouping × thread-count combination — all
  // byte-identical to the 1-thread arrival-order oracle, which matches
  // LiveCheck's block-id entry points. Tiny
  // chunks force multi-chunk queues so steals actually happen; this suite
  // runs under TSan in CI, so the atomic chunk-cursor claiming is
  // race-checked here, not just argued.
  Module M(6, 0x5C4ED);
  std::vector<BatchQuery> Uniform =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0xD1CE, 9000);
  ASSERT_FALSE(Uniform.empty());

  // Skew: replay a handful of hot queries many times, then deterministic
  // Fisher-Yates so the runs are scattered until grouping re-forms them.
  std::vector<BatchQuery> Skewed = Uniform;
  for (unsigned I = 0; I != 9000; ++I)
    Skewed.push_back(Uniform[I % 11]);
  RandomEngine Shuffle(0x5381);
  for (std::size_t I = Skewed.size(); I > 1; --I)
    std::swap(Skewed[I - 1], Skewed[Shuffle.nextBelow(unsigned(I))]);

  for (const std::vector<BatchQuery> *Workload : {&Uniform, &Skewed}) {
    BatchOptions Ref;
    Ref.Threads = 1;
    Ref.GroupChunks = false;
    BatchResult Oracle = BatchLivenessDriver(M.Funcs, Ref).run(*Workload);
    ASSERT_EQ(Oracle.Answers.size(), Workload->size());
    EXPECT_EQ(Oracle.Answers, blockIdAnswers(M.Funcs, *Workload))
        << "the arrival-order oracle diverges from the block-id entry points";

    for (bool Group : {false, true}) {
      BatchOptions Opts;
      Opts.Threads = 4;
      Opts.GroupChunks = Group;
      Opts.ChunkSize = 128; // Many chunks per worker → real steals.
      BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(*Workload);
      EXPECT_EQ(R.Answers, Oracle.Answers)
          << (Group ? "grouped" : "arrival order")
          << " diverges from the arrival-order oracle";
    }
  }

  // The baselines answer query by query but still ride the stealing
  // scheduler; pin them on the skewed workload too.
  for (BatchBackend B : {BatchBackend::Dataflow,
                         BatchBackend::PathExploration}) {
    BatchOptions Ref;
    Ref.Backend = B;
    Ref.Threads = 1;
    Ref.GroupChunks = false;
    BatchResult Oracle = BatchLivenessDriver(M.Funcs, Ref).run(Skewed);
    BatchOptions Opts;
    Opts.Backend = B;
    Opts.Threads = 4;
    Opts.ChunkSize = 128;
    BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(Skewed);
    EXPECT_EQ(R.Answers, Oracle.Answers)
        << "backend " << batchBackendName(B)
        << " diverges under stealing from its 1-thread run";
  }
}

TEST(BatchDriver, WorkloadGenerationIsDeterministic) {
  Module M(4);
  auto A = BatchLivenessDriver::generateWorkload(M.Funcs, 77, 500);
  auto B = BatchLivenessDriver::generateWorkload(M.Funcs, 77, 500);
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].FuncIndex, B[I].FuncIndex);
    EXPECT_EQ(A[I].ValueId, B[I].ValueId);
    EXPECT_EQ(A[I].BlockId, B[I].BlockId);
    EXPECT_EQ(A[I].IsLiveOut, B[I].IsLiveOut);
  }
}

TEST(BatchDriver, ShardedColdFillMatchesSequentialByteForByte) {
  // The per-worker ensure sharding of the prepared plane: forcing the
  // sharded cold fill (threshold 0) must produce answers byte-identical to
  // the sequential sweep for every thread count, cold and warm — and this
  // suite runs under TSan in CI, so the one-writer-per-stripe contract the
  // fan-out builds on is race-checked here, not just argued.
  Module M(8, 0xAB5);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x717, 24000);
  ASSERT_FALSE(Workload.empty());

  BatchOptions Seq;
  Seq.Threads = 1;
  BatchResult Reference = BatchLivenessDriver(M.Funcs, Seq).run(Workload);

  for (unsigned Threads : {2u, 4u}) {
    BatchOptions Opts;
    Opts.Threads = Threads;
    Opts.ColdFillShardThreshold = 0; // Force the sharded fill.
    BatchLivenessDriver Driver(M.Funcs, Opts);
    BatchResult Cold = Driver.run(Workload);
    EXPECT_EQ(Cold.Answers, Reference.Answers)
        << Threads << "-thread sharded cold fill diverges";
    BatchResult Warm = Driver.run(Workload); // All ensures hit this time.
    EXPECT_EQ(Warm.Answers, Reference.Answers)
        << Threads << "-thread warm run after sharded fill diverges";
  }

  // The explicit off switch keeps the sequential sweep.
  BatchOptions Disabled;
  Disabled.Threads = 4;
  Disabled.ColdFillShardThreshold = SIZE_MAX;
  BatchResult R = BatchLivenessDriver(M.Funcs, Disabled).run(Workload);
  EXPECT_EQ(R.Answers, Reference.Answers);
}

TEST(BatchDriver, DeferredEnsureRebuildsEachStaleValueOnce) {
  // The fused ensure: workers only read prepared entries, defer queries
  // whose entry is stale, and the calling thread ensures and answers those
  // after the join. Warm a 4-thread driver, then edit two functions — a
  // CFG edit refreshed in place and a def-use edit to one value of another
  // function — and send a frame in which the edited values recur across
  // many small chunks, so several workers meet each of them. The driver
  // remaps every entry of the CFG-edited function onto the new numbering
  // before the fan-out, so that function rebuilds nothing; the def-use
  // edited value is stale and must be rebuilt exactly once. The answers
  // must match LiveCheck's block-id entry points. Runs under TSan in CI
  // with the rest of this suite.
  Module M(6, 0xDEF);
  std::vector<BatchQuery> Base =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x1CE, 6000);
  ASSERT_FALSE(Base.empty());
  BatchOptions Opts;
  Opts.Threads = 4;
  Opts.ChunkSize = 128;
  Opts.ColdFillShardThreshold = SIZE_MAX; // Keep stale values deferred.
  BatchLivenessDriver Driver(M.Funcs, Opts);
  Driver.run(Base);
  Driver.run(Base);

  // Structural edit on function 1, repaired through the journal.
  constexpr std::uint32_t CfgEdited = 1, DefUseEdited = 3;
  Function &Edited = *M.Owned[CfgEdited];
  BasicBlock *From = Edited.block(Edited.numBlocks() - 1);
  BasicBlock *To = nullptr;
  for (unsigned I = 0; I != Edited.numBlocks() && !To; ++I) {
    const auto &Succs = From->successors();
    if (std::find(Succs.begin(), Succs.end(), Edited.block(I)) == Succs.end())
      To = Edited.block(I);
  }
  ASSERT_NE(To, nullptr);
  From->addSuccessor(To);
  Driver.analysisManager().refresh(Edited);

  // Def-use edit on one queried value of function 3: a new use in the
  // last block bumps its def-use epoch (the CFG stays untouched).
  Function &DU = *M.Owned[DefUseEdited];
  std::uint32_t EditedValue = ~0u;
  for (const BatchQuery &Q : Base)
    if (Q.FuncIndex == DefUseEdited) {
      EditedValue = Q.ValueId;
      break;
    }
  ASSERT_NE(EditedValue, ~0u);
  DU.block(DU.numBlocks() - 1)
      ->insertAt(0, std::make_unique<Instruction>(
                        Opcode::Opaque, DU.createValue("extra"),
                        std::vector<Value *>{DU.value(EditedValue)}));

  std::vector<BatchQuery> Frame;
  for (unsigned Rep = 0; Rep != 4; ++Rep)
    Frame.insert(Frame.end(), Base.begin(), Base.end());
  std::set<std::uint32_t> StaleCfg;
  for (const BatchQuery &Q : Frame)
    if (Q.FuncIndex == CfgEdited)
      StaleCfg.insert(Q.ValueId);

  std::vector<PreparedCacheStats> Before;
  for (std::size_t F = 0; F != M.Funcs.size(); ++F)
    Before.push_back(Driver.preparedCache(F)->stats());
  auto rebuildsSince = [&](std::size_t F) {
    PreparedCacheStats S = Driver.preparedCache(F)->stats();
    return (S.Builds - Before[F].Builds) + (S.Rebuilds - Before[F].Rebuilds) +
           (S.EpochDrops - Before[F].EpochDrops);
  };

  BatchResult R = Driver.run(Frame);
  EXPECT_EQ(R.Answers, blockIdAnswers(M.Funcs, Frame))
      << "deferred answers diverge from the block-id entry points";
  for (std::size_t F = 0; F != M.Funcs.size(); ++F) {
    EXPECT_EQ(rebuildsSince(F), F == DefUseEdited ? 1u : 0u)
        << "function " << F << ": only the def-use edit may rebuild";
    EXPECT_EQ(Driver.preparedCache(F)->stats().Remaps - Before[F].Remaps,
              F == CfgEdited ? StaleCfg.size() : 0u)
        << "function " << F << ": every CFG-edited entry is remapped";
  }
  EXPECT_EQ(Driver.preparedCache(DefUseEdited)->stats().Rebuilds -
                Before[DefUseEdited].Rebuilds,
            1u);
  LiveCheckStats Engine = R.totalEngineStats();
  EXPECT_EQ(Engine.LiveInQueries + Engine.LiveOutQueries,
            std::uint64_t(Frame.size()))
      << "deferred queries are answered (and counted) exactly once";

  // Everything is fresh again: the next frame rebuilds nothing.
  for (std::size_t F = 0; F != M.Funcs.size(); ++F)
    Before[F] = Driver.preparedCache(F)->stats();
  Driver.run(Frame);
  for (std::size_t F = 0; F != M.Funcs.size(); ++F)
    EXPECT_EQ(rebuildsSince(F), 0u) << "function " << F;
}

TEST(BatchDriver, Section7ChurnRebuildsExactlyTheEditedValues) {
  // The paper's Section-7 stability under churn: between query frames,
  // non-structural edits add and remove uses and create new values, and
  // the CFG never changes. A warm 4-thread driver, grouped and not, must
  // answer every frame like the block-id entry points and a fresh
  // DataflowLiveness; its caches must rebuild each edited value exactly
  // once and no untouched one; and values that are never queryable (no
  // def, or a def and no use) must keep answering 0. The warm path looks
  // entries up by value id, so a stale or unqueryable value is only told
  // apart on the miss path; this pins both halves of that split.
  for (bool Group : {false, true}) {
    Module M(6, 0x5EC7);
    std::vector<BatchQuery> Base =
        BatchLivenessDriver::generateWorkload(M.Funcs, 0x7C4, 4000);
    ASSERT_FALSE(Base.empty());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> NeverQueryable;
    for (std::uint32_t F = 0; F != M.Owned.size(); ++F) {
      Function &Fn = *M.Owned[F];
      NeverQueryable.emplace_back(F, Fn.createValue("nodef")->id());
      Value *Unused = Fn.createValue("unused");
      Fn.block(0)->insertBeforeTerminator(std::make_unique<Instruction>(
          Opcode::Const, Unused, std::vector<Value *>{}, 5));
      NeverQueryable.emplace_back(F, Unused->id());
    }

    // Every frame queries the base stream plus every (value, block,
    // direction) of every function, so each queryable value has an entry
    // after any frame, a rebuild can only come from an edit, and a stale
    // entry served as fresh would answer some block wrongly.
    RandomEngine Rng(Group ? 0xC0DE : 0xFACE);
    auto makeFrame = [&] {
      std::vector<BatchQuery> Frame = Base;
      for (std::uint32_t F = 0; F != M.Owned.size(); ++F)
        for (std::uint32_t V = 0; V != M.Owned[F]->numValues(); ++V)
          for (std::uint32_t B = 0; B != M.Owned[F]->numBlocks(); ++B)
            for (bool Out : {false, true})
              Frame.push_back({F, V, B, Out});
      return Frame;
    };

    BatchOptions Opts;
    Opts.Threads = 4;
    Opts.ChunkSize = 128;
    Opts.GroupChunks = Group;
    Opts.ColdFillShardThreshold = SIZE_MAX; // Stale values stay deferred.
    BatchLivenessDriver Driver(M.Funcs, Opts);
    Driver.run(makeFrame());
    Driver.run(makeFrame());

    // Instructions the churn added; uses are added to and removed from
    // these only, always at the end, so no other operand is reindexed.
    std::vector<std::pair<std::uint32_t, Instruction *>> Added;
    unsigned Created = 0, UsesAdded = 0, UsesRemoved = 0;
    for (unsigned Round = 0; Round != 8; ++Round) {
      std::vector<std::vector<std::uint64_t>> Epochs(M.Owned.size());
      for (std::size_t F = 0; F != M.Owned.size(); ++F)
        for (std::uint32_t V = 0; V != M.Owned[F]->numValues(); ++V)
          Epochs[F].push_back(M.Owned[F]->defUseEpoch(V));

      for (unsigned Edit = 0; Edit != 12; ++Edit) {
        auto F = static_cast<std::uint32_t>(Rng.nextBelow(
            static_cast<unsigned>(M.Owned.size())));
        Function &Fn = *M.Owned[F];
        const DomTree &DT = Driver.analysisManager().domTree(Fn);
        unsigned Kind = Rng.nextBelow(3);
        if (Kind == 2 && !Added.empty()) {
          auto [AF, I] = Added[Rng.nextBelow(unsigned(Added.size()))];
          if (I->numOperands() != 0) {
            I->removeOperand(I->numOperands() - 1);
            ++UsesRemoved;
          }
          continue;
        }
        Value *V = Fn.value(Rng.nextBelow(Fn.numValues()));
        if (!V->hasSingleDef() ||
            std::find(NeverQueryable.begin(), NeverQueryable.end(),
                      std::make_pair(F, V->id())) != NeverQueryable.end())
          continue;
        unsigned Def = V->defBlock()->id();
        if (Kind == 1 && !Added.empty()) {
          // A new use on an added instruction strictly below the def.
          auto [AF, I] = Added[Rng.nextBelow(unsigned(Added.size()))];
          if (AF == F && DT.strictlyDominates(Def, I->parent()->id())) {
            I->addOperand(V);
            ++UsesAdded;
          }
          continue;
        }
        // A new value whose defining instruction uses V, placed before
        // the terminator of a block V's def dominates.
        std::vector<unsigned> Dominated;
        for (unsigned B = 0; B != Fn.numBlocks(); ++B)
          if (DT.dominates(Def, B))
            Dominated.push_back(B);
        unsigned B = Dominated[Rng.nextBelow(unsigned(Dominated.size()))];
        Instruction *I =
            Fn.block(B)->insertBeforeTerminator(std::make_unique<Instruction>(
                Opcode::Opaque, Fn.createValue(), std::vector<Value *>{V}));
        Added.emplace_back(F, I);
        ++Created;
        ++UsesAdded;
      }

      std::vector<BatchQuery> Frame = makeFrame();
      std::vector<PreparedCacheStats> Before;
      for (std::size_t F = 0; F != M.Funcs.size(); ++F)
        Before.push_back(Driver.preparedCache(F)->stats());
      BatchResult R = Driver.run(Frame);

      ASSERT_EQ(R.Answers, blockIdAnswers(M.Funcs, Frame))
          << "round " << Round << ": diverges from the block-id entry points";
      std::vector<std::unique_ptr<DataflowLiveness>> Fresh;
      for (const Function *F : M.Funcs)
        Fresh.push_back(std::make_unique<DataflowLiveness>(*F));
      for (std::size_t I = 0; I != Frame.size(); ++I) {
        const BatchQuery &Q = Frame[I];
        const Function &F = *M.Funcs[Q.FuncIndex];
        const Value &V = *F.value(Q.ValueId);
        bool Want = false;
        if (V.hasSingleDef() && V.hasUses())
          Want = Q.IsLiveOut
                     ? Fresh[Q.FuncIndex]->isLiveOut(V, *F.block(Q.BlockId))
                     : Fresh[Q.FuncIndex]->isLiveIn(V, *F.block(Q.BlockId));
        ASSERT_EQ(R.Answers[I], Want)
            << "round " << Round << " query " << I << ": %" << V.name()
            << " diverges from a fresh DataflowLiveness";
      }
      for (auto [F, V] : NeverQueryable)
        for (std::size_t I = 0; I != Frame.size(); ++I) {
          if (Frame[I].FuncIndex == F && Frame[I].ValueId == V) {
            EXPECT_EQ(R.Answers[I], 0) << "never-queryable value answered";
          }
        }

      // Exactly the queryable values whose epoch moved (or that are new)
      // are rebuilt, once each; no CFG edit means no epoch drop.
      for (std::size_t F = 0; F != M.Funcs.size(); ++F) {
        const Function &Fn = *M.Funcs[F];
        std::uint64_t Edited = 0;
        for (std::uint32_t V = 0; V != Fn.numValues(); ++V) {
          const Value &Val = *Fn.value(V);
          bool Moved = V >= Epochs[F].size() ||
                       Fn.defUseEpoch(V) != Epochs[F][V];
          if (Val.hasSingleDef() && Val.hasUses()) {
            EXPECT_NE(Driver.preparedCache(F)->lookup(V), nullptr);
            Edited += Moved;
          } else {
            EXPECT_EQ(Driver.preparedCache(F)->lookup(V), nullptr)
                << "a fresh entry must imply a queryable value";
          }
        }
        PreparedCacheStats S = Driver.preparedCache(F)->stats();
        EXPECT_EQ((S.Builds - Before[F].Builds) +
                      (S.Rebuilds - Before[F].Rebuilds),
                  Edited)
            << "round " << Round << " function " << F;
        EXPECT_EQ(S.EpochDrops, Before[F].EpochDrops);
      }
    }
    EXPECT_GT(Created, 0u);
    EXPECT_GT(UsesAdded, Created) << "no use was added to an old value";
    EXPECT_GT(UsesRemoved, 0u);
  }
}
