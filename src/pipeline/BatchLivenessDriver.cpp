//===- pipeline/BatchLivenessDriver.cpp - Module-level batch queries ------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pipeline/BatchLivenessDriver.h"

#include "ir/Function.h"
#include "liveness/DataflowLiveness.h"
#include "liveness/PathExplorationLiveness.h"
#include "support/Pool.h"
#include "support/RandomEngine.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

using namespace ssalive;

namespace {

/// Registry handles for the per-run driver series. Everything here is
/// published in bulk, once per run(): the per-query work stays on the
/// workers' stack counters exactly as before, so the hot fan-out gains
/// no telemetry instructions at all.
struct DriverTelemetry {
  telemetry::Counter Batches{"ssalive_driver_batches_total"};
  telemetry::Counter Queries{"ssalive_driver_queries_total"};
  telemetry::Counter Positives{"ssalive_driver_positive_total"};
  telemetry::Counter EngineIn{"ssalive_engine_livein_queries_total"};
  telemetry::Counter EngineOut{"ssalive_engine_liveout_queries_total"};
  telemetry::Counter EngineTargets{"ssalive_engine_targets_visited_total"};
  telemetry::Counter EngineUseTests{"ssalive_engine_use_tests_total"};
  telemetry::Counter Chunks{"ssalive_driver_chunks_total"};
  telemetry::Counter Steals{"ssalive_driver_steals_total"};
  telemetry::Histogram PrecomputeNs{"ssalive_driver_precompute_ns"};
  telemetry::Histogram QueryBatchNs{"ssalive_driver_query_batch_ns"};

  static const DriverTelemetry &get() {
    static DriverTelemetry T;
    return T;
  }
};

} // namespace

const char *ssalive::batchBackendName(BatchBackend B) {
  switch (B) {
  case BatchBackend::LiveCheckPropagated:
    return "propagated";
  case BatchBackend::Dataflow:
    return "dataflow";
  case BatchBackend::PathExploration:
    return "path-exploration";
  }
  return "unknown";
}

bool ssalive::parseBatchBackend(const std::string &Name, BatchBackend &Out) {
  for (BatchBackend B : AllBatchBackends)
    if (Name == batchBackendName(B)) {
      Out = B;
      return true;
    }
  return false;
}

std::uint64_t BatchResult::checksum() const {
  // Sequential FNV-style fold: position-sensitive, so any differing answer
  // (not just a differing multiset) changes the digest.
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (std::uint8_t A : Answers)
    H = (H ^ A) * 0x100000001b3ull;
  return H;
}

LiveCheckStats BatchResult::totalEngineStats() const {
  LiveCheckStats Total;
  for (const BatchThreadStats &S : PerThread)
    Total += S.Engine;
  return Total;
}

bool ssalive::batchBackendUsesLiveCheck(BatchBackend B) {
  return B == BatchBackend::LiveCheckPropagated;
}

bool BatchLivenessDriver::usesLiveCheck() const {
  return batchBackendUsesLiveCheck(Opts.Backend);
}

BatchLivenessDriver::BatchLivenessDriver(std::vector<const Function *> Funcs,
                                         BatchOptions Opts)
    : Funcs(std::move(Funcs)), Opts(Opts),
      OwnedPool(std::make_unique<ThreadPool>(Opts.Threads)),
      Pool(OwnedPool.get()) {}

BatchLivenessDriver::BatchLivenessDriver(std::vector<const Function *> Funcs,
                                         BatchOptions Opts, ThreadPool &Pool)
    : Funcs(std::move(Funcs)), Opts(Opts), Pool(&Pool) {}

BatchLivenessDriver::~BatchLivenessDriver() = default;

void BatchLivenessDriver::notifyCFGEdited() { Baselines.clear(); }

void BatchLivenessDriver::publishPreparedTelemetry() {
  for (const auto &P : Prepared)
    if (P)
      P->publishTelemetry();
}

unsigned BatchLivenessDriver::numThreads() const {
  return Pool->numThreads();
}

namespace {

/// True when the query is answerable by every backend: liveness is defined
/// for values with one SSA def and at least one use; everything else is
/// uniformly dead (FunctionLiveness's own convention), keeping backends in
/// agreement.
bool queryableValue(const Value &V) {
  return V.hasSingleDef() && V.hasUses();
}

/// Shortest same-value run answered through the multi-query kernel. It is
/// LiveCheck::answerPreparedRun's own break-even: below it the kernel falls
/// back to the per-probe scans anyway, so shorter runs call them directly
/// and skip the probe staging.
constexpr std::size_t MinKernelRun = 8;

/// Everything a worker reads while answering one frame.
struct FrameView {
  const std::vector<BatchQuery> &Workload;
  const std::vector<const Function *> &Funcs;
  const std::vector<const LiveCheck *> &Engines;
  const std::vector<std::unique_ptr<PreparedCache>> &Prepared;
  const std::vector<std::unique_ptr<LivenessQueries>> &Baselines;
  std::vector<std::uint8_t> &Answers;
  /// Prepared caches for the LiveCheck backend, Baselines otherwise.
  bool UsesLiveCheck;
  /// Same-value runs go through one prepared variable and, from
  /// MinKernelRun queries on, one multi-query kernel call.
  bool Grouped;
};

/// Answers queries of one frame on one thread: a worker's share of the
/// fan-out, or the caller's deferred pass after the join. Runs are
/// maximal same-(function, value) stretches in arrival order — no
/// reordering, so a uniform stream costs one key compare per query and a
/// value-by-value stream (an interference-graph client) amortizes fully.
class FrameWorker {
public:
  explicit FrameWorker(const FrameView &Fr)
      : Fr(Fr), W(Fr.Workload), HitsH(pool::scratchArray()) {
    if (Fr.UsesLiveCheck)
      HitsH->assign(Fr.Funcs.size(), 0);
  }

  FrameWorker(const FrameWorker &) = delete;
  FrameWorker &operator=(const FrameWorker &) = delete;

  /// Folds the lookup hits into the caches' counters.
  ~FrameWorker() {
    for (std::size_t F = 0; F != HitsH->size(); ++F)
      if ((*HitsH)[F])
        Fr.Prepared[F]->countHits((*HitsH)[F]);
  }

  /// Answers [Begin, End). LiveCheck queries whose cache entry is stale or
  /// missing are appended to \p Deferred instead.
  void answerSpan(std::size_t Begin, std::size_t End,
                  std::vector<std::size_t> &Deferred) {
    if (!Fr.Grouped) {
      for (std::size_t I = Begin; I != End; ++I)
        answerOne(I, Deferred);
      return;
    }
    auto At = [Begin](std::size_t K) { return Begin + K; };
    forEachRun(At, End - Begin, [&](std::size_t K, std::size_t RunEnd) {
      groupedRun(At, K, RunEnd, Deferred);
    });
  }

  /// Ensures and answers queries deferred by answerSpan. Only the calling
  /// thread runs this, after the fan-out joined: it is then the caches'
  /// single writer.
  void answerDeferred(const std::vector<std::size_t> &Deferred) {
    auto At = [&Deferred](std::size_t K) { return Deferred[K]; };
    forEachRun(At, Deferred.size(), [&](std::size_t K, std::size_t RunEnd) {
      const BatchQuery &Lead = W[At(K)];
      const Value &V = *Fr.Funcs[Lead.FuncIndex]->value(Lead.ValueId);
      answerRun(At, K, RunEnd, Fr.Prepared[Lead.FuncIndex]->ensure(V),
                *Fr.Engines[Lead.FuncIndex]);
    });
  }

  BatchThreadStats Stats;

private:
  /// Calls \p Fn(K, RunEnd) for each maximal run [K, RunEnd) of positions
  /// in [0, Count) whose queries At(pos) share (function, value).
  template <class AtFn, class RunFn>
  void forEachRun(AtFn At, std::size_t Count, RunFn Fn) {
    std::size_t K = 0;
    while (K != Count) {
      const BatchQuery &Lead = W[At(K)];
      assert(Lead.FuncIndex < Fr.Funcs.size() &&
             "query function out of range");
      std::size_t RunEnd = K + 1;
      while (RunEnd != Count && W[At(RunEnd)].FuncIndex == Lead.FuncIndex &&
             W[At(RunEnd)].ValueId == Lead.ValueId)
        ++RunEnd;
      Fn(K, RunEnd);
      K = RunEnd;
    }
  }

  void record(std::size_t I, bool Answer) {
    Fr.Answers[I] = Answer;
    Stats.PositiveAnswers += Answer;
  }

  /// The run [K, RunEnd) of one value through its prepared variable \p PV:
  /// one multi-query kernel call for a long run when grouping, the
  /// per-probe prepared kernels otherwise.
  template <class AtFn>
  void answerRun(AtFn At, std::size_t K, std::size_t RunEnd,
                 const LiveCheck::PreparedVar &PV, const LiveCheck &E) {
    std::size_t Len = RunEnd - K;
    if (!Fr.Grouped || Len < MinKernelRun) {
      for (std::size_t J = K; J != RunEnd; ++J) {
        const BatchQuery &Q = W[At(J)];
        record(At(J), Q.IsLiveOut
                          ? E.isLiveOutPrepared(PV, Q.BlockId, &Stats.Engine)
                          : E.isLiveInPrepared(PV, Q.BlockId, &Stats.Engine));
      }
      return;
    }
    Probes.resize(Len);
    RunAnswers.resize(Len);
    for (std::size_t J = 0; J != Len; ++J) {
      const BatchQuery &Q = W[At(K + J)];
      Probes[J].Block = Q.BlockId;
      Probes[J].IsLiveOut = Q.IsLiveOut;
    }
    E.answerPreparedRun(PV, Probes.data(), Len, RunAnswers.data(),
                        &Stats.Engine);
    for (std::size_t J = 0; J != Len; ++J)
      record(At(K + J), RunAnswers[J]);
  }

  /// A same-value run through its prepared variable.
  template <class AtFn>
  void groupedRun(AtFn At, std::size_t K, std::size_t RunEnd,
                  std::vector<std::size_t> &Deferred) {
    const BatchQuery &Lead = W[At(K)];
    const LiveCheck::PreparedVar *PV =
        Fr.Prepared[Lead.FuncIndex]->lookup(Lead.ValueId);
    if (!PV) {
      // Only a miss loads the Value: a fresh entry implies a queryable
      // value, so the warm path never touches the IR.
      if (!queryableValue(*Fr.Funcs[Lead.FuncIndex]->value(Lead.ValueId)))
        return; // Answers start out 0.
      for (std::size_t J = K; J != RunEnd; ++J)
        Deferred.push_back(At(J));
      return;
    }
    (*HitsH)[Lead.FuncIndex] += static_cast<unsigned>(RunEnd - K);
    answerRun(At, K, RunEnd, *PV, *Fr.Engines[Lead.FuncIndex]);
  }

  /// One query in arrival order — the standalone baselines and the
  /// GroupChunks=false differential path.
  void answerOne(std::size_t I, std::vector<std::size_t> &Deferred) {
    const BatchQuery &Q = W[I];
    assert(Q.FuncIndex < Fr.Funcs.size() && "query function out of range");
    const Function &F = *Fr.Funcs[Q.FuncIndex];
    if (!Fr.UsesLiveCheck) {
      const Value &V = *F.value(Q.ValueId);
      if (!queryableValue(V))
        return;
      LivenessQueries &B = *Fr.Baselines[Q.FuncIndex];
      const BasicBlock &Block = *F.block(Q.BlockId);
      record(I, Q.IsLiveOut ? B.isLiveOut(V, Block) : B.isLiveIn(V, Block));
      return;
    }
    // A lock-free read of the entry and epoch tables — no Value load, chain
    // walk, numbering or allocation per query. The Value is loaded only on
    // a miss, as in groupedRun.
    const LiveCheck::PreparedVar *P =
        Fr.Prepared[Q.FuncIndex]->lookup(Q.ValueId);
    if (!P) {
      if (queryableValue(*F.value(Q.ValueId)))
        Deferred.push_back(I);
      return;
    }
    ++(*HitsH)[Q.FuncIndex];
    const LiveCheck &E = *Fr.Engines[Q.FuncIndex];
    record(I, Q.IsLiveOut ? E.isLiveOutPrepared(*P, Q.BlockId, &Stats.Engine)
                          : E.isLiveInPrepared(*P, Q.BlockId, &Stats.Engine));
  }

  const FrameView &Fr;
  const std::vector<BatchQuery> &W;
  /// Per-function lookup hits, folded into the caches on destruction;
  /// reused across batches through the thread-local pool.
  pool::ArrayPool<unsigned>::Handle HitsH;
  std::vector<LiveCheck::PreparedProbe> Probes;
  std::vector<std::uint8_t> RunAnswers;
};

} // namespace

void BatchLivenessDriver::resolveEngines(
    std::vector<const LiveCheck *> &Engines,
    std::vector<const DomTree *> &Trees) {
  // A warm function resolves inline: one manager lookup and one engine
  // check. Only functions without an engine yet go to the pool, so a warm
  // frame wakes no other thread for its precompute.
  std::vector<FunctionAnalyses *> Analyses(Funcs.size());
  std::vector<std::size_t> Cold;
  Engines.assign(Funcs.size(), nullptr);
  for (std::size_t I = 0; I != Funcs.size(); ++I) {
    Analyses[I] = &Manager.get(*Funcs[I]);
    Engines[I] = Analyses[I]->builtLiveCheck();
    if (!Engines[I])
      Cold.push_back(I);
  }
  if (!Cold.empty())
    Pool->parallelFor(0, Cold.size(), [&](std::size_t K) {
      Engines[Cold[K]] = &Analyses[Cold[K]]->liveCheck();
    });
  Trees.resize(Funcs.size());
  for (std::size_t I = 0; I != Funcs.size(); ++I)
    Trees[I] = &Analyses[I]->domTree();
}

BatchResult BatchLivenessDriver::run(const std::vector<BatchQuery> &Workload) {
  using Clock = std::chrono::steady_clock;
  BatchResult Result;
  unsigned NumWorkers = Pool->numThreads();
  Result.PerThread.assign(NumWorkers, BatchThreadStats());
  Result.Answers.assign(Workload.size(), 0);

  // Phase 1 — precomputation: the engines, built once per function. LiveCheck
  // backends go through the AnalysisManager (epoch-validated: a second run()
  // on an unmodified module rebuilds nothing); baselines are built once per
  // driver, since they have no invalidation story — exactly the Section 7
  // contrast this subsystem exists to exploit. Prepared-cache entries are
  // not part of it: the query phase reads them as it goes (see below).
  auto PreStart = Clock::now();
  SSALIVE_SPAN("query-batch");
  std::vector<const LiveCheck *> Engines;
  std::vector<const DomTree *> Trees;
  const bool UsesLiveCheck = usesLiveCheck();
  {
  SSALIVE_SPAN("precompute");
  if (UsesLiveCheck) {
    resolveEngines(Engines, Trees);
    if (Prepared.size() != Funcs.size())
      Prepared.resize(Funcs.size());
    for (std::size_t I = 0; I != Funcs.size(); ++I) {
      if (!Prepared[I])
        Prepared[I] = std::make_unique<PreparedCache>(*Funcs[I], *Engines[I],
                                                      *Trees[I]);
      else
        Prepared[I]->rebind(*Engines[I], *Trees[I]);
      Prepared[I]->sizeToFunction();
      // Carry entries across CFG edits since the last run onto the
      // refreshed numbering while this thread is still the only writer.
      Prepared[I]->syncNumbering();
    }
  } else if (Baselines.empty()) {
    Baselines.resize(Funcs.size());
    Pool->parallelFor(0, Funcs.size(), [this](std::size_t I) {
      if (Opts.Backend == BatchBackend::Dataflow)
        Baselines[I] = std::make_unique<DataflowLiveness>(*Funcs[I]);
      else
        Baselines[I] = std::make_unique<PathExplorationLiveness>(*Funcs[I]);
    });
  }
  // Engine resolution and the caches' numbering sync only: prepared-cache
  // ensures happen inside the query phase and are timed with it.
  Result.PrecomputeMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - PreStart)
          .count();
  } // precompute span

  // Phase 2 — the query stream, carved into chunks the workers claim
  // through the scheduler. Each query writes only its own Answers slot and
  // each worker owns its PerThread slot, so the phase stays
  // write-shared-nothing and the result bytes are independent of the
  // schedule (the scheduler-equivalence suite pins this). For the LiveCheck
  // backend this is also the ensure pass: a worker answers every query whose
  // entry is fresh and defers the rest to its own list; after the join the
  // calling thread — then the caches' only writer — ensures and answers
  // the deferred queries. A warm frame defers nothing, so it is one pass.
  auto QueryStart = Clock::now();
  const std::size_t NumQueries = Workload.size();
  std::size_t Chunk = Opts.ChunkSize;
  if (Chunk == 0)
    Chunk = std::clamp<std::size_t>(
        NumQueries / (std::size_t(NumWorkers) * 8), 256, 4096);
  const std::size_t NumChunks = (NumQueries + Chunk - 1) / Chunk;
  // One claim cursor per worker over its contiguous queue of chunks.
  // Thieves claim through the same cursor, so fetch_add tickets hand every
  // chunk to exactly one worker with no other synchronization; a skewed
  // chunk (hot values cost more than cold ones) delays only its claimer
  // while the rest of its queue drains into the other workers.
  struct alignas(64) ChunkCursor {
    std::atomic<std::size_t> Next{0};
    std::size_t End = 0;
    /// The thread running this cursor's worker slot; empty before the slot
    /// starts and after it ends. Read only to classify steals.
    std::atomic<std::thread::id> Runner{};
  };
  std::vector<ChunkCursor> Cursors(NumWorkers);
  for (unsigned W = 0; W != NumWorkers; ++W) {
    Cursors[W].Next.store(NumChunks * W / NumWorkers,
                          std::memory_order_relaxed);
    Cursors[W].End = NumChunks * (W + 1) / NumWorkers;
  }
  const FrameView Frame{Workload,
                        Funcs,
                        Engines,
                        Prepared,
                        Baselines,
                        Result.Answers,
                        UsesLiveCheck,
                        Opts.GroupChunks && UsesLiveCheck};
  std::vector<std::vector<std::size_t>> Deferred(NumWorkers);

  Pool->runPerWorker([&](unsigned Worker) {
    // Counters accumulate on the worker's stack: adjacent PerThread slots
    // share cache lines, and bouncing one per query would erase exactly
    // the scaling this driver exists to deliver.
    FrameWorker FW(Frame);
    std::vector<std::size_t> &Defer = Deferred[Worker];
    const std::thread::id Self = std::this_thread::get_id();
    Cursors[Worker].Runner.store(Self, std::memory_order_relaxed);
    // Drain the own queue first, then visit the other cursors round-robin.
    // Chunks are never re-added, so one pass over every cursor claims
    // everything. A claim is a steal only when the victim's slot is live
    // on another thread: draining a slot nobody has started yet (the
    // caller of a call no helper joined) moves no work between threads.
    for (unsigned V = 0; V != NumWorkers; ++V) {
      unsigned Victim = (Worker + V) % NumWorkers;
      ChunkCursor &C = Cursors[Victim];
      while (true) {
        std::size_t Ticket = C.Next.fetch_add(1, std::memory_order_relaxed);
        if (Ticket >= C.End)
          break;
        std::thread::id Owner = C.Runner.load(std::memory_order_relaxed);
        ++FW.Stats.ChunksClaimed;
        FW.Stats.ChunksStolen += Owner != std::thread::id() && Owner != Self;
        FW.answerSpan(Ticket * Chunk,
                      std::min((Ticket + 1) * Chunk, NumQueries), Defer);
      }
    }
    Cursors[Worker].Runner.store(std::thread::id(), std::memory_order_relaxed);
    Result.PerThread[Worker] = FW.Stats;
  });
  // The deferred pass, credited to the worker that deferred each query.
  for (unsigned Worker = 0; Worker != NumWorkers; ++Worker) {
    if (Deferred[Worker].empty())
      continue;
    FrameWorker FW(Frame);
    FW.Stats = Result.PerThread[Worker];
    FW.answerDeferred(Deferred[Worker]);
    Result.PerThread[Worker] = FW.Stats;
  }
  Result.QueryMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - QueryStart)
          .count();

  // Publish the run's totals into the registry in bulk — a handful of
  // relaxed adds per *batch*, zero per query.
  const DriverTelemetry &T = DriverTelemetry::get();
  T.Batches.inc();
  T.Queries.inc(Result.Answers.size());
  std::uint64_t Positives = 0, ChunksTotal = 0, StealsTotal = 0;
  for (const BatchThreadStats &S : Result.PerThread) {
    Positives += S.PositiveAnswers;
    ChunksTotal += S.ChunksClaimed;
    StealsTotal += S.ChunksStolen;
  }
  T.Positives.inc(Positives);
  T.Chunks.inc(ChunksTotal);
  T.Steals.inc(StealsTotal);
  LiveCheckStats Engine = Result.totalEngineStats();
  T.EngineIn.inc(Engine.LiveInQueries);
  T.EngineOut.inc(Engine.LiveOutQueries);
  T.EngineTargets.inc(Engine.TargetsVisited);
  T.EngineUseTests.inc(Engine.UseTests);
  T.PrecomputeNs.observe(
      static_cast<std::uint64_t>(Result.PrecomputeMillis * 1e6));
  T.QueryBatchNs.observe(
      static_cast<std::uint64_t>(Result.QueryMillis * 1e6));
  if (UsesLiveCheck)
    publishPreparedTelemetry();
  return Result;
}

std::vector<BatchQuery> BatchLivenessDriver::generateWorkload(
    const std::vector<const Function *> &Funcs, std::uint64_t Seed,
    std::size_t Count) {
  // Eligible values per function (single def, >= 1 use).
  std::vector<std::vector<std::uint32_t>> Eligible(Funcs.size());
  std::vector<std::uint32_t> NonEmpty;
  for (std::size_t I = 0; I != Funcs.size(); ++I) {
    for (const auto &V : Funcs[I]->values())
      if (queryableValue(*V))
        Eligible[I].push_back(V->id());
    if (!Eligible[I].empty() && Funcs[I]->numBlocks() != 0)
      NonEmpty.push_back(static_cast<std::uint32_t>(I));
  }
  std::vector<BatchQuery> Workload;
  if (NonEmpty.empty())
    return Workload;
  Workload.reserve(Count);
  RandomEngine Rng(Seed);
  for (std::size_t I = 0; I != Count; ++I) {
    std::uint32_t FI =
        NonEmpty[Rng.nextBelow(static_cast<unsigned>(NonEmpty.size()))];
    const auto &Vals = Eligible[FI];
    BatchQuery Q;
    Q.FuncIndex = FI;
    Q.ValueId = Vals[Rng.nextBelow(static_cast<unsigned>(Vals.size()))];
    Q.BlockId = Rng.nextBelow(Funcs[FI]->numBlocks());
    Q.IsLiveOut = Rng.nextBelow(2) != 0;
    Workload.push_back(Q);
  }
  return Workload;
}
