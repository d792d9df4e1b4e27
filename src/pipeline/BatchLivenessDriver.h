//===- pipeline/BatchLivenessDriver.h - Module-level batch queries -*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a liveness-query workload over a whole module (set of functions)
/// concurrently: functions without an engine yet are built across a thread
/// pool, then the query stream is carved into chunks that the calling
/// thread and any budgeted pool helpers claim through a work-stealing
/// scheduler and answer against the shared read-only engines. The LiveCheck
/// backend answers through per-function prepared caches: each maximal run
/// of same-(function, value) queries in arrival order within a chunk is
/// served by one prepared variable, and long runs by one multi-query kernel
/// call; the fan-out only reads entries, and queries whose entry is stale
/// are deferred and answered by the caller after the join. The baselines
/// answer query by query as independent oracles. Answers land in a
/// per-query slot, so the result is byte-identical for any thread count
/// and any claim order — the amortization story of the paper
/// (one CFG-only precomputation, unboundedly many queries) scaled from one
/// function to a module under heavy query traffic.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H
#define SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H

#include "core/LiveCheck.h"
#include "core/PreparedCache.h"
#include "pipeline/AnalysisManager.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssalive {

class Function;
class LivenessQueries;
class ThreadPool;

/// Which engine answers the workload. The values are the LoadModule wire
/// ids of the liveness server; ids 1-4 belonged to removed T-set,
/// storage-layout and block-sweep variants and stay unassigned, so a client
/// that sends one gets Error(BadBackend) instead of a different engine.
enum class BatchBackend : std::uint8_t {
  LiveCheckPropagated = 0, ///< The paper's engine, Section-5.2 T sets.
  Dataflow = 5,            ///< Iterative data-flow baseline ("Native").
  PathExploration = 6,     ///< Appel-Palsberg per-variable backwalk baseline.
};

/// Every backend, in wire-id order.
inline constexpr BatchBackend AllBatchBackends[] = {
    BatchBackend::LiveCheckPropagated, BatchBackend::Dataflow,
    BatchBackend::PathExploration};

const char *batchBackendName(BatchBackend B);

/// Parses "propagated", "dataflow", "path-exploration" (returns false on
/// anything else, including the retired "filtered").
bool parseBatchBackend(const std::string &Name, BatchBackend &Out);

/// The plane byte of a LoadModule request: a wire id only. The driver has
/// one query plane (per-function PreparedCache entries), so both ids load
/// the same session; they stay accepted because existing clients send
/// them. Ids 1-2 belonged to removed planes and get Error(BadPlane).
enum class QueryPlane : std::uint8_t {
  BlockId = 0,
  Prepared = 3,
};

/// Every accepted plane id, in wire-id order.
inline constexpr QueryPlane AllQueryPlanes[] = {QueryPlane::BlockId,
                                                QueryPlane::Prepared};

/// True when \p B answers through the cached LiveCheck engines (and thus
/// benefits from AnalysisManager::refresh after CFG edits); false for the
/// standalone baselines, which are simply rebuilt.
bool batchBackendUsesLiveCheck(BatchBackend B);

/// One liveness query against one function of the module.
struct BatchQuery {
  std::uint32_t FuncIndex; ///< Index into the driver's function list.
  std::uint32_t ValueId;   ///< Value id within that function.
  std::uint32_t BlockId;   ///< Query block id within that function.
  bool IsLiveOut;          ///< Live-out query instead of live-in.
};

/// Workload-execution knobs.
struct BatchOptions {
  BatchBackend Backend = BatchBackend::LiveCheckPropagated;
  /// Worker threads for both phases; 0 = hardware concurrency. Ignored
  /// when the driver is constructed over a shared pool.
  unsigned Threads = 1;
  /// Sharded cold-fill gate (LiveCheck backend, multi-worker pools only):
  /// when the estimated number of workload queries whose values lack a
  /// fresh prepared entry reaches this threshold, the cold builds fan out
  /// across the pool by value-id stripe (PreparedCache::stripeOf) before
  /// the query phase — each worker owns whole stripes, so every build's
  /// arena traffic is write-disjoint. Below the threshold nothing is built
  /// up front: the query workers defer stale queries and the caller
  /// ensures them after the join. Coldness is estimated from a strided
  /// 1-in-64 sample of the workload, so the warm path pays ~1/64 of a
  /// pass, not a full pre-scan. 0 forces sharding (tests); SIZE_MAX
  /// disables it.
  std::size_t ColdFillShardThreshold = 4096;
  /// Queries per stealing chunk; 0 picks adaptively from the workload size
  /// (size / (workers * 8), clamped to [256, 4096]) so skewed workloads
  /// leave enough chunks to rebalance while small batches stay near one
  /// claim per worker.
  std::size_t ChunkSize = 0;
  /// Answer each maximal run of same-(function, value) queries in arrival
  /// order through one prepared variable, and a run of at least 8 queries
  /// through one LiveCheck::answerPreparedRun multi-query call. Queries are
  /// never reordered. On by default; off answers query by query — the
  /// baseline bench_querymix compares against, and a differential surface
  /// for the equivalence suite. (The non-LiveCheck baselines always answer
  /// query by query: they are the independent oracles.)
  bool GroupChunks = true;
};

/// Per-worker tallies; aggregation across workers is a fold, never a shared
/// write (each worker owns its slot). Queries-executed is not tallied here:
/// every claimed chunk is a known index range, so the count is derivable
/// from the chunk tallies; the per-run totals stream into the telemetry
/// registry instead (`ssalive_driver_*`).
struct BatchThreadStats {
  std::uint64_t PositiveAnswers = 0;
  /// Chunks this logical worker answered in phase 2. ChunksStolen is the
  /// subset claimed from another worker's queue while that worker was
  /// running on a different thread — real load moving between threads. A
  /// thread draining the queue of a worker slot that has not started (the
  /// caller of a call no helper joined) steals nothing. Totals feed
  /// `ssalive_driver_chunks_total` / `ssalive_driver_steals_total`.
  std::uint64_t ChunksClaimed = 0;
  std::uint64_t ChunksStolen = 0;
  LiveCheckStats Engine; ///< LiveCheck counters (zero for baselines).
};

/// Outcome of one run() call.
struct BatchResult {
  /// Answers[i] is 1 if workload query i returned live, else 0. Identical
  /// for every thread count by construction.
  std::vector<std::uint8_t> Answers;
  std::vector<BatchThreadStats> PerThread; ///< One slot per worker.
  /// Engine resolution and cold builds (engines; a sharded prepared fill).
  double PrecomputeMillis = 0;
  /// The query phase, including the prepared-cache ensures of deferred
  /// queries.
  double QueryMillis = 0;

  std::uint64_t numQueries() const { return Answers.size(); }
  double queriesPerSecond() const {
    return QueryMillis > 0 ? double(Answers.size()) / (QueryMillis / 1e3)
                           : 0;
  }
  /// Order-sensitive 64-bit digest of the answer vector (position-mixed,
  /// so it distinguishes permutations of the same multiset).
  std::uint64_t checksum() const;
  /// Sum of the per-worker engine counters.
  LiveCheckStats totalEngineStats() const;
};

/// Runs liveness workloads over a set of functions with a fixed backend and
/// thread count. The driver does not own the functions; their CFGs must not
/// be mutated during run().
class BatchLivenessDriver {
public:
  BatchLivenessDriver(std::vector<const Function *> Funcs,
                      BatchOptions Opts = {});
  /// Shares \p Pool instead of owning one — the liveness server runs every
  /// session's query fan-out over one process-wide pool this way. The pool
  /// must outlive the driver. Opts.Threads is ignored.
  BatchLivenessDriver(std::vector<const Function *> Funcs, BatchOptions Opts,
                      ThreadPool &Pool);
  ~BatchLivenessDriver();

  /// Builds (or reuses, for LiveCheck backends via the AnalysisManager)
  /// every function's engine, then answers \p Workload on the calling
  /// thread plus whatever pool helpers the pool's budget allows. Repeated
  /// calls reuse cached precomputation — the amortized regime the
  /// throughput report measures.
  BatchResult run(const std::vector<BatchQuery> &Workload);

  const std::vector<const Function *> &functions() const { return Funcs; }
  unsigned numThreads() const;
  BatchBackend backend() const { return Opts.Backend; }

  /// The cache behind the LiveCheck backends (counters for reports; shared
  /// epoch-validated entries).
  AnalysisManager &analysisManager() { return Manager; }

  /// The per-function prepared caches of the LiveCheck backend (null
  /// until a run() touched that function). Entries persist
  /// across run() calls — the "skip per-query use-block collection" regime
  /// the server's long-lived sessions amortize into — and survive CFG
  /// edits: run() remaps them onto the refreshed numbering
  /// (PreparedCache::syncNumbering) before answering, and the entries the
  /// remap cannot carry are rebuilt lazily.
  const PreparedCache *preparedCache(std::size_t FuncIndex) const {
    return FuncIndex < Prepared.size() ? Prepared[FuncIndex].get() : nullptr;
  }

  /// Flushes every prepared cache's accrued counters into the telemetry
  /// registry (run() does this per batch; exporters call it to be current
  /// as of a snapshot).
  void publishPreparedTelemetry();

  /// Tells the driver a function's CFG was structurally edited. The
  /// LiveCheck backends need nothing (the AnalysisManager revalidates by
  /// epoch — callers wanting the in-place repair route the edit through
  /// analysisManager().refresh), but the baseline engines have no
  /// invalidation story of their own: this drops them so the next run()
  /// rebuilds fresh ones. The liveness server calls it from its CFG-edit
  /// command.
  void notifyCFGEdited();

  /// Draws \p Count random valid queries over \p Funcs: values with a
  /// single def and at least one use, blocks uniform over the function,
  /// live-in/live-out split evenly. Deterministic in \p Seed.
  static std::vector<BatchQuery>
  generateWorkload(const std::vector<const Function *> &Funcs,
                   std::uint64_t Seed, std::size_t Count);

private:
  bool usesLiveCheck() const;
  /// Fills \p Engines and \p Trees for every function, building missing
  /// engines across the pool.
  void resolveEngines(std::vector<const LiveCheck *> &Engines,
                      std::vector<const DomTree *> &Trees);

  std::vector<const Function *> Funcs;
  BatchOptions Opts;
  AnalysisManager Manager;
  std::unique_ptr<ThreadPool> OwnedPool; ///< Null when sharing a pool.
  ThreadPool *Pool;                      ///< Owned or shared; never null.
  /// Baseline engines per function (Dataflow/PathExploration backends).
  std::vector<std::unique_ptr<LivenessQueries>> Baselines;
  /// Per-function prepared caches (LiveCheck backend); persist across
  /// run() calls, rebound when the AnalysisManager rebuilt a function's
  /// analyses wholesale.
  std::vector<std::unique_ptr<PreparedCache>> Prepared;
};

} // namespace ssalive

#endif // SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H
