//===- pipeline/AnalysisManager.h - Cached per-function analyses -*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy, epoch-validated caching of the CFG-derived analyses (DFS, dominator
/// tree, loop forest, LiveCheck engine) per function. The cache key is the
/// function's CFG modification epoch (Function::cfgVersion): structural
/// edits invalidate exactly the edited function's analyses, while
/// instruction/value edits invalidate nothing — the paper's Section 7
/// stability property ("adding or removing variables, uses, or whole
/// instructions never invalidates the precomputation"), enforced by the
/// system instead of by caller convention.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_PIPELINE_ANALYSISMANAGER_H
#define SSALIVE_PIPELINE_ANALYSISMANAGER_H

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "analysis/LoopForest.h"
#include "core/LiveCheck.h"
#include "ir/CFG.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace ssalive {

class Function;

/// All CFG-derived analyses of one function, snapshotted at one CFG epoch.
///
/// Construction is cheap; each analysis is built on first request, under an
/// internal mutex, so concurrent threads may request analyses of the same
/// entry (the first builds, the rest wait). Once returned, the references
/// are stable for the lifetime of the entry and safe for concurrent
/// read-only use — LiveCheck const queries carry no hidden state (stats go
/// to caller-owned sinks).
class FunctionAnalyses {
public:
  explicit FunctionAnalyses(const Function &F);

  FunctionAnalyses(const FunctionAnalyses &) = delete;
  FunctionAnalyses &operator=(const FunctionAnalyses &) = delete;

  const Function &function() const { return F; }

  /// The CFG epoch this snapshot was taken at.
  std::uint64_t epoch() const { return Epoch; }

  /// \name Lazy analysis accessors (thread-safe).
  /// @{
  const CFG &cfg();
  const DFS &dfs();
  const DomTree &domTree();
  const LoopForest &loopForest();
  const LiveCheck &liveCheck();
  /// @}

  /// The engine if it is already built, else null; never builds. Lets a
  /// caller resolve warm functions inline and fan out only the cold builds.
  const LiveCheck *builtLiveCheck();

  /// Advances the snapshot to the function's current epoch by replaying
  /// the journaled edits \p [B, E) against whatever analyses are already
  /// materialized: the cached CFG mirror absorbs the deltas, the DFS
  /// repairs or recomputes itself in place, the DomTree takes its scoped
  /// repair, the LiveCheck engine repatches its R/T rows, and the loop
  /// forest is dropped for lazy rebuild. Not-yet-built analyses stay
  /// unbuilt. Any delta batch from the owning function's journal is
  /// applicable — each repair layer carries its own full-recompute
  /// fallback — so this cannot fail; the caller-side rebuild fallback
  /// exists for journal gaps, which are detected before calling this.
  /// The usual phase discipline applies: no concurrent queries while
  /// refreshing.
  void applyDeltas(const CFGDelta *B, const CFGDelta *E);

private:
  // Unlocked build chain; callers hold Mutex.
  void ensureCFG();
  void ensureDFS();
  void ensureDomTree();

  const Function &F;
  std::uint64_t Epoch;

  std::mutex Mutex;
  std::unique_ptr<CFG> Graph;
  std::unique_ptr<DFS> Dfs;
  std::unique_ptr<DomTree> Tree;
  std::unique_ptr<LoopForest> Loops;
  std::unique_ptr<LiveCheck> Engine;
};

/// Per-module analysis cache: one FunctionAnalyses entry per function,
/// validated against the function's CFG epoch on every lookup.
///
/// Lookups are thread-safe. An entry reference stays valid until the next
/// get() observes a stale epoch for that function or invalidate()/clear()
/// is called — callers must not mutate a function's CFG while other threads
/// still query its analyses (the usual phase discipline of a compiler
/// pipeline; the batch driver separates its precompute and query phases
/// exactly this way).
class AnalysisManager {
public:
  /// Cache-miss/hit counters, for tests and throughput reports. The same
  /// events also stream into the process-wide telemetry registry (the
  /// `ssalive_analysis_*` series), which is what the server's Metrics
  /// opcode and the Prometheus exposition read.
  struct CacheCounters {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;         ///< First-time builds.
    std::uint64_t Invalidations = 0;  ///< Rebuilds forced by a stale epoch.
    std::uint64_t Refreshes = 0;      ///< In-place delta-journal repairs.
    std::uint64_t JournalGaps = 0;    ///< Refreshes that found the journal
                                      ///< poisoned and had to rebuild.
  };

  /// The analyses of \p F at its current CFG epoch, building or rebuilding
  /// the entry as needed.
  FunctionAnalyses &get(const Function &F);

  /// Like get(), but a stale entry consumes the function's delta journal
  /// and repairs its analyses in place (FunctionAnalyses::applyDeltas)
  /// instead of being thrown away — the "incremental analysis update
  /// instead of full rebuild on CFG epoch bump" path. Falls back to the
  /// get() rebuild behaviour whenever the journal cannot cover the gap (a
  /// bare epoch bump, too many edits) or the entry has nothing built yet.
  FunctionAnalyses &refresh(const Function &F);

  /// \name One-call conveniences.
  /// @{
  const CFG &cfg(const Function &F) { return get(F).cfg(); }
  const DFS &dfs(const Function &F) { return get(F).dfs(); }
  const DomTree &domTree(const Function &F) { return get(F).domTree(); }
  const LoopForest &loopForest(const Function &F) {
    return get(F).loopForest();
  }
  const LiveCheck &liveCheck(const Function &F) { return get(F).liveCheck(); }
  /// @}

  /// Drops \p F's entry (if any).
  void invalidate(const Function &F);

  /// Drops every entry.
  void clear();

  unsigned numCachedFunctions() const;
  CacheCounters counters() const;

private:
  mutable std::mutex Mutex;
  std::unordered_map<const Function *, std::unique_ptr<FunctionAnalyses>>
      Cache;
  CacheCounters Counters;
};

} // namespace ssalive

#endif // SSALIVE_PIPELINE_ANALYSISMANAGER_H
