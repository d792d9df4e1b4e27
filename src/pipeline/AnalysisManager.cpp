//===- pipeline/AnalysisManager.cpp - Cached per-function analyses --------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pipeline/AnalysisManager.h"

#include "ir/Function.h"
#include "support/Telemetry.h"

using namespace ssalive;

namespace {

/// Registry handles for the cache-traffic series. Registered once; every
/// increment is one relaxed store into this thread's shard.
struct CacheTelemetry {
  telemetry::Counter Hits{"ssalive_analysis_cache_hits_total"};
  telemetry::Counter Misses{"ssalive_analysis_cache_misses_total"};
  telemetry::Counter Invalidations{
      "ssalive_analysis_cache_invalidations_total"};
  telemetry::Counter Refreshes{"ssalive_analysis_cache_refreshes_total"};
  telemetry::Counter JournalGaps{"ssalive_analysis_journal_gap_total"};

  static const CacheTelemetry &get() {
    static CacheTelemetry T;
    return T;
  }
};

} // namespace

FunctionAnalyses::FunctionAnalyses(const Function &F)
    : F(F), Epoch(F.cfgVersion()) {}

void FunctionAnalyses::ensureCFG() {
  if (!Graph)
    Graph = std::make_unique<CFG>(CFG::fromFunction(F));
}

void FunctionAnalyses::ensureDFS() {
  ensureCFG();
  if (!Dfs)
    Dfs = std::make_unique<DFS>(*Graph);
}

void FunctionAnalyses::ensureDomTree() {
  ensureDFS();
  if (!Tree)
    Tree = std::make_unique<DomTree>(*Graph, *Dfs);
}

const CFG &FunctionAnalyses::cfg() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ensureCFG();
  return *Graph;
}

const DFS &FunctionAnalyses::dfs() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ensureDFS();
  return *Dfs;
}

const DomTree &FunctionAnalyses::domTree() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ensureDomTree();
  return *Tree;
}

const LiveCheck &FunctionAnalyses::liveCheck() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ensureDomTree();
  // The engine retains its incremental update state: applyDeltas() is the
  // consumer of the in-place repatch path.
  if (!Engine)
    Engine = std::make_unique<LiveCheck>(
        *Graph, *Dfs, *Tree, LiveCheckOptions{/*Incremental=*/true});
  return *Engine;
}

const LiveCheck *FunctionAnalyses::builtLiveCheck() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Engine.get();
}

void FunctionAnalyses::applyDeltas(const CFGDelta *B, const CFGDelta *E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Graph) {
    // Nothing materialized: re-stamping the epoch is the whole repair.
    Epoch = F.cfgVersion();
    return;
  }
  // Mirror the journaled edits onto the cached graph view (block ids equal
  // node ids, so the deltas replay verbatim).
  for (const CFGDelta *D = B; D != E; ++D) {
    switch (D->K) {
    case CFGDelta::Kind::EdgeInsert:
      Graph->addEdge(D->From, D->To);
      break;
    case CFGDelta::Kind::EdgeRemove:
      Graph->removeEdge(D->From, D->To);
      break;
    case CFGDelta::Kind::NodeAdd:
      Graph->resize(Graph->numNodes() + 1);
      break;
    }
  }
  // The mirror accumulates its own journal through those mutators, and
  // nothing ever reads it (consumers follow the *function's* journal):
  // poison it so a long-lived cache entry does not retain thousands of
  // dead deltas.
  Graph->bumpVersion();
  // Repair order matters: DFS first (the tree and the engine read its
  // classification), then the dominator tree (the engine reads its
  // numbering), then the engine itself.
  if (Dfs)
    Dfs->applyUpdates(B, E);
  if (Tree) {
    assert(Dfs && "dominator tree without DFS");
    Tree->applyUpdates(*Graph, *Dfs, B, E);
  }
  if (Engine)
    Engine->update(B, E);
  Epoch = F.cfgVersion();
}

FunctionAnalyses &AnalysisManager::get(const Function &F) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Cache.find(&F);
  if (It != Cache.end()) {
    if (It->second->epoch() == F.cfgVersion()) {
      ++Counters.Hits;
      CacheTelemetry::get().Hits.inc();
      return *It->second;
    }
    // Structural edit since the snapshot: rebuild this function's entry.
    ++Counters.Invalidations;
    CacheTelemetry::get().Invalidations.inc();
    It->second = std::make_unique<FunctionAnalyses>(F);
    return *It->second;
  }
  ++Counters.Misses;
  CacheTelemetry::get().Misses.inc();
  auto Inserted =
      Cache.emplace(&F, std::make_unique<FunctionAnalyses>(F));
  return *Inserted.first->second;
}

FunctionAnalyses &AnalysisManager::refresh(const Function &F) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Cache.find(&F);
  if (It == Cache.end()) {
    ++Counters.Misses;
    CacheTelemetry::get().Misses.inc();
    auto Inserted =
        Cache.emplace(&F, std::make_unique<FunctionAnalyses>(F));
    return *Inserted.first->second;
  }
  if (It->second->epoch() == F.cfgVersion()) {
    ++Counters.Hits;
    CacheTelemetry::get().Hits.inc();
    return *It->second;
  }
  if (auto Span = F.deltasSince(It->second->epoch())) {
    {
      SSALIVE_SPAN("refresh");
      It->second->applyDeltas(Span->first, Span->second);
    }
    ++Counters.Refreshes;
    CacheTelemetry::get().Refreshes.inc();
    return *It->second;
  }
  // Journal gap (a bare epoch bump poisoned it): rebuild like get() would.
  ++Counters.Invalidations;
  ++Counters.JournalGaps;
  CacheTelemetry::get().Invalidations.inc();
  CacheTelemetry::get().JournalGaps.inc();
  It->second = std::make_unique<FunctionAnalyses>(F);
  return *It->second;
}

void AnalysisManager::invalidate(const Function &F) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cache.erase(&F);
}

void AnalysisManager::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cache.clear();
}

unsigned AnalysisManager::numCachedFunctions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return static_cast<unsigned>(Cache.size());
}

AnalysisManager::CacheCounters AnalysisManager::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}
