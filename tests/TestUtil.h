//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across test binaries: the generate -> populate ->
/// SSA-construct pipeline that property tests draw random strict SSA
/// functions from, and small graph-building conveniences.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_TESTS_TESTUTIL_H
#define SSALIVE_TESTS_TESTUTIL_H

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/LiveCheck.h"
#include "core/LivenessInterface.h"
#include "core/UseInfo.h"
#include "ir/CFG.h"
#include "ir/Function.h"
#include "ir/Verifier.h"
#include "pipeline/BatchLivenessDriver.h"
#include "ssa/SSAConstruction.h"
#include "support/RandomEngine.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ssalive::testutil {

/// Builds a CFG from an explicit edge list over \p NumNodes nodes.
inline CFG makeCFG(unsigned NumNodes,
                   std::initializer_list<std::pair<unsigned, unsigned>>
                       Edges) {
  CFG G(NumNodes);
  for (auto [From, To] : Edges)
    G.addEdge(From, To);
  return G;
}

/// Configuration of one random-function draw.
struct RandomFunctionConfig {
  unsigned TargetBlocks = 24;
  unsigned GotoEdges = 0; ///< > 0 may produce irreducible graphs.
  double VariablesPerBlock = 2.0;
  PhiPlacement Placement = PhiPlacement::Pruned;
};

/// Draws a random strict SSA function; fails the current test if the
/// verifier rejects it (which would indicate a generator/SSA bug).
inline std::unique_ptr<Function>
randomSSAFunction(std::uint64_t Seed, const RandomFunctionConfig &Cfg = {}) {
  RandomEngine Rng(Seed);
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = Cfg.TargetBlocks;
  GOpts.GotoEdges = Cfg.GotoEdges;
  CFG G = generateCFG(GOpts, Rng);

  ProgramGenOptions POpts;
  POpts.VariablesPerBlock = Cfg.VariablesPerBlock;
  auto F = generateProgram(G, POpts, Rng);
  EXPECT_TRUE(verifyStructure(*F).ok()) << verifyStructure(*F).message();

  constructSSA(*F, Cfg.Placement);
  VerifyResult R = verifySSA(*F);
  EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.message();
  return F;
}

/// Draws a random φ-free strict (non-SSA) function, for tests that want
/// the pre-construction program.
inline std::unique_ptr<Function>
randomImperativeFunction(std::uint64_t Seed,
                         const RandomFunctionConfig &Cfg = {}) {
  RandomEngine Rng(Seed);
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = Cfg.TargetBlocks;
  GOpts.GotoEdges = Cfg.GotoEdges;
  CFG G = generateCFG(GOpts, Rng);

  ProgramGenOptions POpts;
  POpts.VariablesPerBlock = Cfg.VariablesPerBlock;
  auto F = generateProgram(G, POpts, Rng);
  EXPECT_TRUE(verifyStructure(*F).ok()) << verifyStructure(*F).message();
  return F;
}

/// A liveness backend answering exclusively through LiveCheck's block-id
/// entry points, re-walking the def-use chain on every query — the flow
/// FunctionLiveness ran before the prepared-cache migration, preserved as
/// the in-process *test reference*: production answers through the cached
/// per-value prepared plane (core/PreparedCache), and the core, ssa,
/// pipeline and server suites compare it against these entry points (no
/// shared per-variable state, no numbering translation).
class BlockIdLiveness : public LivenessQueries {
public:
  explicit BlockIdLiveness(const Function &F, LiveCheckOptions Opts = {})
      : Graph(CFG::fromFunction(F)), Dfs(Graph), Tree(Graph, Dfs),
        Engine(Graph, Dfs, Tree, Opts) {}

  bool isLiveIn(const Value &V, const BasicBlock &B) override {
    if (V.defs().empty() || !V.hasUses())
      return false;
    Uses.clear();
    appendLiveUseBlocks(V, Uses);
    return Engine.isLiveIn(defBlockId(V), B.id(), Uses);
  }

  bool isLiveOut(const Value &V, const BasicBlock &B) override {
    if (V.defs().empty() || !V.hasUses())
      return false;
    Uses.clear();
    appendLiveUseBlocks(V, Uses);
    return Engine.isLiveOut(defBlockId(V), B.id(), Uses);
  }

  const char *backendName() const override { return "livecheck-blockid"; }

  const LiveCheck &engine() const { return Engine; }

private:
  CFG Graph;
  DFS Dfs;
  DomTree Tree;
  LiveCheck Engine;
  std::vector<unsigned> Uses;
};

/// The answers of \p Workload over \p Funcs from LiveCheck's block-id entry
/// points: one fresh BlockIdLiveness engine per function queried, and the
/// batch driver's queryability rule (a value with one def and at least one
/// use; every other value is dead). The reference the driver and server
/// suites compare the production plane against, byte for byte.
inline std::vector<std::uint8_t>
blockIdAnswers(const std::vector<const Function *> &Funcs,
               const std::vector<BatchQuery> &Workload) {
  std::vector<std::unique_ptr<BlockIdLiveness>> Engines(Funcs.size());
  std::vector<std::uint8_t> Answers(Workload.size(), 0);
  for (std::size_t I = 0; I != Workload.size(); ++I) {
    const BatchQuery &Q = Workload[I];
    const Function &F = *Funcs[Q.FuncIndex];
    const Value &V = *F.value(Q.ValueId);
    if (!V.hasSingleDef() || !V.hasUses())
      continue;
    if (!Engines[Q.FuncIndex])
      Engines[Q.FuncIndex] = std::make_unique<BlockIdLiveness>(F);
    const BasicBlock &B = *F.block(Q.BlockId);
    Answers[I] = Q.IsLiveOut ? Engines[Q.FuncIndex]->isLiveOut(V, B)
                             : Engines[Q.FuncIndex]->isLiveIn(V, B);
  }
  return Answers;
}

/// A liveness backend answering through per-query-prepared PreparedVar
/// entries (over a use mask when \p UseMask is set): the variable is
/// re-prepared on every query, never cached. Kept purely as a differential
/// oracle for the production cached plane — FunctionLiveness now *is* the
/// prepared path (via core/PreparedCache), and the ssa matrices compare
/// all of them pairwise.
class PreparedLiveness : public LivenessQueries {
public:
  explicit PreparedLiveness(const Function &F, bool UseMask = false,
                            LiveCheckOptions Opts = {})
      : Graph(CFG::fromFunction(F)), Dfs(Graph), Tree(Graph, Dfs),
        Engine(Graph, Dfs, Tree, Opts), UseMask(UseMask),
        Mask(Graph.numNodes()) {}

  bool isLiveIn(const Value &V, const BasicBlock &B) override {
    prepare(V);
    return Engine.isLiveInPrepared(Prep, B.id());
  }

  bool isLiveOut(const Value &V, const BasicBlock &B) override {
    prepare(V);
    return Engine.isLiveOutPrepared(Prep, B.id());
  }

  const char *backendName() const override {
    return UseMask ? "livecheck-mask" : "livecheck-prepared";
  }

  const LiveCheck &engine() const { return Engine; }

private:
  void prepare(const Value &V) {
    Blocks.clear();
    appendLiveUseBlocks(V, Blocks);
    Nums.clear();
    Mask.reset();
    for (unsigned B : Blocks) {
      Nums.push_back(Tree.num(B));
      Mask.set(Tree.num(B));
    }
    Engine.prepareDef(defBlockId(V), Prep);
    Prep.NumsBegin = Nums.data();
    Prep.NumsEnd = Nums.data() + Nums.size();
    if (UseMask)
      Prep.setMask(Mask);
    else
      Prep.clearMask();
  }

  CFG Graph;
  DFS Dfs;
  DomTree Tree;
  LiveCheck Engine;
  bool UseMask;
  LiveCheck::PreparedVar Prep;
  std::vector<unsigned> Blocks;
  std::vector<unsigned> Nums;
  BitVector Mask;
};

/// A one-shot gate: wait() blocks until open() was called. Tests park
/// every pool thread on one to prove a call completes without helpers.
class Gate {
public:
  void open() {
    std::lock_guard<std::mutex> Lock(M);
    Open = true;
    CV.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [this] { return Open; });
  }

private:
  std::mutex M;
  std::condition_variable CV;
  bool Open = false;
};

/// Runs \p Body on a fresh thread and reports whether it finished within a
/// generous deadline. On a miss, \p OnMiss runs before the join so the
/// test fails instead of hanging.
template <class Fn, class Unblock>
bool finishesInTime(Fn &&Body, Unblock &&OnMiss) {
  std::packaged_task<void()> Task(std::forward<Fn>(Body));
  std::future<void> Done = Task.get_future();
  std::thread T(std::move(Task));
  bool InTime =
      Done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!InTime)
    OnMiss();
  T.join();
  return InTime;
}

} // namespace ssalive::testutil

#endif // SSALIVE_TESTS_TESTUTIL_H
