//===- tests/pipeline/IncrementalFuzzTest.cpp -----------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The differential mutation-fuzz harness of the incremental analysis
// plane. Thousands of randomized structural CFG edits (CFGMutator) are
// applied step by step; after every step the incrementally repaired
// analyses — DFS::recompute + DomTree::applyUpdates + LiveCheck::update,
// and at the IR level AnalysisManager::refresh — must answer exactly like
// a from-scratch rebuild: identical dominator trees (idoms and preorder
// numbering, cross-checked against Lengauer-Tarjan as a second opinion),
// identical R/T set contents, and identical liveness answers under both T
// modes, through the row-repatch path and the full-recompute fallback, at
// every query entry point (block-id spans, PreparedVar use spans and use
// masks, and the whole-interval block sweeps). On a mismatch the failing
// sequence is reported as a replayable (seed, mode, step) triple.
//
//===----------------------------------------------------------------------===//

#include "pipeline/AnalysisManager.h"

#include "TestUtil.h"
#include "analysis/SemiNCA.h"
#include "core/LiveCheck.h"
#include "core/PreparedCache.h"
#include "core/UseInfo.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "server/SessionManager.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

std::string describeMutation(const Mutation &M) {
  std::ostringstream OS;
  switch (M.Kind) {
  case MutationKind::AddEdge:
    OS << "add " << M.From << "->" << M.To;
    break;
  case MutationKind::RemoveEdge:
    OS << "remove " << M.From << "->" << M.To;
    break;
  case MutationKind::RetargetBranch:
    OS << "retarget " << M.From << "->" << M.To << " to " << M.From << "->"
       << M.To2;
    break;
  case MutationKind::SplitBlock:
    OS << "split " << M.From << " (new node " << M.To << ")";
    break;
  }
  return OS.str();
}

/// The replayable failure tag every assertion carries.
std::string replayTag(std::uint64_t Seed, bool Reducible, unsigned Step,
                      const Mutation &M) {
  std::ostringstream OS;
  OS << "replay: seed=" << Seed
     << " mode=" << (Reducible ? "reducible" : "general")
     << " step=" << Step << " mutation={" << describeMutation(M) << "}";
  return OS.str();
}

/// One incrementally maintained analysis stack over a shared CFG.
struct Rig {
  std::string Name;
  DFS D;
  DomTree DT;
  LiveCheck LC;

  Rig(const CFG &G, std::string Name, bool Incremental)
      : Name(std::move(Name)), D(G), DT(G, D),
        LC(G, D, DT, LiveCheckOptions{Incremental}) {}

  void step(const CFG &G, CFGDeltaSpan Span) {
    D.applyUpdates(Span.first, Span.second);
    DT.applyUpdates(G, D, Span.first, Span.second);
    LC.update(Span.first, Span.second);
  }
};

/// A random variable shape: a def block plus a handful of use blocks.
struct VarSample {
  unsigned Def = 0;
  std::vector<unsigned> Uses;
};

std::vector<VarSample> sampleVariables(const CFG &G, RandomEngine &Rng,
                                       unsigned Count) {
  std::vector<VarSample> Vars(Count);
  unsigned N = G.numNodes();
  for (VarSample &V : Vars) {
    V.Def = Rng.nextBelow(N);
    unsigned Uses = 1 + Rng.nextBelow(5);
    for (unsigned U = 0; U != Uses; ++U)
      V.Uses.push_back(Rng.nextBelow(N));
  }
  return Vars;
}

/// Compares every entry point of \p Inc (incrementally updated, with its
/// own repaired DomTree \p IncDT) against \p Fresh (freshly built over
/// \p FreshDT) for the given variables. Returns false on the first
/// mismatch, with the offending query in the failure message.
bool compareEngines(const LiveCheck &Inc, const DomTree &IncDT,
                    const LiveCheck &Fresh, const DomTree &FreshDT,
                    const std::vector<VarSample> &Vars, RandomEngine &Rng,
                    const std::string &Tag) {
  unsigned N = Inc.numNodes();
  if (N != Fresh.numNodes()) {
    ADD_FAILURE() << Tag << ": node count " << Inc.numNodes() << " vs "
                  << Fresh.numNodes();
    return false;
  }
  BitVector IncIn, IncOut, FreshIn, FreshOut;
  std::vector<unsigned> IncNums, FreshNums;
  BitVector IncMask(N), FreshMask(N);
  for (const VarSample &V : Vars) {
    // Whole-graph coverage through the batch sweeps (one comparison per
    // block and direction, at word speed).
    Inc.liveInOutBlocks(V.Def, V.Uses, IncIn, IncOut);
    Fresh.liveInOutBlocks(V.Def, V.Uses, FreshIn, FreshOut);
    if (IncIn != FreshIn || IncOut != FreshOut) {
      ADD_FAILURE() << Tag << ": block-sweep mismatch, def=" << V.Def;
      return false;
    }
    // Per-entry-point checks on sampled query blocks.
    IncNums.clear();
    FreshNums.clear();
    IncMask.reset();
    FreshMask.reset();
    for (unsigned U : V.Uses) {
      IncNums.push_back(IncDT.num(U));
      FreshNums.push_back(FreshDT.num(U));
      IncMask.set(IncDT.num(U));
      FreshMask.set(FreshDT.num(U));
    }
    LiveCheck::PreparedVar IncPrep, FreshPrep;
    Inc.prepareDef(V.Def, IncPrep);
    Fresh.prepareDef(V.Def, FreshPrep);
    IncPrep.NumsBegin = IncNums.data();
    IncPrep.NumsEnd = IncNums.data() + IncNums.size();
    FreshPrep.NumsBegin = FreshNums.data();
    FreshPrep.NumsEnd = FreshNums.data() + FreshNums.size();
    LiveCheck::PreparedVar IncPrepMask = IncPrep, FreshPrepMask = FreshPrep;
    IncPrepMask.setMask(IncMask);
    FreshPrepMask.setMask(FreshMask);

    for (unsigned Probe = 0; Probe != 12; ++Probe) {
      unsigned Q = Rng.nextBelow(N);
      bool In[4] = {Inc.isLiveIn(V.Def, Q, V.Uses),
                    Inc.isLiveInPrepared(IncPrep, Q),
                    Inc.isLiveInPrepared(IncPrepMask, Q),
                    Fresh.isLiveIn(V.Def, Q, V.Uses)};
      bool FreshIn2[2] = {Fresh.isLiveInPrepared(FreshPrep, Q),
                          Fresh.isLiveInPrepared(FreshPrepMask, Q)};
      bool Out[4] = {Inc.isLiveOut(V.Def, Q, V.Uses),
                     Inc.isLiveOutPrepared(IncPrep, Q),
                     Inc.isLiveOutPrepared(IncPrepMask, Q),
                     Fresh.isLiveOut(V.Def, Q, V.Uses)};
      bool FreshOut2[2] = {Fresh.isLiveOutPrepared(FreshPrep, Q),
                           Fresh.isLiveOutPrepared(FreshPrepMask, Q)};
      for (int I = 0; I != 4; ++I)
        if (In[I] != In[3] || Out[I] != Out[3]) {
          ADD_FAILURE() << Tag << ": live-in/out entry-point mismatch at "
                        << "def=" << V.Def << " q=" << Q << " entry#" << I;
          return false;
        }
      for (int I = 0; I != 2; ++I)
        if (FreshIn2[I] != In[3] || FreshOut2[I] != Out[3]) {
          ADD_FAILURE() << Tag << ": fresh-engine entry-point disagreement "
                        << "at def=" << V.Def << " q=" << Q;
          return false;
        }
    }
  }
  return true;
}

/// Full R/T content equality between an incrementally updated engine and a
/// fresh build (the fixpoints are unique, so repatch must be bit-exact) —
/// plus the scan side tables (maxnum / back-target by preorder number): a
/// stale subtree-skip bound only corrupts answers on query shapes narrow
/// enough that sampled probes can miss them for thousands of steps.
bool compareSets(const LiveCheck &Inc, const LiveCheck &Fresh,
                 const std::string &Tag) {
  unsigned N = Inc.numNodes();
  for (unsigned Num = 0; Num != N; ++Num) {
    if (Inc.cachedMaxNum(Num) != Fresh.cachedMaxNum(Num)) {
      ADD_FAILURE() << Tag << ": stale maxnum side table at num " << Num
                    << " (repatched=" << Inc.cachedMaxNum(Num)
                    << " fresh=" << Fresh.cachedMaxNum(Num) << ")";
      return false;
    }
    if (Inc.cachedBackTarget(Num) != Fresh.cachedBackTarget(Num)) {
      ADD_FAILURE() << Tag << ": stale back-target side table at num "
                    << Num;
      return false;
    }
  }
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B) {
      if (Inc.isReducedReachable(A, B) != Fresh.isReducedReachable(A, B)) {
        ADD_FAILURE() << Tag << ": R mismatch at (" << A << "," << B << ")";
        return false;
      }
      if (Inc.isInT(A, B) != Fresh.isInT(A, B)) {
        ADD_FAILURE() << Tag << ": T mismatch at (" << A << "," << B << ")";
        return false;
      }
    }
  return true;
}

bool compareDomTrees(const DomTree &Inc, const DomTree &Fresh,
                     const std::vector<unsigned> &LTIdoms,
                     const std::string &Tag) {
  if (Inc.numNodes() != Fresh.numNodes()) {
    ADD_FAILURE() << Tag << ": dom tree node count";
    return false;
  }
  for (unsigned V = 0; V != Inc.numNodes(); ++V) {
    if (Inc.idom(V) != Fresh.idom(V) || Inc.idom(V) != LTIdoms[V]) {
      ADD_FAILURE() << Tag << ": idom(" << V << ") repaired="
                    << Inc.idom(V) << " fresh=" << Fresh.idom(V)
                    << " lengauer-tarjan=" << LTIdoms[V];
      return false;
    }
    if (Inc.num(V) != Fresh.num(V) || Inc.maxnum(V) != Fresh.maxnum(V)) {
      ADD_FAILURE() << Tag << ": preorder numbering of node " << V;
      return false;
    }
  }
  return true;
}

/// Runs one CFG-level fuzz campaign; returns the number of executed steps.
unsigned runCFGFuzz(std::uint64_t Seed, bool Reducible, unsigned Steps) {
  RandomEngine Rng(Seed);
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = 40;
  GOpts.GotoEdges = Reducible ? 0 : 3;
  CFG G = generateCFG(GOpts, Rng);

  // The incremental rig takes the row-repatch path, the other exercises
  // update()'s in-place full recompute fallback.
  std::vector<std::unique_ptr<Rig>> Rigs;
  Rigs.push_back(std::make_unique<Rig>(G, "repatch", /*Incremental=*/true));
  Rigs.push_back(std::make_unique<Rig>(G, "recompute",
                                       /*Incremental=*/false));

  CFGMutatorOptions MOpts;
  MOpts.PreserveReducibility = Reducible;
  MOpts.MaxNodes = 96;

  std::uint64_t LastVersion = G.version();
  unsigned Executed = 0;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    auto M = mutateCFG(G, Rng, MOpts);
    if (!M)
      continue; // Saturated graph; extremely unlikely at these settings.
    auto Span = G.deltasSince(LastVersion);
    if (!Span.has_value()) {
      ADD_FAILURE() << "mutator must keep the journal intact "
                    << replayTag(Seed, Reducible, Step, *M);
      return Executed;
    }
    LastVersion = G.version();
    for (auto &R : Rigs)
      R->step(G, *Span);
    ++Executed;

    std::string Tag = replayTag(Seed, Reducible, Step, *M);
    DFS FreshD(G);
    DomTree FreshDT(G, FreshD);
    std::vector<unsigned> LTIdoms = computeIdomsLengauerTarjan(G);
    for (auto &R : Rigs)
      if (!compareDomTrees(R->DT, FreshDT, LTIdoms, Tag + " [" + R->Name +
                                                        "]"))
        return Executed;

    std::vector<VarSample> Vars = sampleVariables(G, Rng, 6);
    for (auto &R : Rigs) {
      LiveCheck Fresh(G, FreshD, FreshDT, R->LC.options());
      std::string RTag = Tag + " [" + R->Name + "]";
      if (!compareEngines(R->LC, R->DT, Fresh, FreshDT, Vars, Rng, RTag))
        return Executed;
      // Bit-exact set equality: cheap at this size.
      if (!compareSets(R->LC, Fresh, RTag))
        return Executed;
    }
  }

  // The campaign must actually exercise the incremental plane.
  const auto &ArenaStats = Rigs[0]->LC.updateStats();
  EXPECT_GT(ArenaStats.IncrementalRepatches, Executed / 4)
      << "seed=" << Seed << ": the repatch rig almost never took the "
      << "row-repatch path; the fuzz is not testing what it claims";
  EXPECT_GT(Rigs[0]->DT.updateStats().ScopedRepairs, 0u) << "seed=" << Seed;
  return Executed;
}

std::string describeMutations(const std::vector<Mutation> &Ms) {
  std::string Out;
  for (const Mutation &M : Ms)
    Out += (Out.empty() ? "" : "; ") + describeMutation(M);
  return Out;
}

/// Field-by-field equality of every fresh entry of \p Cache — remapped
/// across the edit or built since — with a from-scratch build over the
/// fresh analyses: DefNum, MaxDom, the use span and the mask words.
/// \p Compared counts the entries checked.
bool compareCacheEntries(const PreparedCache &Cache, const Function &F,
                         const LiveCheck &Fresh, const DomTree &FreshDT,
                         const std::string &Tag, std::uint64_t &Compared) {
  PreparedCache Ref(F, Fresh, FreshDT);
  for (const auto &V : F.values()) {
    if (!Cache.isFresh(*V))
      continue;
    const LiveCheck::PreparedVar &Got = Cache.cached(*V);
    const LiveCheck::PreparedVar &Want = Ref.ensure(*V);
    auto maskOf = [](const LiveCheck::PreparedVar &P) {
      return P.MaskWords ? std::vector<std::uint64_t>(
                               P.MaskWords, P.MaskWords + P.MaskNumWords)
                         : std::vector<std::uint64_t>();
    };
    if (Got.DefNum != Want.DefNum || Got.MaxDom != Want.MaxDom ||
        !std::equal(Got.NumsBegin, Got.NumsEnd, Want.NumsBegin,
                    Want.NumsEnd) ||
        maskOf(Got) != maskOf(Want)) {
      ADD_FAILURE() << Tag << ": prepared entry of %" << V->name()
                    << " differs from a fresh build (DefNum " << Got.DefNum
                    << " vs " << Want.DefNum << ", MaxDom " << Got.MaxDom
                    << " vs " << Want.MaxDom << ")";
      return false;
    }
    ++Compared;
  }
  return true;
}

/// Compares the persistent prepared cache — entries remapped across the
/// edit, or rebuilt lazily where the remap could not carry them — against
/// the fresh engine's block-id entries, bit for bit over every block, for
/// the function's real SSA values. This is the production query path of
/// the refresh plane: a stale span served here is exactly the wrong-answer
/// class the cache's epoch contract forbids.
bool comparePreparedCache(PreparedCache &Cache, const LiveCheck &LC,
                          const Function &F, const LiveCheck &Fresh,
                          const std::string &Tag, unsigned MaxValues = 10) {
  unsigned Checked = 0;
  for (const auto &V : F.values()) {
    if (V->defs().size() != 1 || !V->hasUses())
      continue;
    unsigned Def = defBlockId(*V);
    std::vector<unsigned> Uses = liveUseBlocks(*V);
    const LiveCheck::PreparedVar &P = Cache.ensure(*V);
    for (unsigned Q = 0; Q != F.numBlocks(); ++Q) {
      if (LC.isLiveInPrepared(P, Q) != Fresh.isLiveIn(Def, Q, Uses)) {
        ADD_FAILURE() << Tag << ": cached-prepared live-in mismatch %"
                      << V->name() << " q=" << Q;
        return false;
      }
      if (LC.isLiveOutPrepared(P, Q) != Fresh.isLiveOut(Def, Q, Uses)) {
        ADD_FAILURE() << Tag << ": cached-prepared live-out mismatch %"
                      << V->name() << " q=" << Q;
        return false;
      }
    }
    if (++Checked == MaxValues)
      break;
  }
  return true;
}

/// IR-level campaign: AnalysisManager::refresh against fresh rebuilds.
unsigned runFunctionFuzz(std::uint64_t Seed, unsigned Steps) {
  auto F = randomSSAFunction(Seed, {/*TargetBlocks=*/28});
  if (::testing::Test::HasFailure())
    return 0;
  AnalysisManager AM;
  FunctionAnalyses &FA0 = AM.get(*F);
  (void)FA0.liveCheck(); // Materialize the cached stack.
  // The prepared cache lives across the whole edit campaign, like a
  // long-lived session's, and is synced after every refresh: each step's
  // entries are remapped onto the repaired numbering (or left stale and
  // rebuilt), never served under the old one.
  PreparedCache Cache(*F, FA0.liveCheck(), FA0.domTree());

  RandomEngine Rng(Seed * 977 + 5);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 72;
  unsigned Executed = 0;
  std::uint64_t EntriesCompared = 0;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    // Every third step is a 4-edit frame: one refresh and one remap then
    // span several CFG epochs.
    std::vector<Mutation> Ms;
    for (unsigned K = 0, E = Step % 3 == 2 ? 4 : 1; K != E; ++K)
      if (auto M = mutateFunctionCFG(*F, Rng, MOpts))
        Ms.push_back(*M);
    if (Ms.empty())
      continue;
    FunctionAnalyses &FA = AM.refresh(*F);
    EXPECT_EQ(FA.epoch(), F->cfgVersion());
    const LiveCheck &LC = FA.liveCheck();
    const DomTree &DT = FA.domTree();
    Cache.rebind(LC, DT); // No-op while refresh repairs in place.
    Cache.syncNumbering();
    ++Executed;

    std::ostringstream OS;
    OS << "function-fuzz replay: seed=" << Seed << " step=" << Step
       << " mutations={" << describeMutations(Ms) << "}";
    std::string Tag = OS.str();

    CFG FreshG = CFG::fromFunction(*F);
    DFS FreshD(FreshG);
    DomTree FreshDT(FreshG, FreshD);
    std::vector<unsigned> LTIdoms = computeIdomsLengauerTarjan(FreshG);
    if (!compareDomTrees(DT, FreshDT, LTIdoms, Tag))
      return Executed;
    LiveCheck Fresh(FreshG, FreshD, FreshDT);
    if (!compareCacheEntries(Cache, *F, Fresh, FreshDT, Tag,
                             EntriesCompared))
      return Executed;

    // Real SSA variables: every function value with a definition, queried
    // through its Definition-1 use blocks.
    std::vector<VarSample> Vars;
    for (const auto &V : F->values()) {
      if (V->defs().size() != 1)
        continue;
      VarSample S;
      S.Def = defBlockId(*V);
      S.Uses = liveUseBlocks(*V);
      if (!S.Uses.empty())
        Vars.push_back(std::move(S));
      if (Vars.size() == 10)
        break;
    }
    if (!compareEngines(LC, DT, Fresh, FreshDT, Vars, Rng, Tag))
      return Executed;
    if (!compareSets(LC, Fresh, Tag))
      return Executed;
    if (!comparePreparedCache(Cache, LC, *F, Fresh, Tag))
      return Executed;
    // Fill the whole cache, so the next step remaps every queryable value.
    for (const auto &V : F->values())
      if (V->defs().size() == 1 && V->hasUses())
        Cache.ensure(*V);
  }

  // The refresh path, not the invalidation path, must have served the
  // campaign: the journal covered every step.
  EXPECT_EQ(AM.counters().Invalidations, 0u) << "seed=" << Seed;
  EXPECT_EQ(AM.counters().Refreshes, Executed) << "seed=" << Seed;
  // Every step moved the previous step's entries to a new epoch: the
  // campaign must have exercised both the remap and the rebuild fallback
  // (def-use edits of φ operands, mask word counts crossing 64 blocks).
  EXPECT_GT(Cache.stats().Remaps, 0u) << "seed=" << Seed;
  EXPECT_GT(Cache.stats().EpochDrops, 0u) << "seed=" << Seed;
  EXPECT_GT(EntriesCompared, 0u) << "seed=" << Seed;
  return Executed;
}

/// Server-routed campaign: the same differential discipline as
/// runFunctionFuzz, but every CFG edit travels through the session plane's
/// EditCFG command (the liveness server's wire dispatch) instead of a
/// direct AnalysisManager::refresh call. The session consumes the edit via
/// refresh internally; its repaired DomTree/LiveCheck must then be
/// bit-identical to fresh rebuilds of its own function copy — the same
/// bit-equality checks, one subsystem layer higher.
unsigned runServerRoutedFuzz(std::uint64_t Seed, unsigned Steps) {
  // The local mirror and the session parse the same printed text, so both
  // start from identical ids and CFG epochs.
  auto F0 = randomSSAFunction(Seed, {/*TargetBlocks=*/28});
  if (::testing::Test::HasFailure())
    return 0;
  std::string Text = printFunction(*F0);
  ModuleParseResult Mirror = parseModule(Text);
  if (!Mirror.Error.empty()) {
    ADD_FAILURE() << "mirror parse failed: " << Mirror.Error;
    return 0;
  }
  Function &MF = *Mirror.Funcs[0];

  server::SessionManager Mgr({});
  std::unique_ptr<server::Session> S = Mgr.createSession();
  auto LoadReply = S->handle(protocol::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text));
  if (LoadReply.empty() ||
      LoadReply[0] !=
          static_cast<std::uint8_t>(protocol::Opcode::ModuleLoaded)) {
    ADD_FAILURE() << "session load failed, seed=" << Seed;
    return 0;
  }
  (void)S->driver().analysisManager().get(S->function(0)).liveCheck();

  RandomEngine Rng(Seed * 613 + 29);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 72;
  unsigned Executed = 0;
  std::uint64_t EntriesCompared = 0;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    // Every third frame carries 4 edits, so the session's next query
    // frame remaps its entries across several CFG epochs at once.
    std::vector<protocol::EditItem> Edits;
    std::vector<std::pair<std::uint8_t, std::uint64_t>> Applied;
    std::vector<Mutation> Ms;
    for (unsigned K = 0, E = Step % 3 == 2 ? 4 : 1; K != E; ++K) {
      auto M = mutateFunctionCFG(MF, Rng, MOpts);
      if (!M)
        continue;
      Ms.push_back(*M);
      Edits.push_back(
          {static_cast<std::uint8_t>(M->Kind), 0, M->From, M->To, M->To2});
      Applied.emplace_back(1, MF.cfgVersion());
    }
    if (Edits.empty())
      continue;
    std::vector<std::uint8_t> Reply =
        S->handle(protocol::encodeEditBatch(Edits));
    std::vector<std::uint8_t> Want = protocol::encodeEditApplied(Applied);
    ++Executed;

    std::ostringstream OS;
    OS << "server-routed replay: seed=" << Seed << " step=" << Step
       << " mutations={" << describeMutations(Ms) << "}";
    std::string Tag = OS.str();

    if (Reply != Want) {
      ADD_FAILURE() << Tag << ": edit reply diverged from the mirror";
      return Executed;
    }

    // Bit-equality of the session's repaired analyses against fresh
    // rebuilds of the session's own function copy.
    const Function &SF = S->function(0);
    FunctionAnalyses &FA = S->driver().analysisManager().get(SF);
    EXPECT_EQ(FA.epoch(), SF.cfgVersion());
    const LiveCheck &LC = FA.liveCheck();
    const DomTree &DT = FA.domTree();

    CFG FreshG = CFG::fromFunction(SF);
    DFS FreshD(FreshG);
    DomTree FreshDT(FreshG, FreshD);
    std::vector<unsigned> LTIdoms = computeIdomsLengauerTarjan(FreshG);
    if (!compareDomTrees(DT, FreshDT, LTIdoms, Tag))
      return Executed;
    LiveCheck Fresh(FreshG, FreshD, FreshDT);

    std::vector<VarSample> Vars;
    for (const auto &V : SF.values()) {
      if (V->defs().size() != 1)
        continue;
      VarSample Sample;
      Sample.Def = defBlockId(*V);
      Sample.Uses = liveUseBlocks(*V);
      if (!Sample.Uses.empty())
        Vars.push_back(std::move(Sample));
      if (Vars.size() == 8)
        break;
    }
    if (!compareEngines(LC, DT, Fresh, FreshDT, Vars, Rng, Tag))
      return Executed;
    if (!compareSets(LC, Fresh, Tag))
      return Executed;

    // Drive a query batch through the session's wire dispatch — the
    // session runs the cached prepared plane, whose per-value entries
    // just went stale under this edit — and byte-compare the Answers
    // frame against the fresh engine's block-id entries.
    std::vector<protocol::QueryItem> Items;
    std::vector<std::uint8_t> WantAnswers;
    unsigned Sampled = 0;
    for (const auto &V : SF.values()) {
      if (V->defs().size() != 1 || !V->hasUses())
        continue;
      unsigned Def = defBlockId(*V);
      std::vector<unsigned> Uses = liveUseBlocks(*V);
      for (unsigned Probe = 0; Probe != 6; ++Probe) {
        std::uint32_t Q = Rng.nextBelow(SF.numBlocks());
        bool IsOut = (Probe & 1) != 0;
        Items.push_back({0, V->id(), Q, IsOut});
        WantAnswers.push_back((IsOut ? Fresh.isLiveOut(Def, Q, Uses)
                                     : Fresh.isLiveIn(Def, Q, Uses))
                                  ? 1
                                  : 0);
      }
      if (++Sampled == 4)
        break;
    }
    if (!Items.empty()) {
      std::vector<std::uint8_t> QReply =
          S->handle(protocol::encodeQueryBatch(Items));
      if (QReply != protocol::encodeAnswers(WantAnswers)) {
        ADD_FAILURE() << Tag << ": cached-prepared session answers diverge "
                      << "from fresh block-id entries";
        return Executed;
      }
    }
    // The query frame synced the session's cache: every fresh entry must
    // equal a from-scratch build.
    if (const PreparedCache *SC = S->driver().preparedCache(0))
      if (!compareCacheEntries(*SC, SF, Fresh, FreshDT, Tag,
                               EntriesCompared))
        return Executed;
  }

  // Every edit must have ridden the journaled refresh plane, never the
  // throw-away invalidation path.
  AnalysisManager::CacheCounters C = S->driver().analysisManager().counters();
  EXPECT_EQ(C.Invalidations, 0u) << "seed=" << Seed;
  EXPECT_EQ(C.Refreshes, Executed) << "seed=" << Seed;
  // The session's prepared cache must have both built entries and carried
  // them across the edit stream.
  const PreparedCache *SC = S->driver().preparedCache(0);
  if (!SC) {
    ADD_FAILURE() << "seed=" << Seed
                  << ": session never built a prepared cache";
    return Executed;
  }
  EXPECT_GT(SC->stats().Builds, 0u) << "seed=" << Seed;
  EXPECT_GT(SC->stats().Remaps, 0u) << "seed=" << Seed;
  EXPECT_GT(EntriesCompared, 0u) << "seed=" << Seed;
  return Executed;
}

} // namespace

//===----------------------------------------------------------------------===//
// The campaigns. Together they execute >= 10000 mutation steps.
//===----------------------------------------------------------------------===//

// The three campaigns together execute >= 10000 mutation steps (the
// per-test floors sum past 10k; mutateCFG virtually never exhausts its
// retry budget at these settings).
TEST(IncrementalFuzz, ReducibleCampaigns) {
  unsigned Total = 0;
  for (std::uint64_t Seed : {11, 12, 13, 14, 15, 16})
    Total += runCFGFuzz(Seed, /*Reducible=*/true, 750);
  RecordProperty("steps", static_cast<int>(Total));
  EXPECT_GE(Total, 4200u);
}

TEST(IncrementalFuzz, GeneralCampaigns) {
  unsigned Total = 0;
  for (std::uint64_t Seed : {21, 22, 23, 24, 25, 26})
    Total += runCFGFuzz(Seed, /*Reducible=*/false, 750);
  RecordProperty("steps", static_cast<int>(Total));
  EXPECT_GE(Total, 4200u);
}

TEST(IncrementalFuzz, AnalysisManagerRefreshCampaigns) {
  unsigned Total = 0;
  for (std::uint64_t Seed : {31, 32, 33, 34})
    Total += runFunctionFuzz(Seed, 500);
  RecordProperty("steps", static_cast<int>(Total));
  EXPECT_GE(Total, 1800u);
}

TEST(IncrementalFuzz, ServerRoutedRefreshCampaigns) {
  // CFG edits through the liveness server's session plane must hit the
  // same bit-equality bar as direct refresh calls.
  unsigned Total = 0;
  for (std::uint64_t Seed : {41, 42, 43})
    Total += runServerRoutedFuzz(Seed, 300);
  RecordProperty("steps", static_cast<int>(Total));
  EXPECT_GE(Total, 800u);
}

//===----------------------------------------------------------------------===//
// Directed cases around the journal/refresh contract.
//===----------------------------------------------------------------------===//

TEST(IncrementalFuzz, StaleMaxnumRegression) {
  // Review-found wrong-answer bug: a retarget can reparent a node so a
  // dominance subtree shrinks while the preorder *sequence* stays
  // byte-identical; the update used to skip the MaxNumByNum refresh in
  // that case, and the stale bound made the subtree skip jump over a
  // real target (isLiveOut(def=0, q=3) answered false, fresh said true).
  // Exhaustive (def, q) comparison over the exact graph and edit.
  CFG G = makeCFG(8, {{0, 1},
                      {0, 3},
                      {1, 2},
                      {1, 6},
                      {2, 3},
                      {3, 4},
                      {4, 5},
                      {4, 3},
                      {4, 7},
                      {5, 4},
                      {5, 6},
                      {6, 7},
                      {6, 4},
                      {7, 7}});
  LiveCheckOptions Opts;
  Opts.Incremental = true;
  DFS D(G);
  DomTree DT(G, D);
  LiveCheck LC(G, D, DT, Opts);

  std::uint64_t V0 = G.version();
  G.removeEdge(2, 3);
  G.addEdge(2, 1);
  auto Span = G.deltasSince(V0);
  ASSERT_TRUE(Span.has_value());
  D.applyUpdates(Span->first, Span->second);
  DT.applyUpdates(G, D, Span->first, Span->second);
  LC.update(Span->first, Span->second);

  DFS FD(G);
  DomTree FDT(G, FD);
  LiveCheck Fresh(G, FD, FDT, Opts);
  std::vector<unsigned> AllBlocks;
  for (unsigned B = 0; B != G.numNodes(); ++B)
    AllBlocks.push_back(B);
  for (unsigned Def = 0; Def != G.numNodes(); ++Def)
    for (unsigned Q = 0; Q != G.numNodes(); ++Q) {
      EXPECT_EQ(LC.isLiveIn(Def, Q, AllBlocks),
                Fresh.isLiveIn(Def, Q, AllBlocks))
          << "def=" << Def << " q=" << Q;
      EXPECT_EQ(LC.isLiveOut(Def, Q, AllBlocks),
                Fresh.isLiveOut(Def, Q, AllBlocks))
          << "def=" << Def << " q=" << Q;
    }
  for (unsigned Num = 0; Num != G.numNodes(); ++Num)
    EXPECT_EQ(LC.cachedMaxNum(Num), Fresh.cachedMaxNum(Num)) << Num;
}

TEST(IncrementalFuzz, JournalCoversRecordedEdits) {
  CFG G(4);
  std::uint64_t V0 = G.version();
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.removeEdge(1, 2);
  auto Span = G.deltasSince(V0);
  ASSERT_TRUE(Span.has_value());
  ASSERT_EQ(Span->second - Span->first, 3);
  EXPECT_TRUE(Span->first[0] == CFGDelta::edgeInsert(0, 1));
  EXPECT_TRUE(Span->first[1] == CFGDelta::edgeInsert(1, 2));
  EXPECT_TRUE(Span->first[2] == CFGDelta::edgeRemove(1, 2));
  // A bare bump poisons: the old epoch is no longer covered.
  G.bumpVersion();
  EXPECT_FALSE(G.deltasSince(V0).has_value());
  // But the post-poison epoch is.
  std::uint64_t V1 = G.version();
  G.addEdge(1, 3);
  ASSERT_TRUE(G.deltasSince(V1).has_value());
}

TEST(IncrementalFuzz, RefreshFallsBackOnPoisonedJournal) {
  auto F = randomSSAFunction(401, {/*TargetBlocks=*/16});
  AnalysisManager AM;
  (void)AM.get(*F).liveCheck();
  F->bumpCFGVersion(); // Structural edit the journal cannot describe.
  (void)AM.refresh(*F).liveCheck();
  EXPECT_EQ(AM.counters().Refreshes, 0u);
  EXPECT_EQ(AM.counters().Invalidations, 1u);
}

TEST(IncrementalFuzz, RefreshIsAHitAtCurrentEpoch) {
  auto F = randomSSAFunction(402, {/*TargetBlocks=*/16});
  AnalysisManager AM;
  (void)AM.get(*F).liveCheck();
  (void)AM.refresh(*F);
  EXPECT_EQ(AM.counters().Hits, 1u);
  EXPECT_EQ(AM.counters().Refreshes, 0u);
}
