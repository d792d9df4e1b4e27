//===- workload/CFGMutator.cpp - Random structural CFG edits --------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/CFGMutator.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "analysis/Reducibility.h"
#include "ir/Function.h"

#include <algorithm>

using namespace ssalive;

namespace {

/// Are all \p N nodes reachable from \p Entry? \p Succs(V, Visit) calls
/// Visit on each successor of V.
template <class SuccFn>
bool allReachable(unsigned N, unsigned Entry, SuccFn Succs) {
  std::vector<bool> Seen(N, false);
  std::vector<unsigned> Work{Entry};
  Seen[Entry] = true;
  unsigned Count = 1;
  auto Visit = [&](unsigned S) {
    if (!Seen[S]) {
      Seen[S] = true;
      ++Count;
      Work.push_back(S);
    }
  };
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    Succs(V, Visit);
  }
  return Count == N;
}

bool allReachable(const CFG &G) {
  return G.numNodes() == 0 ||
         allReachable(G.numNodes(), G.entry(), [&G](unsigned V, auto &Visit) {
           for (unsigned S : G.successors(V))
             Visit(S);
         });
}

bool isReducible(const CFG &G) {
  DFS D(G);
  DomTree DT(G, D);
  return analyzeReducibility(D, DT).Reducible;
}

/// Picks a random existing edge, or nullopt when the graph has none.
std::optional<std::pair<unsigned, unsigned>> pickEdge(const CFG &G,
                                                      RandomEngine &Rng) {
  unsigned E = G.numEdges();
  if (E == 0)
    return std::nullopt;
  unsigned Pick = Rng.nextBelow(E);
  for (unsigned V = 0; V != G.numNodes(); ++V) {
    const auto &S = G.successors(V);
    if (Pick < S.size())
      return std::make_pair(V, S[Pick]);
    Pick -= static_cast<unsigned>(S.size());
  }
  return std::nullopt;
}

/// One proposal round; applies and returns a mutation, or rolls back and
/// returns nullopt. \p DT is the pre-edit dominator tree when the options
/// need one (reducibility bias, locality window), else null.
std::optional<Mutation> proposeOnce(CFG &G, RandomEngine &Rng,
                                    const CFGMutatorOptions &Opts,
                                    const DomTree *DT) {
  unsigned N = G.numNodes();
  if (N < 2)
    return std::nullopt;
  unsigned Roll = Rng.nextBelow(100);
  unsigned AddCut = Opts.AddEdgePercent;
  unsigned RemoveCut = AddCut + Opts.RemoveEdgePercent;
  unsigned RetargetCut = RemoveCut + Opts.RetargetPercent;

  // Structural proximity sampling (see LocalityWindow): the candidate is
  // drawn from the dominance subtree of an ancestor a few idom steps
  // above the edit site — the enclosing construct a transform pass
  // actually rewires within — capped to LocalityWindow preorder distance.
  auto pickNear = [&](unsigned Site) {
    if (!DT || Opts.LocalityWindow == 0)
      return Rng.nextBelow(N);
    unsigned Hoist = 1 + Rng.nextBelow(3);
    unsigned A = Site;
    for (unsigned H = 0; H != Hoist && DT->idom(A) != A; ++H)
      A = DT->idom(A);
    unsigned Lo = DT->num(A);
    unsigned Hi = DT->maxnum(A);
    unsigned W = Opts.LocalityWindow;
    unsigned SiteNum = DT->num(Site);
    if (SiteNum > W && Lo < SiteNum - W)
      Lo = SiteNum - W;
    if (Hi > SiteNum + W)
      Hi = SiteNum + W;
    return DT->nodeAtNum(Rng.nextInRange(Lo, Hi));
  };

  if (Roll < AddCut) {
    unsigned From = Rng.nextBelow(N);
    unsigned To;
    if (DT && Opts.PreserveReducibility && Rng.chancePercent(50)) {
      // Back edge to a dominator: provably keeps the dominator tree and
      // every existing DFS edge classification intact, hence reducibility
      // (the new edge's target dominates its source by construction).
      std::vector<unsigned> Doms;
      for (unsigned V = From;; V = DT->idom(V)) {
        Doms.push_back(V);
        if (DT->idom(V) == V)
          break;
      }
      To = Doms[Rng.nextBelow(static_cast<unsigned>(Doms.size()))];
    } else {
      To = pickNear(From);
    }
    if (G.hasEdge(From, To))
      return std::nullopt;
    G.addEdge(From, To); // Reachability can only improve.
    if (Opts.PreserveReducibility && !isReducible(G)) {
      G.removeEdge(From, To);
      return std::nullopt;
    }
    return Mutation{MutationKind::AddEdge, From, To, 0};
  }

  if (Roll < RemoveCut) {
    auto E = pickEdge(G, Rng);
    if (!E)
      return std::nullopt;
    auto [From, To] = *E;
    G.removeEdge(From, To);
    // Removal cannot break reducibility (cycles only disappear and
    // dominance only grows), but it can orphan nodes.
    if (!allReachable(G)) {
      G.addEdge(From, To);
      return std::nullopt;
    }
    return Mutation{MutationKind::RemoveEdge, From, To, 0};
  }

  if (Roll < RetargetCut) {
    auto E = pickEdge(G, Rng);
    if (!E)
      return std::nullopt;
    auto [From, To] = *E;
    unsigned To2 = pickNear(To);
    if (To2 == To || G.hasEdge(From, To2))
      return std::nullopt;
    G.removeEdge(From, To);
    G.addEdge(From, To2);
    if (!allReachable(G) ||
        (Opts.PreserveReducibility && !isReducible(G))) {
      G.removeEdge(From, To2);
      G.addEdge(From, To);
      return std::nullopt;
    }
    return Mutation{MutationKind::RetargetBranch, From, To, To2};
  }

  // SplitBlock: a new node takes over From's out-edges.
  if (N >= Opts.MaxNodes)
    return std::nullopt;
  unsigned From = Rng.nextBelow(N);
  if (G.successors(From).empty())
    return std::nullopt;
  unsigned NewNode = N;
  G.resize(N + 1);
  std::vector<unsigned> Moved = G.successors(From);
  for (unsigned S : Moved)
    G.removeEdge(From, S);
  for (unsigned S : Moved)
    G.addEdge(NewNode, S);
  G.addEdge(From, NewNode);
  // Splitting subdivides paths, so reachability and reducibility both
  // survive: every path only gains the new node, dominance among old
  // nodes is untouched, and a cycle's header dominates the inserted node
  // because it dominates the split node.
  return Mutation{MutationKind::SplitBlock, From, NewNode, 0};
}

} // namespace

std::optional<Mutation> ssalive::mutateCFG(CFG &G, RandomEngine &Rng,
                                           const CFGMutatorOptions &Opts) {
  // One pre-edit dominator tree serves every proposal: failed proposals
  // roll the graph back, so the tree stays valid until a success returns.
  std::unique_ptr<DFS> D;
  std::unique_ptr<DomTree> DT;
  if (Opts.PreserveReducibility || Opts.LocalityWindow != 0) {
    D = std::make_unique<DFS>(G);
    DT = std::make_unique<DomTree>(G, *D);
  }
  for (unsigned Try = 0; Try != 48; ++Try)
    if (auto M = proposeOnce(G, Rng, Opts, DT.get()))
      return M;
  return std::nullopt;
}

bool ssalive::applyFunctionMutation(Function &F, const Mutation &M) {
  unsigned N = F.numBlocks();
  auto hasBlockEdge = [&F](unsigned From, unsigned To) {
    for (const BasicBlock *S : F.block(From)->successors())
      if (S->id() == To)
        return true;
    return false;
  };
  // Validate before touching anything: a rejected mutation must leave the
  // function (and its journal) byte-identical, or a server session fed a
  // garbage edit would drift from the client that mirrors the rejection.
  switch (M.Kind) {
  case MutationKind::AddEdge:
    if (M.From >= N || M.To >= N || hasBlockEdge(M.From, M.To))
      return false;
    break;
  case MutationKind::RemoveEdge:
    if (M.From >= N || M.To >= N || !hasBlockEdge(M.From, M.To))
      return false;
    break;
  case MutationKind::RetargetBranch:
    if (M.From >= N || M.To >= N || M.To2 >= N ||
        !hasBlockEdge(M.From, M.To) || M.To == M.To2 ||
        hasBlockEdge(M.From, M.To2))
      return false;
    break;
  case MutationKind::SplitBlock:
    if (M.From >= N || M.To != N || F.block(M.From)->successors().empty())
      return false;
    break;
  }
  // Edge removals can orphan nodes, and every analysis assumes all nodes
  // reachable; walk the function's own successor lists as if the edit were
  // applied (a scratch CFG copy would cost far more than the walk). AddEdge
  // and SplitBlock cannot hurt reachability.
  if (M.Kind == MutationKind::RemoveEdge ||
      M.Kind == MutationKind::RetargetBranch) {
    bool Retarget = M.Kind == MutationKind::RetargetBranch;
    auto EditedSuccs = [&](unsigned V, auto &Visit) {
      for (const BasicBlock *S : F.block(V)->successors())
        if (V != M.From || S->id() != M.To)
          Visit(S->id());
      if (V == M.From && Retarget)
        Visit(M.To2);
    };
    if (!allReachable(N, F.entry()->id(), EditedSuccs))
      return false;
  }

  // A new predecessor edge into a block with φs must extend every φ's
  // operand list (they index predecessors positionally, and
  // removeSuccessor relies on the parity). The duplicated first operand
  // is as good a value as any: the analyses only read use *blocks*.
  auto addEdgeWithPhiParity = [&F](unsigned From, unsigned To) {
    F.block(From)->addSuccessor(F.block(To));
    for (Instruction *Phi : F.block(To)->phis()) {
      // Duplicate an existing incoming value; a φ drained to zero
      // operands (its block is mid-rewiring) falls back to itself.
      Phi->addOperand(Phi->operands().empty() ? Phi->result()
                                              : Phi->operands().front());
      Phi->addIncomingBlock(F.block(From));
    }
  };
  switch (M.Kind) {
  case MutationKind::AddEdge:
    addEdgeWithPhiParity(M.From, M.To);
    break;
  case MutationKind::RemoveEdge:
    F.block(M.From)->removeSuccessor(F.block(M.To));
    break;
  case MutationKind::RetargetBranch:
    F.block(M.From)->removeSuccessor(F.block(M.To));
    addEdgeWithPhiParity(M.From, M.To2);
    break;
  case MutationKind::SplitBlock: {
    BasicBlock *B = F.block(M.From);
    BasicBlock *NewB = F.createBlock();
    assert(NewB->id() == M.To && "validated id must match createBlock");
    std::vector<BasicBlock *> Moved = B->successors();
    for (BasicBlock *S : Moved)
      B->removeSuccessor(S);
    for (BasicBlock *S : Moved)
      addEdgeWithPhiParity(NewB->id(), S->id());
    B->addSuccessor(NewB);
    break;
  }
  }
  return true;
}

std::optional<Mutation>
ssalive::mutateFunctionCFG(Function &F, RandomEngine &Rng,
                           const CFGMutatorOptions &Opts) {
  // Decide on a scratch copy (absorbing all rejected candidates), then
  // replay the single accepted edit against the function so its delta
  // journal records exactly the clean batch.
  CFG Scratch = CFG::fromFunction(F);
  auto M = mutateCFG(Scratch, Rng, Opts);
  if (!M)
    return std::nullopt;
  bool Applied = applyFunctionMutation(F, *M);
  assert(Applied && "a mutation accepted on the scratch graph must apply");
  (void)Applied;
  return M;
}
