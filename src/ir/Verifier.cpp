//===- ir/Verifier.cpp - IR structural and SSA invariants -----------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "ir/CFG.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>

using namespace ssalive;

std::string VerifyResult::message() const {
  std::string Out;
  for (const std::string &E : Errors) {
    if (!Out.empty())
      Out += "\n";
    Out += E;
  }
  return Out;
}

static void addError(VerifyResult &R, std::string Msg) {
  R.Errors.push_back(std::move(Msg));
}

/// Marks all nodes reachable from the entry of \p G.
static BitVector reachableNodes(const CFG &G) {
  BitVector Seen(G.numNodes());
  if (G.numNodes() == 0)
    return Seen;
  std::vector<unsigned> Stack{G.entry()};
  Seen.set(G.entry());
  while (!Stack.empty()) {
    unsigned V = Stack.back();
    Stack.pop_back();
    for (unsigned S : G.successors(V))
      if (!Seen.test(S)) {
        Seen.set(S);
        Stack.push_back(S);
      }
  }
  return Seen;
}

/// verifyStructure() over \p G, the CFG of \p F (built by the caller so
/// verifySSA can reuse it for dominance).
static VerifyResult checkStructure(const Function &F, const CFG &G) {
  VerifyResult R;
  if (F.numBlocks() == 0) {
    addError(R, "function has no blocks");
    return R;
  }
  if (!F.entry()->predecessors().empty())
    addError(R, "entry block has predecessors");

  for (const auto &B : F.blocks()) {
    // Mirrored edges.
    for (const BasicBlock *S : B->successors()) {
      const auto &P = S->predecessors();
      if (std::find(P.begin(), P.end(), B.get()) == P.end())
        addError(R, "edge " + B->name() + "->" + S->name() +
                        " missing from predecessor list");
    }

    // Terminator discipline.
    const Instruction *Term = B->terminator();
    if (!Term) {
      addError(R, "block " + B->name() + " lacks a terminator");
      continue;
    }
    unsigned WantSuccs = 0;
    switch (Term->opcode()) {
    case Opcode::Jump:
      WantSuccs = 1;
      break;
    case Opcode::Branch:
      WantSuccs = 2;
      break;
    case Opcode::Ret:
      WantSuccs = 0;
      break;
    default:
      addError(R, "block " + B->name() + " has invalid terminator");
      break;
    }
    if (B->numSuccessors() != WantSuccs)
      addError(R, "block " + B->name() + " successor count " +
                      std::to_string(B->numSuccessors()) +
                      " does not match terminator");

    // Phi discipline: prefix position, arity, incoming order == pred order.
    bool PastPhis = false;
    for (const auto &I : B->instructions()) {
      if (!I->isPhi()) {
        PastPhis = true;
        continue;
      }
      if (PastPhis)
        addError(R, "phi after non-phi in block " + B->name());
      if (I->numOperands() != B->numPredecessors()) {
        addError(R, "phi in " + B->name() + " has " +
                        std::to_string(I->numOperands()) + " operands for " +
                        std::to_string(B->numPredecessors()) +
                        " predecessors");
        continue;
      }
      for (unsigned Idx = 0, E = I->numOperands(); Idx != E; ++Idx)
        if (I->incomingBlock(Idx) != B->predecessors()[Idx])
          addError(R, "phi in " + B->name() + " incoming block " +
                          std::to_string(Idx) +
                          " does not match predecessor order");
      if (!I->result())
        addError(R, "phi without result in block " + B->name());
    }

    // Non-terminator instructions must not be terminators mid-block; the
    // append() assertion enforces this at construction, re-checked here for
    // parsed/transformed IR.
    for (const auto &I : B->instructions())
      if (I->isTerminator() && I.get() != Term)
        addError(R, "terminator in the middle of block " + B->name());
  }

  // Reachability: the analyses assume every node is reachable from r.
  BitVector Reach = reachableNodes(G);
  for (const auto &B : F.blocks())
    if (!Reach.test(B->id()))
      addError(R, "block " + B->name() + " unreachable from entry");
  return R;
}

VerifyResult ssalive::verifyStructure(const Function &F) {
  return checkStructure(F, CFG::fromFunction(F));
}

std::vector<std::vector<unsigned>>
ssalive::computeDominatorsNaive(const CFG &G) {
  unsigned N = G.numNodes();
  std::vector<BitVector> Dom(N);
  for (unsigned V = 0; V != N; ++V) {
    Dom[V].resize(N);
    if (V == G.entry()) {
      Dom[V].set(V);
    } else {
      // Start from "dominated by everything" and intersect downwards.
      for (unsigned I = 0; I != N; ++I)
        Dom[V].set(I);
    }
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned V = 0; V != N; ++V) {
      if (V == G.entry())
        continue;
      BitVector New(N);
      bool First = true;
      for (unsigned P : G.predecessors(V)) {
        if (First) {
          New = Dom[P];
          First = false;
        } else {
          New &= Dom[P];
        }
      }
      New.set(V);
      if (New != Dom[V]) {
        Dom[V] = New;
        Changed = true;
      }
    }
  }
  std::vector<std::vector<unsigned>> Result(N);
  for (unsigned V = 0; V != N; ++V)
    for (unsigned D = Dom[V].findFirstSet(); D != BitVector::npos;
         D = Dom[V].findNextSet(D + 1))
      Result[V].push_back(D);
  return Result;
}

VerifyResult ssalive::verifySSA(const Function &F) {
  CFG G = CFG::fromFunction(F);
  VerifyResult R = checkStructure(F, G);
  if (!R.ok())
    return R;

  // Every block is reachable, so the production dominator tree applies:
  // dominance is the O(1) num/maxnum interval test.
  DFS D(G);
  DomTree DT(G, D);

  // Position of each instruction within its block, for intra-block order,
  // filled in one pass per block. The definition of a single-def value sits
  // at DefPos of that value; terminators end their block (verifyStructure
  // checked this). The rest — result-less non-terminators and definitions of
  // multiply-defined values, which strict SSA input does not contain — go
  // to a side table.
  // The same pass numbers the operand slots in block and instruction order:
  // the Idx-th instruction of block B owns the slots from
  // FirstSlot[FirstInstr[B] + Idx] on, one per operand.
  std::vector<unsigned> DefPos(F.numValues());
  std::unordered_map<const Instruction *, unsigned> OtherPos;
  std::vector<std::size_t> FirstInstr(F.numBlocks());
  std::vector<std::size_t> FirstSlot;
  std::size_t NumSlots = 0;
  auto hasOwnDefPos = [](const Instruction *I) {
    return I->result() && I->result()->hasSingleDef();
  };
  for (const auto &B : F.blocks()) {
    const auto &List = B->instructions();
    FirstInstr[B->id()] = FirstSlot.size();
    for (unsigned Idx = 0; Idx != List.size(); ++Idx) {
      const Instruction *I = List[Idx].get();
      if (hasOwnDefPos(I))
        DefPos[I->result()->id()] = Idx;
      else if (!I->isTerminator())
        OtherPos.emplace(I, Idx);
      FirstSlot.push_back(NumSlots);
      NumSlots += I->numOperands();
    }
  }
  auto position = [&](const Instruction *I) {
    if (hasOwnDefPos(I))
      return DefPos[I->result()->id()];
    if (I->isTerminator())
      return static_cast<unsigned>(I->parent()->instructions().size() - 1);
    return OtherPos.at(I);
  };

  // Use lists: every record must name an operand slot, of an instruction
  // of F, that holds the value, and every slot needs exactly one record.
  // The liveness engines and the dominance checks below walk these lists,
  // so a corrupt one ends verification here. A record is located through
  // the position tables, never trusted: its User may be any instruction.
  auto slotOf = [&](const Value *V,
                    const Use &U) -> std::optional<std::size_t> {
    const Instruction *I = U.User;
    const BasicBlock *P = I ? I->parent() : nullptr;
    if (!P || P->id() >= F.numBlocks() || F.block(P->id()) != P)
      return std::nullopt;
    const auto &List = P->instructions();
    std::size_t Pos = List.size() - 1; // A terminator ends its block.
    if (hasOwnDefPos(I) && I->result()->id() < DefPos.size()) {
      Pos = DefPos[I->result()->id()];
    } else if (!I->isTerminator()) {
      auto It = OtherPos.find(I);
      if (It == OtherPos.end())
        return std::nullopt;
      Pos = It->second;
    }
    if (Pos >= List.size() || List[Pos].get() != I ||
        U.OperandIndex >= I->numOperands() || I->operand(U.OperandIndex) != V)
      return std::nullopt;
    return FirstSlot[FirstInstr[P->id()] + Pos] + U.OperandIndex;
  };
  std::vector<std::uint8_t> Recorded(NumSlots);
  for (const auto &VP : F.values())
    for (const Use &U : VP->uses()) {
      std::optional<std::size_t> Slot = slotOf(VP.get(), U);
      if (!Slot)
        addError(R, "use list of %" + VP->name() +
                        " names an operand that does not hold it");
      else if (Recorded[*Slot])
        addError(R, "use list of %" + VP->name() + " records an operand twice");
      else
        Recorded[*Slot] = 1;
    }
  for (const auto &B : F.blocks()) {
    const auto &List = B->instructions();
    for (unsigned Idx = 0; Idx != List.size(); ++Idx) {
      const Instruction *I = List[Idx].get();
      std::size_t Slot = FirstSlot[FirstInstr[B->id()] + Idx];
      for (unsigned Op = 0; Op != I->numOperands(); ++Op)
        if (!Recorded[Slot + Op])
          addError(R, "operand " + std::to_string(Op) + " of " +
                          opcodeName(I->opcode()) + " in block " + B->name() +
                          " missing from the use list of %" +
                          I->operand(Op)->name());
    }
  }
  if (!R.ok())
    return R;

  for (const auto &VP : F.values()) {
    const Value *V = VP.get();
    if (V->defs().empty()) {
      if (V->hasUses())
        addError(R, "value %" + V->name() + " used but never defined");
      continue;
    }
    if (V->defs().size() > 1) {
      addError(R, "value %" + V->name() + " has multiple definitions");
      continue;
    }
    const Instruction *Def = V->defs().front();
    unsigned DefBlock = Def->parent()->id();

    for (const Use &U : V->uses()) {
      const Instruction *User = U.User;
      // Definition 1: a φ's i-th operand is used at the i-th predecessor.
      if (User->isPhi()) {
        unsigned UseBlock = User->incomingBlock(U.OperandIndex)->id();
        if (!DT.dominates(DefBlock, UseBlock))
          addError(R, "phi use of %" + V->name() + " from block " +
                          User->incomingBlock(U.OperandIndex)->name() +
                          " not dominated by definition");
        continue;
      }
      unsigned UseBlock = User->parent()->id();
      if (UseBlock == DefBlock) {
        if (DefPos[V->id()] >= position(User))
          addError(R, "use of %" + V->name() + " before its definition in " +
                          User->parent()->name());
        continue;
      }
      if (!DT.dominates(DefBlock, UseBlock))
        addError(R, "use of %" + V->name() + " in block " +
                        User->parent()->name() +
                        " not dominated by definition");
    }
  }
  return R;
}
