//===- core/LiveCheck.cpp - Fast SSA liveness checking --------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Soundness note on the propagated T sets (referenced from LiveCheck.h):
//
// Definition 5 builds T_q from chains q -> t1 -> t2 -> ... where each link
// t_{i+1} ∈ T↑_{t_i} requires (a) a back edge (s,t_{i+1}) with s reduced
// reachable from t_i and (b) the filter t_{i+1} ∉ R_{t_i}. The practical
// Section-5.2 computation applies (b) inside the per-target sets (Equation
// 1) but not at the first link out of q: propagating back-edge-source
// unions through the reduced graph adds T_{t1} for every back edge whose
// source is reduced reachable from q, even if t1 ∈ R_q. The paper's
// soundness proof needs the filter only in its induction step "the part
// t_{i-1},...,s_i"; the base link out of q is covered by the algorithm's
// precondition that def(a) strictly dominates q (checked before the scan),
// exactly as the proof covers it "by thinking of the node q as t_0". Hence
// the propagated supersets answer every query identically; the tests verify
// this equivalence exhaustively on random CFGs. There is no Theorem-2
// single-test fast path: the supersets break Lemma 3 (elements of T_q need
// not be totally ordered by dominance), and exact Definition-5 sets cost
// about twice the precompute with no measured gain per query.
//
// Implementation note on the arenas: R and T are computed and stored in
// BitMatrix arenas, so the recurrences are linear sweeps over contiguous
// memory.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "support/Debug.h"
#include "support/Pool.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>
#include <iterator>

using namespace ssalive;

namespace {

/// Pre-numbered use span: dominance preorder numbers, probed directly
/// against R rows. Order is irrelevant and duplicates merely cost a
/// redundant probe, so callers only sort/dedup when a span is reused often
/// enough to pay for it.
struct NumUses {
  const unsigned *Begin, *End;
  const std::uint8_t *BackTarget;

  bool test(const std::uint64_t *R, unsigned TNum, unsigned QNum,
            bool ExcludeTrivialQ, LiveCheckStats *Sink) const {
    // Algorithm 2 line 8: with t = q, a use in q itself only certifies a
    // non-trivial path if q is a back-edge target. Decided once, outside
    // the probe loop.
    bool SkipQUse =
        ExcludeTrivialQ && TNum == QNum && !BackTarget[QNum];
    for (const unsigned *U = Begin; U != End; ++U) {
      unsigned UNum = *U;
      if (SkipQUse && UNum == QNum)
        continue;
      if (Sink)
        ++Sink->UseTests;
      if (BitMatrix::testBit(R, UNum))
        return true;
    }
    return false;
  }
};

/// Use bitset over preorder numbers: the per-target test is one word-level
/// `R_t ∩ UseMask != ∅` sweep; the trivial-path exclusion becomes a masked
/// bit in that sweep.
struct MaskUses {
  const std::uint64_t *MaskW;
  unsigned MaskNumWords;
  const std::uint8_t *BackTarget;

  bool test(const std::uint64_t *R, unsigned TNum, unsigned QNum,
            bool ExcludeTrivialQ, LiveCheckStats *Sink) const {
    if (Sink)
      ++Sink->UseTests;
    unsigned ExcludeBit = (ExcludeTrivialQ && TNum == QNum &&
                           !BackTarget[QNum])
                              ? QNum
                              : BitMatrix::npos;
    return BitMatrix::wordsAnyCommon(R, MaskW, MaskNumWords, ExcludeBit);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Scan kernels
//===----------------------------------------------------------------------===//

template <class Uses>
bool LiveCheck::scanImpl(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                         Uses U, bool ExcludeTrivialQ,
                         LiveCheckStats *Sink) const {
  // Algorithm 3. The dominance-preorder numbering makes T_q ∩ sdom(def)
  // the set bits of T_q in [DefNum + 1, MaxDom]; scanning from index 0
  // upwards visits "more dominating" targets first, and a failed target's
  // dominance subtree is skipped (Section 5.1 item 2). The row pointer is
  // resolved once and the word scan is clamped to the interval, so a scan
  // never reads past bit MaxDom.
  const std::uint64_t *TRow = TMat.row(QNum);
  unsigned Limit = MaxDom + 1;
  unsigned WordLen = (Limit + BitMatrix::WordBits - 1) / BitMatrix::WordBits;
  unsigned TNum = BitMatrix::wordsFindNextSet(TRow, WordLen, DefNum + 1,
                                              Limit);
  while (TNum != BitMatrix::npos) {
    if (Sink)
      ++Sink->TargetsVisited;
    if (U.test(RMat.row(TNum), TNum, QNum, ExcludeTrivialQ, Sink))
      return true;
    TNum = BitMatrix::wordsFindNextSet(TRow, WordLen, MaxNumByNum[TNum] + 1,
                                       Limit);
  }
  return false;
}

bool LiveCheck::numSpanKernel(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                              const unsigned *Begin, const unsigned *End,
                              bool ExcludeTrivialQ, LiveCheckStats *Sink) const {
  return scanImpl(DefNum, MaxDom, QNum,
                  NumUses{Begin, End, BackTargetByNum.data()},
                  ExcludeTrivialQ, Sink);
}

bool LiveCheck::renumberingKernel(unsigned DefNum, unsigned MaxDom,
                                  unsigned QNum, const unsigned *Begin,
                                  const unsigned *End, bool ExcludeTrivialQ,
                                  LiveCheckStats *Sink) const {
  // Block-id entry: number the span once up front — O(uses) instead of
  // O(targets x uses) — then run the numbered kernel. Small spans (the
  // overwhelming majority, per the paper's Table 1 use distribution) stay
  // on the stack and are not worth sorting: duplicates only cost a
  // redundant bit probe. Large spans get deduplicated so the probe loop
  // shrinks.
  unsigned Stack[64];
  std::vector<unsigned> Heap;
  std::size_t Count = static_cast<std::size_t>(End - Begin);
  unsigned *Buf = Stack;
  if (Count > 64) {
    Heap.resize(Count);
    Buf = Heap.data();
  }
  for (std::size_t I = 0; I != Count; ++I)
    Buf[I] = DT.num(Begin[I]);
  unsigned *NewEnd = Buf + Count;
  if (Count > 8) {
    std::sort(Buf, NewEnd);
    NewEnd = std::unique(Buf, NewEnd);
  }
  return numSpanKernel(DefNum, MaxDom, QNum, Buf, NewEnd, ExcludeTrivialQ,
                       Sink);
}

bool LiveCheck::maskKernel(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                           const std::uint64_t *MaskWords,
                           unsigned MaskNumWords, bool ExcludeTrivialQ,
                           LiveCheckStats *Sink) const {
  return scanImpl(DefNum, MaxDom, QNum,
                  MaskUses{MaskWords, MaskNumWords, BackTargetByNum.data()},
                  ExcludeTrivialQ, Sink);
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

LiveCheck::LiveCheck(const CFG &Graph, const DFS &Dfs, const DomTree &Tree,
                     LiveCheckOptions Options)
    : G(Graph), D(Dfs), DT(Tree), Opts(Options) {
  computeAll();
}

void LiveCheck::computeAll() {
  // The paper's "pay once" side of the amortization profile: count every
  // precompute, time it, and record the resident R/T footprint. All off
  // the query path — queries touch none of this.
  static telemetry::Counter BuildsC("ssalive_livecheck_builds_total");
  static telemetry::Histogram PrecomputeNs("ssalive_livecheck_precompute_ns");
  static telemetry::Counter RTBytes("ssalive_livecheck_rt_bytes_total");
  BuildsC.inc();
  telemetry::ScopedTimerNs Timer(PrecomputeNs);
  SSALIVE_SPAN("livecheck-precompute");

  NumNodes = G.numNodes();
  RMat.resize(NumNodes, NumNodes);
  TMat.resize(NumNodes, NumNodes);
  MaxNumByNum.assign(NumNodes, 0);
  BackTargetByNum.assign(NumNodes, 0);
  for (unsigned V = 0; V != NumNodes; ++V) {
    MaxNumByNum[DT.num(V)] = DT.maxnum(V);
    BackTargetByNum[DT.num(V)] = D.isBackEdgeTarget(V);
  }

  computeR();
  computeT();
  captureSnapshots();

  RTBytes.inc(memoryBytes());
}

void LiveCheck::computeR() {
  // R_v = {v} ∪ ⋃ R_w over non-back successors w (Definition 4). Every
  // non-back edge leads to a node with a smaller DFS postorder number, so a
  // single sweep in increasing postorder sees all reduced successors
  // finished (Section 5.2: "a topological order on the reduced graph ...
  // provided by a reverse postorder numeration created during the DFS").
  // The rows live in one arena, so each union is a linear word sweep.
  for (unsigned V : D.postorderSequence()) {
    unsigned VNum = DT.num(V);
    RMat.set(VNum, VNum);
    for (const unsigned *S = D.reducedBegin(V), *E = D.reducedEnd(V); S != E;
         ++S)
      RMat.unionRows(VNum, DT.num(*S));
  }
}

void LiveCheck::computeTargetSets(std::vector<BitVector> &TargetT) {
  // Exact Definition-5 sets for back-edge targets via Equation 1:
  //   T_t = {t} ∪ ⋃ { T_t' | t' ∈ T↑_t }
  //   T↑_t = { t' ∉ R_t | ∃ back edge (s', t') with s' ∈ R_t }.
  // Theorem 3: every t' ∈ T↑_t has a smaller DFS preorder than t, so
  // processing targets in increasing DFS preorder meets all dependencies.
  //
  // Instead of testing every back edge against every target (the loop
  // runs on each incremental update, not just at construction), the back
  // edges are grouped by source preorder number once and each target
  // iterates only the set bits of R_t ∩ {source numbers} — a word-level
  // sweep that touches exactly the reachable sources.
  //
  // A right-sized \p TargetT is reused row by row (reset, not destroyed):
  // callers on the update path pass persistent scratch, and an all-zero
  // row of a former target is indistinguishable from an absent one to
  // every consumer.
  if (TargetT.size() != NumNodes) {
    TargetT.assign(NumNodes, BitVector());
  } else {
    for (BitVector &Row : TargetT)
      if (!Row.empty())
        Row.reset();
  }
  TargetContrib.resize(NumNodes);
  if (D.backEdges().empty())
    return;
  BackEdgeCSR CSR;
  buildBackEdgeCSR(CSR);
  for (unsigned V : D.preorderSequence()) {
    if (!D.isBackEdgeTarget(V))
      continue;
    recomputeTargetRow(V, CSR, TargetT);
  }
}

void LiveCheck::buildBackEdgeCSR(BackEdgeCSR &CSR) const {
  const auto &BackEdges = D.backEdges();
  CSR.SrcMask.resize(NumNodes);
  CSR.SrcMask.reset();
  CSR.SrcOff.assign(NumNodes + 1, 0);
  for (auto [S, Tgt] : BackEdges) {
    CSR.SrcMask.set(DT.num(S));
    ++CSR.SrcOff[DT.num(S) + 1];
  }
  for (unsigned I = 0; I != NumNodes; ++I)
    CSR.SrcOff[I + 1] += CSR.SrcOff[I];
  CSR.Tgts.resize(BackEdges.size());
  auto FillH = pool::scratchArray();
  std::vector<unsigned> &Fill = *FillH;
  Fill.assign(CSR.SrcOff.begin(), CSR.SrcOff.end() - 1);
  for (auto [S, Tgt] : BackEdges)
    CSR.Tgts[Fill[DT.num(S)]++] = {DT.num(Tgt), Tgt};
}

void LiveCheck::recomputeTargetRow(unsigned V, const BackEdgeCSR &CSR,
                                   std::vector<BitVector> &TargetT) {
  BitVector &T = TargetT[V];
  if (T.empty())
    T.resize(NumNodes);
  else
    T.reset();
  unsigned VNum = DT.num(V);
  T.set(VNum);
  std::vector<unsigned> &Contrib = TargetContrib[V];
  Contrib.clear();
  const BitMatrix::Word *R = RMat.row(VNum);
  const BitMatrix::Word *MaskW = CSR.SrcMask.words();
  for (unsigned WI = 0, WE = CSR.SrcMask.numWordsInUse(); WI != WE; ++WI) {
    BitMatrix::Word Hits = R[WI] & MaskW[WI];
    while (Hits) {
      unsigned SNum = WI * BitMatrix::WordBits +
                      static_cast<unsigned>(std::countr_zero(Hits));
      Hits &= Hits - 1;
      for (unsigned I = CSR.SrcOff[SNum], E = CSR.SrcOff[SNum + 1]; I != E;
           ++I) {
        auto [TgtNum, Tgt] = CSR.Tgts[I];
        if (BitMatrix::testBit(R, TgtNum))
          continue; // Filter: target adds no new reachability.
        assert(!TargetT[Tgt].empty() && "Theorem 3 ordering violated");
        T |= TargetT[Tgt];
        Contrib.push_back(Tgt);
      }
    }
  }
}

void LiveCheck::computeAtSource(const std::vector<BitVector> &TargetT,
                                std::vector<BitVector> &AtSource) const {
  // Union the target sets at each back-edge source ("the set Ts \ {s} for
  // each back edge source s"); rows stay empty (or all-zero, for reused
  // scratch) at non-sources.
  if (AtSource.size() != NumNodes) {
    AtSource.assign(NumNodes, BitVector());
  } else {
    for (BitVector &Row : AtSource)
      if (!Row.empty())
        Row.reset();
  }
  for (auto [S, Tgt] : D.backEdges()) {
    if (AtSource[S].empty())
      AtSource[S].resize(NumNodes);
    AtSource[S] |= TargetT[Tgt];
  }
}

void LiveCheck::propagateT(const std::vector<BitVector> &AtSource) {
  // Propagate the per-source unions through the reduced graph in
  // increasing postorder like R, and finally add v to each T_v.
  //
  // Self bits are added only after the propagation, otherwise unioning a
  // successor's set would drag in the successor itself (and transitively
  // all of R_v), bloating T far beyond Definition 5. The pre-self-bit
  // self-membership ("is v in its own propagated set?") is recorded first:
  // the incremental repatch needs it to reuse a stored row as a
  // successor's propagation contribution.
  for (unsigned V : D.postorderSequence()) {
    unsigned VNum = DT.num(V);
    if (!AtSource[V].empty())
      TMat.orRowWith(VNum, AtSource[V]);
    for (const unsigned *S = D.reducedBegin(V), *E = D.reducedEnd(V); S != E;
         ++S)
      TMat.unionRows(VNum, DT.num(*S));
  }
  SelfInPropNode.resize(NumNodes);
  SelfInPropNode.reset();
  for (unsigned V = 0; V != NumNodes; ++V)
    if (TMat.test(DT.num(V), DT.num(V)))
      SelfInPropNode.set(V);
  for (unsigned Num = 0; Num != NumNodes; ++Num)
    TMat.set(Num, Num);
}

void LiveCheck::computeT() {
  // The target sets and source unions go into the retained members: the
  // incremental update dirty-tracks against exactly this state.
  computeTargetSets(UpdTargetT);
  computeAtSource(UpdTargetT, UpdAtSource);
  propagateT(UpdAtSource);
}

//===----------------------------------------------------------------------===//
// Incremental update
//===----------------------------------------------------------------------===//
//
// update() exploits that R and T are least fixpoints of monotone
// recurrences over the reduced graph, repaired by exact dirty tracking:
// a row is recomputed only when one of its direct inputs changed (its own
// edges, its AtSource union, a successor's row), and the recomputed row
// is compared against its previous content so the ripple stops the
// moment the fixpoint reconverges. Because least fixpoints are unique,
// the repaired engine is bit-identical to a freshly constructed one —
// the differential fuzz suite asserts exactly that. The T inputs (the
// Definition-5 target sets and the per-source unions) live in retained
// members between updates and are themselves dirty-tracked through the
// cached T↑ contributor chains.

void LiveCheck::captureCoordSnapshots() {
  SnapNodeAtNum.resize(NumNodes);
  for (unsigned I = 0; I != NumNodes; ++I)
    SnapNodeAtNum[I] = DT.nodeAtNum(I);
  SnapBackEdges = D.backEdges();
  std::sort(SnapBackEdges.begin(), SnapBackEdges.end());
}

void LiveCheck::captureSnapshots() {
  if (!Opts.Incremental) {
    SnapNodeAtNum.clear();
    SnapBackEdges.clear();
    UpdTargetT.clear();
    UpdAtSource.clear();
    TargetContrib.clear();
    return;
  }
  // The T-input members were already filled by computeT().
  captureCoordSnapshots();
}

bool LiveCheck::permuteInterval(unsigned Lo, unsigned Hi) {
  // P[i - Lo]: the new preorder number of the node that held old number i.
  // A scoped dominator repair moves numbers only inside the repaired
  // subtree's interval, so the permutation must stay within [Lo, Hi];
  // anything else falls back to the full recompute.
  const unsigned W = Hi - Lo + 1;
  auto PH = pool::scratchArray();
  std::vector<unsigned> &P = *PH;
  P.assign(W, 0);
  for (unsigned I = Lo; I <= Hi; ++I) {
    unsigned NewNum = DT.num(SnapNodeAtNum[I]);
    if (NewNum < Lo || NewNum > Hi)
      return false;
    P[I - Lo] = NewNum;
  }

  // A renumbering moves whole dominance subtrees, so P decomposes into a
  // handful of consecutive runs; each run moves as one word-shifted block
  // instead of bit by bit.
  struct Run {
    unsigned SrcLo, SrcHi, DstLo;
  };
  std::vector<Run> Runs;
  for (unsigned I = 0; I != W;) {
    unsigned J = I + 1;
    while (J != W && P[J] == P[J - 1] + 1)
      ++J;
    Runs.push_back(Run{Lo + I, Lo + J - 1, P[I]});
    I = J;
  }

  const unsigned FirstWord = Lo / BitMatrix::WordBits;
  const unsigned LastWord = Hi / BitMatrix::WordBits;
  const unsigned SpanWords = LastWord - FirstWord + 1;
  // Masks selecting the [Lo, Hi] bits of each covered word.
  auto SpanMaskH = pool::words().acquire();
  std::vector<BitMatrix::Word> &SpanMask = *SpanMaskH;
  SpanMask.assign(SpanWords, ~BitMatrix::Word(0));
  if (Lo % BitMatrix::WordBits != 0)
    SpanMask.front() &= ~BitMatrix::Word(0) << (Lo % BitMatrix::WordBits);
  if (unsigned Rem = Hi % BitMatrix::WordBits; Rem != BitMatrix::WordBits - 1)
    SpanMask.back() &= (BitMatrix::Word(1) << (Rem + 1)) - 1;

  auto BandH = pool::words().acquire();
  std::vector<BitMatrix::Word> &Band = *BandH;
  auto ColH = pool::scratchWords(SpanWords + 1);
  std::vector<BitMatrix::Word> &Col = *ColH;
  for (BitMatrix *M : {&RMat, &TMat}) {
    unsigned Stride = M->strideWords();
    // Rows: lift the band out, drop each row back at its new index.
    Band.assign(std::size_t(W) * Stride, 0);
    for (unsigned I = Lo; I <= Hi; ++I)
      std::memcpy(Band.data() + std::size_t(I - Lo) * Stride, M->row(I),
                  Stride * sizeof(BitMatrix::Word));
    for (unsigned I = Lo; I <= Hi; ++I)
      std::memcpy(M->row(P[I - Lo]),
                  Band.data() + std::size_t(I - Lo) * Stride,
                  Stride * sizeof(BitMatrix::Word));
    // Columns: rebuild the covered words of every row from the runs.
    const unsigned Base = FirstWord * BitMatrix::WordBits;
    for (unsigned R = 0; R != NumNodes; ++R) {
      BitMatrix::Word *Row = M->row(R);
      std::memset(Col.data(), 0, Col.size() * sizeof(BitMatrix::Word));
      for (const Run &Rn : Runs)
        BitMatrix::wordsOrCopyRange(Row, Rn.SrcLo, Rn.SrcHi, Col.data(),
                                    Rn.DstLo - Base);
      for (unsigned I = 0; I != SpanWords; ++I)
        Row[FirstWord + I] = (Row[FirstWord + I] & ~SpanMask[I]) |
                             (Col[I] & SpanMask[I]);
    }
  }

  // The retained num-space T inputs permute the same way (content only —
  // they are indexed by node), so they stay exact across renumberings.
  const unsigned Base = FirstWord * BitMatrix::WordBits;
  auto permuteRow = [&](BitVector &BV) {
    if (BV.empty())
      return;
    BitMatrix::Word *RowW = BV.words();
    std::memset(Col.data(), 0, Col.size() * sizeof(BitMatrix::Word));
    for (const Run &Rn : Runs)
      BitMatrix::wordsOrCopyRange(RowW, Rn.SrcLo, Rn.SrcHi, Col.data(),
                                  Rn.DstLo - Base);
    for (unsigned I = 0; I != SpanWords; ++I)
      RowW[FirstWord + I] = (RowW[FirstWord + I] & ~SpanMask[I]) |
                            (Col[I] & SpanMask[I]);
  };
  for (BitVector &BV : UpdTargetT)
    permuteRow(BV);
  for (BitVector &BV : UpdAtSource)
    permuteRow(BV);
  return true;
}

bool LiveCheck::tryIncrementalUpdate(const CFGDelta *DB, const CFGDelta *DE) {
  if (!Opts.Incremental)
    return false;
  const unsigned N = NumNodes;
  if (G.numNodes() != N || SnapNodeAtNum.size() != N)
    return false; // Node count changed, or no snapshot to diff against.
  for (const CFGDelta *Dp = DB; Dp != DE; ++Dp)
    if (Dp->K == CFGDelta::Kind::NodeAdd)
      return false;

  // --- Back-edge set diff (old snapshot vs new DFS). The snapshot is
  // stored sorted; only the new list needs sorting. ---
  const std::vector<std::pair<unsigned, unsigned>> &OldBE = SnapBackEdges;
  std::vector<std::pair<unsigned, unsigned>> NewBE = D.backEdges();
  std::sort(NewBE.begin(), NewBE.end());
  std::vector<std::pair<unsigned, unsigned>> OnlyOld, OnlyNew;
  std::set_difference(OldBE.begin(), OldBE.end(), NewBE.begin(), NewBE.end(),
                      std::back_inserter(OnlyOld));
  std::set_difference(NewBE.begin(), NewBE.end(), OldBE.begin(), OldBE.end(),
                      std::back_inserter(OnlyNew));

  // --- Seeds. ---
  // SeedR: sources of reduced-graph edge changes (rows of R can change).
  // SeedT: SeedR plus sources of back-edge set changes (inputs of T can
  // change even when R does not — toggling a back edge alters the
  // per-source target unions but leaves the reduced graph alone).
  auto SeedRSetH = pool::scratchBitset(N), SeedTSetH = pool::scratchBitset(N);
  BitVector &SeedRSet = *SeedRSetH, &SeedTSet = *SeedTSetH;
  auto SeedRH = pool::scratchArray(), SeedTH = pool::scratchArray();
  std::vector<unsigned> &SeedR = *SeedRH, &SeedT = *SeedTH;
  auto addSeedT = [&](unsigned S) {
    if (!SeedTSet.test(S)) {
      SeedTSet.set(S);
      SeedT.push_back(S);
    }
  };
  auto addSeedR = [&](unsigned S) {
    if (!SeedRSet.test(S)) {
      SeedRSet.set(S);
      SeedR.push_back(S);
    }
    addSeedT(S);
  };
  auto isIn = [](const std::vector<std::pair<unsigned, unsigned>> &Sorted,
                 std::pair<unsigned, unsigned> E) {
    return std::binary_search(Sorted.begin(), Sorted.end(), E);
  };
  for (const CFGDelta *Dp = DB; Dp != DE; ++Dp) {
    std::pair<unsigned, unsigned> Edge{Dp->From, Dp->To};
    if (Dp->K == CFGDelta::Kind::EdgeInsert) {
      // Inserted as a back edge: only T inputs change. Otherwise the
      // reduced graph gained an edge.
      if (isIn(NewBE, Edge))
        addSeedT(Dp->From);
      else
        addSeedR(Dp->From);
    } else {
      if (isIn(OldBE, Edge))
        addSeedT(Dp->From);
      else
        addSeedR(Dp->From);
    }
  }
  // Classification flips: a back-set difference not explained by an edit
  // to that very edge means the edge persists but crossed between the
  // reduced graph and the back set — both planes see it.
  auto isDeltaEdge = [&](std::pair<unsigned, unsigned> E,
                         CFGDelta::Kind K) {
    for (const CFGDelta *Dp = DB; Dp != DE; ++Dp)
      if (Dp->K == K && Dp->From == E.first && Dp->To == E.second)
        return true;
    return false;
  };
  for (auto E : OnlyNew)
    if (!isDeltaEdge(E, CFGDelta::Kind::EdgeInsert))
      addSeedR(E.first);
  for (auto E : OnlyOld)
    if (!isDeltaEdge(E, CFGDelta::Kind::EdgeRemove))
      addSeedR(E.first);

  if (SeedT.empty())
    return true; // Net-zero batch: graph state identical to the snapshot.

  // --- Renumbering: permute the arenas when the dominance preorder
  // shifted (a scoped DomTree repair moves a contiguous interval). ---
  unsigned PLo = BitVector::npos, PHi = 0;
  for (unsigned I = 0; I != N; ++I)
    if (SnapNodeAtNum[I] != DT.nodeAtNum(I)) {
      if (PLo == BitVector::npos)
        PLo = I;
      PHi = I;
    }
  if (PLo != BitVector::npos) {
    if (PHi - PLo + 1 > N / 2)
      return false; // Near-global renumbering: recompute instead.
    if (!permuteInterval(PLo, PHi))
      return false;
  }

  // --- R repair: exact dirty propagation in increasing new postorder.
  // A row needs recomputing only when its own reduced out-edges changed
  // (a SeedR source) or a reduced successor's row *actually* changed;
  // comparing the recomputed row against its previous content stops the
  // ripple as soon as reconvergence is reached — local edits usually dirty
  // a handful of rows even though their reachability cone is huge. ---
  const unsigned Stride = RMat.strideWords();
  auto OldRowH = pool::scratchWords(Stride);
  std::vector<BitMatrix::Word> &OldRow = *OldRowH;
  auto DirtyRH = pool::scratchBitset(N);
  BitVector &DirtyR = *DirtyRH;
  if (!SeedR.empty()) {
    for (unsigned V : D.postorderSequence()) {
      const unsigned *RB = D.reducedBegin(V), *RE = D.reducedEnd(V);
      bool Need = SeedRSet.test(V);
      for (const unsigned *S = RB; !Need && S != RE; ++S)
        Need = DirtyR.test(*S);
      if (!Need)
        continue;
      unsigned VNum = DT.num(V);
      BitMatrix::Word *Row = RMat.row(VNum);
      std::memcpy(OldRow.data(), Row, Stride * sizeof(BitMatrix::Word));
      std::memset(Row, 0, Stride * sizeof(BitMatrix::Word));
      RMat.set(VNum, VNum);
      for (const unsigned *S = RB; S != RE; ++S)
        RMat.unionRows(VNum, DT.num(*S));
      ++UStats.RRowsRepatched;
      if (std::memcmp(Row, OldRow.data(),
                      Stride * sizeof(BitMatrix::Word)) != 0)
        DirtyR.set(V);
    }
  }

  // --- Side tables. maxnum must be refreshed whenever the dominator
  // tree was repaired, NOT only when the preorder sequence moved: a
  // reparenting can shrink or grow a subtree while leaving NodeAtNum
  // byte-identical, and a stale maxnum makes the subtree skip jump over
  // real targets (wrong answers — found by review, now pinned by the
  // fuzz suite's side-table comparison). The refresh is one linear pass;
  // the back-target flags genuinely depend only on the back-edge set, so
  // a numbering-stable update touches O(|symdiff|) of them. ---
  for (unsigned V = 0; V != N; ++V)
    MaxNumByNum[DT.num(V)] = DT.maxnum(V);
  if (PLo != BitVector::npos) {
    for (unsigned V = 0; V != N; ++V)
      BackTargetByNum[DT.num(V)] = D.isBackEdgeTarget(V);
  } else {
    for (auto E : OnlyNew)
      BackTargetByNum[DT.num(E.second)] = D.isBackEdgeTarget(E.second);
    for (auto E : OnlyOld)
      if (E.second < N)
        BackTargetByNum[DT.num(E.second)] = D.isBackEdgeTarget(E.second);
  }

  // --- T inputs: dirty-track the retained target sets and per-source
  // unions against their own previous content. A target's Definition-5
  // set can change only if its R row changed (DirtyR), a back-edge toggle
  // is visible from it (the toggle's source is reduced-reachable — which
  // for the toggled edge's own target always holds, since a back-edge
  // target reaches its source along tree edges), or a cached T↑
  // contributor's set changed (Theorem-3 preorder makes contributor
  // verdicts final before they are consulted). A source union can change
  // only if one of its targets' sets changed or its own back-edge set was
  // edited. Everything else keeps its retained row untouched. ---
  if (UpdTargetT.size() != N)
    return false; // Retained sets missing (shouldn't happen once built).
  const bool AnyBackChange = !OnlyOld.empty() || !OnlyNew.empty();

  // --- Single inserted back edge (the paper's loop-creation edit):
  // everything grows by one uniform delta. R and the numbering are
  // untouched; the only new chain content anywhere is TargetT[v] — every
  // target that sees the new edge gains exactly it, every source feeding
  // a grown target gains exactly it, and every T row reaching a changed
  // source gains exactly it. Three subset-checked union sweeps replace
  // the whole generic repair. ---
  if (SeedR.empty() &&
      PLo == BitVector::npos && OnlyOld.empty() && OnlyNew.size() == 1 &&
      DE - DB == 1 && DB->K == CFGDelta::Kind::EdgeInsert) {
    const unsigned U = DB->From, V = DB->To;
    TargetContrib.resize(N);
    // Ensure v's own Definition-5 set. If v already was a target, the
    // dirty machinery has kept its row current, and the new edge changes
    // nothing in it (its candidate v is filtered out of its own T↑ by
    // v ∈ R_v). A *new* target's slot may hold stale ex-target content:
    // rebuild it from the existing — smaller-preorder, hence current —
    // target sets. "Was a target" is decided off the old back-edge set,
    // never off row contents.
    BitVector &TV = UpdTargetT[V];
    unsigned VNum = DT.num(V);
    bool WasTarget = false;
    for (auto [S2, Tgt2] : OldBE)
      if (Tgt2 == V) {
        WasTarget = true;
        break;
      }
    if (!WasTarget) {
      if (TV.empty())
        TV.resize(N);
      else
        TV.reset();
      TV.set(VNum);
      std::vector<unsigned> &Contrib = TargetContrib[V];
      Contrib.clear();
      const BitMatrix::Word *R = RMat.row(VNum);
      for (auto [S2, Tgt2] : NewBE) {
        if (Tgt2 == V)
          continue;
        if (!BitMatrix::testBit(R, DT.num(S2)))
          continue;
        if (BitMatrix::testBit(R, DT.num(Tgt2)))
          continue;
        TV |= UpdTargetT[Tgt2];
        Contrib.push_back(Tgt2);
      }
      // v is a back-edge target now; the Algorithm-2 line-8 side table
      // must agree (the numbering did not move).
      BackTargetByNum[VNum] = 1;
    }
    const BitVector &Delta = TV;
    const unsigned UNum = DT.num(U);
    // Targets that see the edge directly (u reachable, v not yet in R)
    // or through a grown contributor gain Delta; Theorem-3 preorder makes
    // contributor verdicts final in time.
    auto GrownH = pool::scratchBitset(N);
    BitVector &Grown = *GrownH;
    for (unsigned T : D.preorderSequence()) {
      if (!D.isBackEdgeTarget(T) || T == V)
        continue;
      const BitMatrix::Word *R = RMat.row(DT.num(T));
      bool Direct = BitMatrix::testBit(R, UNum) &&
                    !BitMatrix::testBit(R, VNum);
      bool Chained = false;
      if (!Direct)
        for (unsigned C : TargetContrib[T])
          if (Grown.test(C)) {
            Chained = true;
            break;
          }
      if (!Direct && !Chained)
        continue;
      BitVector &Row = UpdTargetT[T];
      if (Row.empty())
        Row.resize(N);
      if (!Delta.isSubsetOf(Row)) {
        Row |= Delta;
        Grown.set(T);
      }
      if (Direct)
        TargetContrib[T].push_back(V);
    }
    // Sources feeding the new edge or any grown target gain Delta.
    auto SeedMaskNumH = pool::scratchBitset(N);
    BitVector &SeedMaskNum = *SeedMaskNumH;
    for (auto [S2, Tgt2] : NewBE) {
      if (S2 != U && !Grown.test(Tgt2))
        continue;
      BitVector &Row = UpdAtSource[S2];
      if (Row.empty())
        Row.resize(N);
      if (!Delta.isSubsetOf(Row)) {
        Row |= Delta;
        SeedMaskNum.set(DT.num(S2));
      }
    }
    // T rows reaching any changed source gain Delta.
    if (SeedMaskNum.any()) {
      const BitMatrix::Word *MaskW = SeedMaskNum.words();
      const unsigned Stride0 = RMat.strideWords();
      for (unsigned XNum = 0; XNum != N; ++XNum) {
        if (!BitMatrix::wordsAnyCommon(RMat.row(XNum), MaskW, Stride0))
          continue;
        TMat.orRowWith(XNum, Delta);
        if (Delta.test(XNum))
          SelfInPropNode.set(DT.nodeAtNum(XNum));
        ++UStats.TRowsRepatched;
      }
    }
    SnapBackEdges = std::move(NewBE); // Already sorted.
    return true;
  }

  auto TargetDirtyH = pool::scratchBitset(N);
  BitVector &TargetDirty = *TargetDirtyH;
  auto OldSetH = pool::bitsets().acquire();
  BitVector &OldSet = *OldSetH;
  OldSet.resize(0);
  if (AnyBackChange || DirtyR.any()) {
    BackEdgeCSR CSR;
    buildBackEdgeCSR(CSR);
    TargetContrib.resize(N);
    for (unsigned V : D.preorderSequence()) {
      if (!D.isBackEdgeTarget(V))
        continue;
      bool Need = DirtyR.test(V);
      const BitMatrix::Word *R = RMat.row(DT.num(V));
      if (!Need)
        for (auto E : OnlyNew)
          if (BitMatrix::testBit(R, DT.num(E.first))) {
            Need = true;
            break;
          }
      if (!Need)
        for (auto E : OnlyOld)
          if (E.first < N && BitMatrix::testBit(R, DT.num(E.first))) {
            Need = true;
            break;
          }
      if (!Need)
        for (unsigned C : TargetContrib[V])
          if (TargetDirty.test(C)) {
            Need = true;
            break;
          }
      if (!Need)
        continue;
      // Same kernel as the full pass, against the retained rows of the —
      // already final — contributors; compare for exactness.
      OldSet = UpdTargetT[V];
      recomputeTargetRow(V, CSR, UpdTargetT);
      if (OldSet != UpdTargetT[V])
        TargetDirty.set(V);
    }
  }

  if (TargetDirty.any() || AnyBackChange) {
    // Sources to refresh: those incident to a back-edge toggle or
    // feeding a dirty target set. Changed unions become T seeds.
    auto SrcNeedH = pool::scratchBitset(N);
    BitVector &SrcNeed = *SrcNeedH;
    for (auto [S, Tgt] : NewBE)
      if (TargetDirty.test(Tgt))
        SrcNeed.set(S);
    for (auto E : OnlyNew)
      SrcNeed.set(E.first);
    for (auto E : OnlyOld)
      if (E.first < N)
        SrcNeed.set(E.first);
    for (unsigned S = SrcNeed.findFirstSet(); S != BitVector::npos;
         S = SrcNeed.findNextSet(S + 1)) {
      BitVector &Row = UpdAtSource[S];
      OldSet = Row;
      if (Row.empty())
        Row.resize(N);
      else
        Row.reset();
      auto It = std::lower_bound(NewBE.begin(), NewBE.end(),
                                 std::make_pair(S, 0u));
      for (; It != NewBE.end() && It->first == S; ++It)
        Row |= UpdTargetT[It->second];
      if (OldSet != Row)
        addSeedT(S);
    }
  }

  // --- T repair. ---
  // Pure-growth shortcut: a batch that only *inserts back edges* leaves R
  // and the numbering alone and can only grow the T fixpoint (T↑ sets
  // gain members, never lose any). The new fixpoint is then exactly the
  // old one with each changed source union OR-ed into every row that
  // reduced-reaches that source — a column-gated word-level broadcast,
  // no per-row recompute or compare at all.
  // Worth it only while few source unions changed: with long T↑ chains
  // the per-source broadcasts overlap heavily and the compare-bounded
  // ripple below is cheaper.
  bool PureGrowth = SeedR.empty() && PLo == BitVector::npos &&
                    OnlyOld.empty() && SeedT.size() <= 4;
  for (const CFGDelta *Dp = DB; PureGrowth && Dp != DE; ++Dp)
    PureGrowth = Dp->K == CFGDelta::Kind::EdgeInsert;
  if (PureGrowth) {
    for (unsigned Y : SeedT) {
      const BitVector &Src = UpdAtSource[Y];
      if (Src.empty() || Src.none())
        continue;
      unsigned YNum = DT.num(Y);
      for (unsigned XNum = 0; XNum != N; ++XNum) {
        if (!RMat.test(XNum, YNum))
          continue;
        TMat.orRowWith(XNum, Src);
        if (Src.test(XNum))
          SelfInPropNode.set(DT.nodeAtNum(XNum));
        ++UStats.TRowsRepatched;
      }
    }
  } else {
    // Same exact dirty propagation as R: the propagated recurrence is
    // prop_v = AtSource[v] ∪ ⋃ prop_succ over reduced successors, so a
    // row needs recomputing only when its own AtSource changed, its
    // reduced out-edges changed, or a successor's prop genuinely changed.
    auto DirtyTH = pool::scratchBitset(N);
    BitVector &DirtyT = *DirtyTH;
    for (unsigned V : D.postorderSequence()) {
      const unsigned *RB = D.reducedBegin(V), *RE = D.reducedEnd(V);
      bool Need = SeedTSet.test(V);
      for (const unsigned *S = RB; !Need && S != RE; ++S)
        Need = DirtyT.test(*S);
      if (!Need)
        continue;
      unsigned VNum = DT.num(V);
      BitMatrix::Word *Row = TMat.row(VNum);
      std::memcpy(OldRow.data(), Row, Stride * sizeof(BitMatrix::Word));
      std::memset(Row, 0, Stride * sizeof(BitMatrix::Word));
      if (!UpdAtSource[V].empty())
        TMat.orRowWith(VNum, UpdAtSource[V]);
      for (const unsigned *SP = RB; SP != RE; ++SP) {
        unsigned S = *SP;
        unsigned SNum = DT.num(S);
        // A stored successor row is prop ∪ {self}; subtract the self
        // bit unless the successor genuinely propagates itself, and
        // unless the bit was already present from earlier
        // contributions.
        bool Had = BitMatrix::testBit(Row, SNum);
        TMat.unionRows(VNum, SNum);
        if (!SelfInPropNode.test(S) && !Had)
          Row[SNum / BitMatrix::WordBits] &=
              ~(BitMatrix::Word(1) << (SNum % BitMatrix::WordBits));
      }
      bool OldSelf = SelfInPropNode.test(V);
      bool NewSelf = BitMatrix::testBit(Row, VNum);
      if (NewSelf)
        SelfInPropNode.set(V);
      else
        SelfInPropNode.reset(V);
      TMat.set(VNum, VNum);
      ++UStats.TRowsRepatched;
      // Dirty means the row's *contribution* to predecessors changed:
      // either the stored bits, or the self-membership flag that decides
      // whether the forced self bit is part of the propagated content.
      if (OldSelf != NewSelf ||
          std::memcmp(Row, OldRow.data(),
                      Stride * sizeof(BitMatrix::Word)) != 0)
        DirtyT.set(V);
    }
  }

  // Refresh the snapshot: the retained T inputs are already current (the
  // dirty tracking repaired them in place); only the coordinate system
  // needs re-capturing, and only the parts that moved.
  if (PLo != BitVector::npos) {
    for (unsigned I = PLo; I <= PHi; ++I)
      SnapNodeAtNum[I] = DT.nodeAtNum(I);
  }
  if (AnyBackChange)
    SnapBackEdges = std::move(NewBE); // Already sorted.
  return true;
}

void LiveCheck::update(const CFGDelta *B, const CFGDelta *E) {
  ++UStats.Updates;
  if (tryIncrementalUpdate(B, E)) {
    ++UStats.IncrementalRepatches;
    return;
  }
  ++UStats.FullRecomputes;
  computeAll();
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool LiveCheck::isLiveIn(unsigned DefBlock, unsigned Q,
                         const unsigned *UsesBegin, const unsigned *UsesEnd,
                         LiveCheckStats *Sink) const {
  if (Sink)
    ++Sink->LiveInQueries;
  unsigned DefNum = DT.num(DefBlock);
  unsigned MaxDom = DT.maxnum(DefBlock);
  unsigned QNum = DT.num(Q);
  // Lemma 2 precondition: q must be strictly dominated by the definition,
  // otherwise some entry path reaches q after any use path, contradicting
  // strictness.
  if (QNum <= DefNum || MaxDom < QNum)
    return false;
  return renumberingKernel(DefNum, MaxDom, QNum, UsesBegin, UsesEnd,
                           /*ExcludeTrivialQ=*/false, Sink);
}

bool LiveCheck::isLiveOut(unsigned DefBlock, unsigned Q,
                          const unsigned *UsesBegin, const unsigned *UsesEnd,
                          LiveCheckStats *Sink) const {
  if (Sink)
    ++Sink->LiveOutQueries;
  unsigned DefNum = DT.num(DefBlock);
  unsigned QNum = DT.num(Q);
  // Algorithm 2 case 1: at the definition block itself the variable is
  // live-out iff it has any use elsewhere (such a use is dominated by def,
  // so some def-free path from a successor reaches it).
  if (DefBlock == Q) {
    for (const unsigned *U = UsesBegin; U != UsesEnd; ++U)
      if (*U != DefBlock)
        return true;
    return false;
  }
  unsigned MaxDom = DT.maxnum(DefBlock);
  if (QNum <= DefNum || MaxDom < QNum)
    return false;
  // Algorithm 2 case 2: as live-in, but the witness path must be
  // non-trivial; only the (t = q, use at q) combination is affected.
  return renumberingKernel(DefNum, MaxDom, QNum, UsesBegin, UsesEnd,
                           /*ExcludeTrivialQ=*/true, Sink);
}

//===----------------------------------------------------------------------===//
// Multi-query kernel
//===----------------------------------------------------------------------===//

void LiveCheck::answerPreparedRun(const PreparedVar &V,
                                  const PreparedProbe *Probes, std::size_t N,
                                  std::uint8_t *Answers,
                                  LiveCheckStats *Sink) const {
  unsigned Interval = V.MaxDom > V.DefNum ? V.MaxDom - V.DefNum : 0;
  // The sweep amortizes one interval pass over the run; below the
  // break-even (short runs, or runs small next to the dominance interval)
  // the per-probe scan kernels with their subtree skips are cheaper.
  bool Sweep = N >= 8 && std::size_t(Interval) <= N * 8;
  if (!Sweep) {
    for (std::size_t I = 0; I != N; ++I)
      Answers[I] = Probes[I].IsLiveOut
                       ? isLiveOutPrepared(V, Probes[I].Block, Sink)
                       : isLiveInPrepared(V, Probes[I].Block, Sink);
    return;
  }

  bool AnyOut = false;
  for (std::size_t I = 0; I != N && !AnyOut; ++I)
    AnyOut = Probes[I].IsLiveOut;
  if (Sink)
    for (std::size_t I = 0; I != N; ++I)
      ++(Probes[I].IsLiveOut ? Sink->LiveOutQueries : Sink->LiveInQueries);

  // Pass 1 — the Algorithm-1 line-4 verdict "does R_t reach a use?",
  // evaluated once per relevant target instead of once per (probe, target)
  // pair: Good marks the targets whose R_t meets a use. A T_q row holds
  // only back-edge targets plus q itself (see the propagation comment), so
  // verdicts are needed only at the interval's back-edge targets — shared
  // by every probe — and at the probed blocks themselves for the self bit
  // (resolved in pass 2). The rest of the interval can never be
  // read through any T_q ∩ Good intersection. The existential form matches
  // the scan kernels. Nums-backed variables with few uses probe the use
  // numbers directly instead of sweeping a mask row.
  unsigned Lo = V.DefNum + 1;
  unsigned Stride = RMat.strideWords();
  std::size_t NumUses = std::size_t(V.NumsEnd - V.NumsBegin);
  pool::BitsetPool::Handle ScratchMaskH;
  const BitMatrix::Word *MaskW = nullptr;
  unsigned MaskWidth = 0;
  bool BitsProbe = false;
  if (V.MaskWords) {
    MaskW = V.MaskWords;
    MaskWidth = std::min(Stride, V.MaskNumWords);
  } else if (NumUses <= 16) {
    BitsProbe = true;
  } else {
    ScratchMaskH = pool::scratchBitset(NumNodes);
    BitVector &ScratchMask = *ScratchMaskH;
    for (const unsigned *U = V.NumsBegin; U != V.NumsEnd; ++U)
      ScratchMask.set(*U);
    MaskW = ScratchMask.words();
    MaskWidth = Stride;
  }
  auto GoodH = pool::scratchBitset(NumNodes);
  BitVector &Good = *GoodH;
  unsigned Visited = 0;
  auto anyUseReached = [&](unsigned T) {
    ++Visited;
    const BitMatrix::Word *R = RMat.row(T);
    return BitsProbe ? BitMatrix::wordsAnyOfBits(R, V.NumsBegin, NumUses)
                     : BitMatrix::wordsAnyCommon(R, MaskW, MaskWidth);
  };
  for (unsigned T = Lo; T <= V.MaxDom; ++T) {
    if (!BackTargetByNum[T])
      continue;
    if (anyUseReached(T))
      Good.set(T);
  }
  const BitMatrix::Word *GoodW = Good.words();

  // Pass 2 — one answer per distinct (block, direction), deduplicated by
  // the Done bitsets; repeated probes of the run collapse to a bit test in
  // the gather below. Each distinct answer is one word-parallel
  // T_q ∩ Good range sweep over the back-target verdicts, plus the self
  // bit of q's own T row resolved on demand: q's full-use verdict for
  // live-in (the sweep's self bit is Good[q] when q is itself a back-edge
  // target, zero otherwise), the use-at-q-excluded verdict for live-out
  // (Algorithm 2 line 8; back-edge-target self bits need no exclusion and
  // ride the sweep).
  auto QNumsH = pool::scratchArray();
  std::vector<unsigned> &QNums = *QNumsH;
  QNums.resize(N);
  for (std::size_t I = 0; I != N; ++I)
    QNums[I] = DT.num(Probes[I].Block);
  auto AnsInH = pool::scratchBitset(NumNodes);
  BitVector &AnsIn = *AnsInH;
  auto DoneInH = pool::scratchBitset(NumNodes);
  BitVector &DoneIn = *DoneInH;
  auto AnsOutH =
      AnyOut ? pool::scratchBitset(NumNodes) : pool::BitsetPool::Handle();
  auto DoneOutH =
      AnyOut ? pool::scratchBitset(NumNodes) : pool::BitsetPool::Handle();
  for (std::size_t I = 0; I != N; ++I) {
    unsigned QNum = QNums[I];
    if (QNum < Lo || V.MaxDom < QNum)
      continue;
    if (!Probes[I].IsLiveOut) {
      if (DoneIn.test(QNum))
        continue;
      DoneIn.set(QNum);
      const BitMatrix::Word *T = TMat.row(QNum);
      bool A = BitMatrix::wordsAnyCommonInRange(T, GoodW, Lo, V.MaxDom);
      if (!A && !BackTargetByNum[QNum])
        A = anyUseReached(QNum);
      if (A)
        AnsIn.set(QNum);
    } else {
      if (DoneOutH->test(QNum))
        continue;
      DoneOutH->set(QNum);
      const BitMatrix::Word *T = TMat.row(QNum);
      // Good has no bit at a non-back-target q, so the unexcluded sweep
      // already skips q's self bit there.
      bool A = BitMatrix::wordsAnyCommonInRange(T, GoodW, Lo, V.MaxDom);
      if (!A && !BackTargetByNum[QNum]) {
        ++Visited;
        const BitMatrix::Word *R = RMat.row(QNum);
        if (BitsProbe) {
          for (const unsigned *U = V.NumsBegin; U != V.NumsEnd && !A; ++U)
            A = *U != QNum && BitMatrix::testBit(R, *U);
        } else {
          A = BitMatrix::wordsAnyCommon(R, MaskW, MaskWidth,
                                        /*ExcludeBit=*/QNum);
        }
      }
      if (A)
        AnsOutH->set(QNum);
    }
  }
  if (Sink) {
    // Evaluation counters: one target visit and one use test per verdict
    // the sweep actually evaluated.
    Sink->TargetsVisited += Visited;
    Sink->UseTests += Visited;
  }

  // Gather — every probe reads its distinct answer's bit; only the def
  // block (Algorithm 2 case 1, shared by the run) and out-of-interval
  // probes bypass the bitsets.
  std::uint8_t DefOutAnswer = 0;
  if (AnyOut) {
    if (V.MaskWords) {
      DefOutAnswer =
          BitMatrix::wordsAnyExcept(V.MaskWords, V.MaskNumWords, V.DefNum);
    } else {
      for (const unsigned *U = V.NumsBegin; U != V.NumsEnd; ++U)
        if (*U != V.DefNum) {
          DefOutAnswer = 1;
          break;
        }
    }
  }
  for (std::size_t I = 0; I != N; ++I) {
    unsigned QNum = QNums[I];
    if (Probes[I].IsLiveOut && QNum == V.DefNum) {
      Answers[I] = DefOutAnswer;
      continue;
    }
    if (QNum <= V.DefNum || V.MaxDom < QNum) {
      Answers[I] = 0;
      continue;
    }
    Answers[I] = Probes[I].IsLiveOut ? AnsOutH->test(QNum) : AnsIn.test(QNum);
  }
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

size_t LiveCheck::memoryBytes() const {
  // Everything a resident engine holds: the R/T arenas, the per-node side
  // tables the scan loop reads, and the arena bookkeeping.
  size_t Bytes = RMat.memoryBytes() + TMat.memoryBytes() +
                 2 * sizeof(BitMatrix);
  Bytes += MaxNumByNum.capacity() * sizeof(unsigned);
  Bytes += BackTargetByNum.capacity() * sizeof(std::uint8_t);
  // Retained incremental-update state (Opts.Incremental engines only).
  Bytes += SnapNodeAtNum.capacity() * sizeof(unsigned);
  Bytes += SnapBackEdges.capacity() * sizeof(std::pair<unsigned, unsigned>);
  for (const BitVector &B : UpdTargetT)
    Bytes += B.memoryBytes() + sizeof(BitVector);
  for (const BitVector &B : UpdAtSource)
    Bytes += B.memoryBytes() + sizeof(BitVector);
  for (const auto &C : TargetContrib)
    Bytes += C.capacity() * sizeof(unsigned) + sizeof(C);
  Bytes += SelfInPropNode.memoryBytes();
  return Bytes;
}
