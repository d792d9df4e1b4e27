//===- core/LiveCheck.h - Fast SSA liveness checking ------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution: liveness *checking* for strict SSA-form
/// programs (Boissinot, Hack, Grund, Dupont de Dinechin, Rastello,
/// "Fast Liveness Checking for SSA-Form Programs", CGO 2008).
///
/// A variable-independent precomputation derives, per CFG node v,
///   * R_v — nodes reachable from v in the reduced graph (the CFG minus DFS
///     back edges), Definition 4;
///   * T_v — the back-edge targets relevant to queries at v, Definition 5;
/// both stored as bitsets indexed by a dominance-tree preorder numbering
/// (Section 5.1), under which the nodes strictly dominated by d form the
/// contiguous interval (num(d), maxnum(d)].
///
/// A live-in query (Algorithm 1/3) intersects T_q with that interval and
/// asks whether any use of the variable is reduced reachable from a
/// surviving target; live-out (Algorithm 2) adds two special cases. Because
/// the precomputation depends only on the CFG, adding or removing variables,
/// uses, or whole instructions never invalidates it — the property that
/// motivates the paper.
///
/// T is computed by the practical two-pass scheme of Section 5.2: exact
/// Definition-5 sets for back-edge targets (Equation 1, in DFS preorder per
/// Theorem 3), then back-edge-source unions propagated through the reduced
/// graph. The resulting sets are supersets of Definition 5 (the `t' ∉ R_q`
/// filter is not applied at the first chain link), which is sound because
/// queries only run when def(a) strictly dominates q; see the soundness
/// note in LiveCheck.cpp.
///
/// The scan visits targets in dominance order and, when a target fails,
/// skips that target's dominance subtree (Section 5.1 item 2).
///
/// ## Memory layout
///
/// The R and T sets are logically N x N bit matrices indexed by dominance
/// preorder number on both axes. Both live in one contiguous word arena
/// each (support/BitMatrix): row t of R is `base + t * stride` with no
/// per-row heap object, so the precomputation sweeps are linear passes and
/// a query's row access is offset arithmetic instead of a pointer chase.
/// The scan loop has no per-query branches on settings: the entry points
/// call the numbered-span, use-mask and renumbering kernels directly, and
/// the one scan template is instantiated per use representation.
///
/// ## The renumbered query plane
///
/// The engine's native coordinate system is the dominance preorder number.
/// The block-id entry points number the use span once per query. Callers
/// that reuse a variable across queries translate it once into a
/// `PreparedVar`: the def's dominance interval plus a span of use numbers,
/// or a bitset of use numbers for high-use-count variables (the
/// per-target test then collapses to a word-level `R_t ∩ UseMask != ∅`
/// sweep). core/PreparedCache keeps one per value and is the production
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_CORE_LIVECHECK_H
#define SSALIVE_CORE_LIVECHECK_H

#include "analysis/DomTree.h"
#include "ir/CFGDelta.h"
#include "support/BitMatrix.h"
#include "support/BitVector.h"

#include <cstdint>
#include <utility>

namespace ssalive {

/// Engine settings.
struct LiveCheckOptions {
  /// Retain the (small) snapshot state that lets update() repatch R/T rows
  /// in place after CFG edits instead of recomputing everything. Costs a
  /// few per-node side arrays plus node-space copies of the back-edge
  /// target sets; update() works without it but always takes the full
  /// recompute path. The AnalysisManager turns this on for its cached
  /// engines (its refresh path is the consumer).
  bool Incremental = false;
};

/// Outcome counters of LiveCheck::update, for tests and the bench.
struct LiveCheckUpdateStats {
  std::uint64_t Updates = 0;
  std::uint64_t IncrementalRepatches = 0; ///< Row-level in-place repairs.
  std::uint64_t FullRecomputes = 0;       ///< Fallbacks to computeAll.
  std::uint64_t RRowsRepatched = 0;
  std::uint64_t TRowsRepatched = 0;
};

/// Query statistics, for the evaluation harnesses. Queries never touch
/// engine state; a caller that wants counts passes its own sink (one per
/// thread under concurrency), so const queries are genuinely read-only and
/// any number of threads may share one engine.
struct LiveCheckStats {
  std::uint64_t LiveInQueries = 0;
  std::uint64_t LiveOutQueries = 0;
  std::uint64_t TargetsVisited = 0; ///< Iterations of the while loop.
  /// Individual R_t membership tests. A mask-entry query counts one test
  /// per target (the whole intersection is a single word sweep).
  std::uint64_t UseTests = 0;

  LiveCheckStats &operator+=(const LiveCheckStats &RHS) {
    LiveInQueries += RHS.LiveInQueries;
    LiveOutQueries += RHS.LiveOutQueries;
    TargetsVisited += RHS.TargetsVisited;
    UseTests += RHS.UseTests;
    return *this;
  }
};

/// The precomputed liveness-checking engine for one CFG.
///
/// The engine speaks block ids only; variables enter a query as their def
/// block plus the Definition-1 use blocks, so any def-use chain
/// representation can sit on top (see FunctionLiveness).
class LiveCheck {
public:
  /// Precomputes R and T for \p G. \p D and \p DT must belong to \p G.
  LiveCheck(const CFG &G, const DFS &D, const DomTree &DT,
            LiveCheckOptions Opts = {});

  /// Repairs the precomputation after the structural edits \p [B, E) were
  /// applied to the referenced CFG. Call order matters: the referenced DFS
  /// must already be recomputed and the referenced DomTree repaired for
  /// the post-edit graph (AnalysisManager::refresh orchestrates exactly
  /// this sequence). With Opts.Incremental set, the engine diffs the old
  /// and new back-edge sets and dominance numbering against its retained
  /// snapshot and repatches only the R/T rows whose reduced-reachability
  /// or back-target sets can have changed (plus a row/column permutation
  /// of the arena when the preorder numbering shifted); otherwise —
  /// including node-count changes and numbering shifts or affected sets
  /// past half the graph — it recomputes everything in place. Either way
  /// the result answers every query identically to a freshly constructed
  /// engine, which the differential fuzz suite asserts bit for bit.
  void update(const CFGDelta *B, const CFGDelta *E);

  const LiveCheckUpdateStats &updateStats() const { return UStats; }

  /// Algorithm 3: is the variable (def block \p DefBlock, use blocks
  /// [\p UsesBegin, \p UsesEnd)) live-in at block \p Q? When \p Sink is
  /// non-null, query counters accumulate into it; the default null costs
  /// nothing and keeps the query path free of shared-state writes.
  bool isLiveIn(unsigned DefBlock, unsigned Q, const unsigned *UsesBegin,
                const unsigned *UsesEnd,
                LiveCheckStats *Sink = nullptr) const;

  /// Algorithm 2: live-out variant, handling the query-at-def and
  /// trivial-path special cases.
  bool isLiveOut(unsigned DefBlock, unsigned Q, const unsigned *UsesBegin,
                 const unsigned *UsesEnd,
                 LiveCheckStats *Sink = nullptr) const;

  /// Convenience overloads over vectors.
  bool isLiveIn(unsigned DefBlock, unsigned Q,
                const std::vector<unsigned> &Uses,
                LiveCheckStats *Sink = nullptr) const {
    return isLiveIn(DefBlock, Q, Uses.data(), Uses.data() + Uses.size(),
                    Sink);
  }
  bool isLiveOut(unsigned DefBlock, unsigned Q,
                 const std::vector<unsigned> &Uses,
                 LiveCheckStats *Sink = nullptr) const {
    return isLiveOut(DefBlock, Q, Uses.data(), Uses.data() + Uses.size(),
                     Sink);
  }

  /// \name Prepared-variable query plane.
  /// @{
  /// A variable fully translated into the engine's coordinate system, built
  /// once and reused across any number of queries: the def's dominance
  /// interval plus the numbered use span (and optionally a use mask, which
  /// takes precedence when non-null). The spans alias caller storage, which
  /// must outlive the queries. The use span holds dominance-preorder
  /// numbers (DT.num of the Definition-1 use blocks) in any order;
  /// duplicates merely cost a redundant probe, so callers sort/dedup only
  /// when a span is reused often enough to pay for it.
  ///
  /// Lifetime contract: every field is expressed in the dominance preorder
  /// numbering of the DomTree the engine was built (or last update()d)
  /// against, so a PreparedVar is valid only while that numbering stands —
  /// i.e. until the next structural CFG edit. It must never be held across
  /// an edit/refresh boundary as is: after a renumbering the stale
  /// coordinates silently select the wrong interval and the wrong use
  /// bits. Because a CFG edit moves no def and (without a def-use edit)
  /// no use block, the variable itself survives the edit; only its
  /// coordinates need translating. Consumers should not manage this by
  /// hand — core/PreparedCache caches one prepared entry per value, keyed
  /// to the function's CFG epoch and the value's def-use epoch, remaps
  /// entries onto the repaired numbering when synced
  /// (PreparedCache::syncNumbering), drops the rest instead of serving
  /// them (debug-asserted), and is the production path of
  /// FunctionLiveness, the batch driver, and the server sessions.
  struct PreparedVar {
    unsigned DefNum = 0;            ///< DT.num(def block).
    unsigned MaxDom = 0;            ///< DT.maxnum(def block).
    const unsigned *NumsBegin = nullptr; ///< Use numbers.
    const unsigned *NumsEnd = nullptr;
    /// Optional use mask over numbers as a raw word span (engaged when
    /// non-null, taking precedence over the Nums span). A raw span rather
    /// than a BitVector* so cached entries can alias slices of a shared
    /// arena; bits at or beyond the engine's node count must be clear.
    const std::uint64_t *MaskWords = nullptr;
    unsigned MaskNumWords = 0;

    /// Points the mask span at \p M's words (M must outlive the queries).
    void setMask(const BitVector &M) {
      MaskWords = M.words();
      MaskNumWords = M.numWordsInUse();
    }
    void clearMask() {
      MaskWords = nullptr;
      MaskNumWords = 0;
    }
  };

  /// Fills \p Out's def coordinates for \p DefBlock (spans stay untouched).
  void prepareDef(unsigned DefBlock, PreparedVar &Out) const {
    Out.DefNum = DT.num(DefBlock);
    Out.MaxDom = DT.maxnum(DefBlock);
  }

  /// Prepared-variable entry points: nothing per-variable is recomputed per
  /// query — only the query block is translated. Defined inline: this is
  /// the hottest entry of the batch pipeline and the extra call layer is
  /// measurable at tens of millions of queries per second.
  bool isLiveInPrepared(const PreparedVar &V, unsigned Q,
                        LiveCheckStats *Sink = nullptr) const {
    if (Sink)
      ++Sink->LiveInQueries;
    unsigned QNum = DT.num(Q);
    if (QNum <= V.DefNum || V.MaxDom < QNum)
      return false;
    if (V.MaskWords)
      return maskKernel(V.DefNum, V.MaxDom, QNum, V.MaskWords,
                        V.MaskNumWords, /*ExcludeTrivialQ=*/false, Sink);
    return numSpanKernel(V.DefNum, V.MaxDom, QNum, V.NumsBegin, V.NumsEnd,
                         /*ExcludeTrivialQ=*/false, Sink);
  }
  bool isLiveOutPrepared(const PreparedVar &V, unsigned Q,
                         LiveCheckStats *Sink = nullptr) const {
    if (Sink)
      ++Sink->LiveOutQueries;
    unsigned QNum = DT.num(Q);
    if (QNum == V.DefNum) {
      // Algorithm 2 case 1, in number space (num() is a bijection).
      if (V.MaskWords)
        return BitMatrix::wordsAnyExcept(V.MaskWords, V.MaskNumWords,
                                         V.DefNum);
      for (const unsigned *U = V.NumsBegin; U != V.NumsEnd; ++U)
        if (*U != V.DefNum)
          return true;
      return false;
    }
    if (QNum <= V.DefNum || V.MaxDom < QNum)
      return false;
    if (V.MaskWords)
      return maskKernel(V.DefNum, V.MaxDom, QNum, V.MaskWords,
                        V.MaskNumWords, /*ExcludeTrivialQ=*/true, Sink);
    return numSpanKernel(V.DefNum, V.MaxDom, QNum, V.NumsBegin, V.NumsEnd,
                         /*ExcludeTrivialQ=*/true, Sink);
  }

  /// One point query of a same-value run: the block asked about and the
  /// direction. Block ids, not numbers — translation happens inside the
  /// kernel.
  struct PreparedProbe {
    unsigned Block = 0;
    bool IsLiveOut = false;
  };

  /// Multi-query kernel: answers \p N probes against ONE prepared variable
  /// in a single call, writing 0/1 into Answers[i] for Probes[i]. Answers
  /// are bit-identical to calling isLiveInPrepared / isLiveOutPrepared per
  /// probe — the batch driver's locality-grouped path relies on that, and
  /// tests/core pins it differentially.
  ///
  /// With enough probes relative to the dominance interval, the kernel
  /// amortizes: one pass over the interval classifies
  /// every target t by `R_t ∩ uses != ∅` (the Algorithm-1 verdict, plus the
  /// self-excluded variant Algorithm 2 needs) into pooled Good/GoodSelf
  /// rows, then each probe becomes one word-parallel
  /// `T_q ∩ Good != ∅` range sweep over the blocks actually asked about.
  /// Short runs fall back to the per-probe entry points.
  ///
  /// Stats contract: LiveInQueries/LiveOutQueries in \p Sink count exactly
  /// one per probe regardless of path; TargetsVisited/UseTests count the
  /// verdicts the sweep evaluates when it runs (evaluation counters, not a
  /// schedule invariant).
  void answerPreparedRun(const PreparedVar &V, const PreparedProbe *Probes,
                         std::size_t N, std::uint8_t *Answers,
                         LiveCheckStats *Sink = nullptr) const;
  /// @}

  /// \name Introspection for tests and benches.
  /// @{
  /// Reduced reachability: is \p To in R_{From}? (Definition 4)
  bool isReducedReachable(unsigned From, unsigned To) const {
    return RMat.test(DT.num(From), DT.num(To));
  }

  /// Membership in the precomputed T set: is \p T in T_{Of}?
  bool isInT(unsigned Of, unsigned T) const {
    return TMat.test(DT.num(Of), DT.num(T));
  }

  /// The cached scan side tables, by preorder number — what the subtree
  /// skip and the Algorithm-2 line-8 exclusion actually read. The
  /// differential fuzz suite compares them against a fresh engine's: a
  /// stale entry here produces wrong answers only on narrow query shapes
  /// that sampling alone can miss.
  unsigned cachedMaxNum(unsigned Num) const { return MaxNumByNum[Num]; }
  bool cachedBackTarget(unsigned Num) const {
    return BackTargetByNum[Num] != 0;
  }

  /// Number of CFG nodes (== bits per R/T row).
  unsigned numNodes() const { return NumNodes; }

  const LiveCheckOptions &options() const { return Opts; }

  /// Bytes held by the engine: the R/T arenas (the quadratic footprint
  /// Sections 6.1 and 8 discuss) plus the per-node side tables
  /// (MaxNumByNum, BackTargetByNum) and container metadata, so the bench
  /// memory numbers reflect what a resident engine actually costs.
  size_t memoryBytes() const;
  /// @}

private:
  /// From-scratch build of everything (the constructor body); also the
  /// fallback path of update().
  void computeAll();
  void computeR();
  /// Back edges grouped by source preorder number: the shared iteration
  /// structure of every Definition-5 target-set (re)computation.
  struct BackEdgeCSR {
    BitVector SrcMask;                                ///< Source nums.
    std::vector<unsigned> SrcOff;                     ///< Per-num offsets.
    std::vector<std::pair<unsigned, unsigned>> Tgts;  ///< (tgt num, node).
  };
  void buildBackEdgeCSR(BackEdgeCSR &CSR) const;
  /// Recomputes one target's Definition-5 set (Equation 1) and its
  /// TargetContrib chain from the current R row and the grouped back
  /// edges; contributors' rows in \p TargetT must already be final
  /// (Theorem-3 preorder). The single kernel both the full pass and the
  /// incremental dirty repair run, so they cannot diverge.
  void recomputeTargetRow(unsigned V, const BackEdgeCSR &CSR,
                          std::vector<BitVector> &TargetT);
  /// Recomputes every target's Definition-5 set into \p TargetT (reused
  /// row by row) and refreshes the TargetContrib dependency lists.
  void computeTargetSets(std::vector<BitVector> &TargetT);
  /// Per-back-edge-source unions of the target sets (the "T_s at each back
  /// edge source" of Section 5.2); rows are empty for non-sources.
  void computeAtSource(const std::vector<BitVector> &TargetT,
                       std::vector<BitVector> &AtSource) const;
  /// The increasing-postorder reduced-graph propagation of the Section-5.2
  /// T sets, including the SelfInProp capture and the final self bits.
  void propagateT(const std::vector<BitVector> &AtSource);
  void computeT();

  /// \name Incremental update machinery (see update()).
  /// @{
  /// Refreshes the retained snapshot (numbering, back edges) after a
  /// from-scratch build; clears all retained update state when the
  /// options rule incremental updates out.
  void captureSnapshots();
  void captureCoordSnapshots();
  /// The row-repatch path; false means "fall back to computeAll".
  bool tryIncrementalUpdate(const CFGDelta *B, const CFGDelta *E);
  /// Applies the old-to-new dominance renumbering to both arenas (rows and
  /// columns move only inside [Lo, Hi]); false if the permutation escapes
  /// the interval.
  bool permuteInterval(unsigned Lo, unsigned Hi);
  /// @}
  /// \name Scan kernels (Algorithm 3 over the interval (DefNum, MaxDom]).
  /// @{
  template <class Uses>
  bool scanImpl(unsigned DefNum, unsigned MaxDom, unsigned QNum, Uses U,
                bool ExcludeTrivialQ, LiveCheckStats *Sink) const;
  /// Block-id use span: numbered once, then the numbered-span kernel.
  bool renumberingKernel(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                         const unsigned *Begin, const unsigned *End,
                         bool ExcludeTrivialQ, LiveCheckStats *Sink) const;
  bool numSpanKernel(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                     const unsigned *Begin, const unsigned *End,
                     bool ExcludeTrivialQ, LiveCheckStats *Sink) const;
  bool maskKernel(unsigned DefNum, unsigned MaxDom, unsigned QNum,
                  const std::uint64_t *MaskWords, unsigned MaskNumWords,
                  bool ExcludeTrivialQ, LiveCheckStats *Sink) const;
  /// @}

  const CFG &G;
  const DFS &D;
  const DomTree &DT;
  LiveCheckOptions Opts;
  unsigned NumNodes = 0;

  /// R and T as contiguous matrices (row == preorder number).
  BitMatrix RMat;
  BitMatrix TMat;
  /// maxnum() by dominance preorder number (subtree skipping).
  std::vector<unsigned> MaxNumByNum;
  /// Back-edge-target flag by preorder number (Algorithm 2 line 8).
  std::vector<std::uint8_t> BackTargetByNum;

  /// \name Retained update state (Opts.Incremental only).
  /// Snapshots of the coordinate system and the T-set inputs as of the
  /// last build/repatch, all numbering-independent (node space) where the
  /// numbering itself can shift. update() diffs the next state against
  /// these to find the rows that can change.
  /// @{
  std::vector<unsigned> SnapNodeAtNum; ///< Old preorder num -> node.
  /// Back edges as of the snapshot, kept sorted (the diff consumes them
  /// sorted anyway).
  std::vector<std::pair<unsigned, unsigned>> SnapBackEdges;
  /// The living Definition-5 target sets (indexed by target node, content
  /// in preorder-number space) and the per-source unions feeding the
  /// propagated T recurrence. Between updates these are the persistent
  /// truth: an update dirty-tracks which rows can change (via DirtyR, the
  /// back-edge diff, and the cached contributor chains below) and
  /// recomputes only those, diffing against the previous content to seed
  /// the T repair. A renumbering permutes their bits alongside the
  /// arenas, so they never go stale.
  std::vector<BitVector> UpdTargetT;
  std::vector<BitVector> UpdAtSource;
  /// Per target node: the target nodes whose sets were unioned into its
  /// row at its last recompute (the T↑ chain, Theorem 3) — the dependency
  /// edges of the dirty tracking.
  std::vector<std::vector<unsigned>> TargetContrib;
  /// Bit v set iff v is in its own *propagated* T set before the final
  /// self-bit pass — needed to subtract a successor's self bit correctly
  /// when re-running the propagation for a single row.
  BitVector SelfInPropNode;
  LiveCheckUpdateStats UStats;
  /// @}
};

} // namespace ssalive

#endif // SSALIVE_CORE_LIVECHECK_H
