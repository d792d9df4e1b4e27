//===- core/PreparedCache.h - Value-indexed prepared liveness ---*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value-indexed cache of LiveCheck::PreparedVar entries: each queryable
/// value's Definition-1 use blocks are collected, translated to dominance
/// preorder numbers, sorted and deduplicated **once**, and every subsequent
/// query against that value reuses the prepared span (or, above the mask
/// threshold, the use mask) with zero per-query chain walking. This is the
/// production query path of every consumer above the engine —
/// FunctionLiveness, the batch driver's prepared plane, and the liveness
/// server's sessions — finishing the migration the testutil::PreparedLiveness
/// shims proved correct (ROADMAP: per-value PreparedVar caching).
///
/// ## Invalidation contract
///
/// A cached entry is valid only while two epochs stand still, and each
/// query re-validates both before trusting the entry:
///
///   * the owning function's CFG epoch (Function::cfgVersion): any
///     structural edit can renumber the dominance preorder, which is the
///     coordinate system every cached span/mask lives in. The cache is
///     designed to sit on the AnalysisManager::refresh / LiveCheck::update
///     plane, which repairs the DomTree and engine in place (same objects,
///     new numbering). A caller that owns the cache's single-writer phase
///     carries entries across the edit with syncNumbering(): the cache
///     keeps the numbering it was last synced to (old preorder number ->
///     node, plus that epoch), and every entry stamped with that epoch is
///     remapped through node identity to the repaired numbering — DefNum
///     and MaxDom become the def node's new num/maxnum, each span number
///     its node's new number (span re-sorted), mask words are rewritten
///     from the span, and the entry is re-stamped. A CFG edit never moves
///     a def or changes a use block without a def-use epoch bump (below),
///     so the remapped entry is exactly what a rebuild would produce, at a
///     fraction of the cost: on ~256-block procedures a rebuild costs
///     0.5-0.7 us per value, and half the rebuilds of an edit reproduce
///     the old entry byte for byte. Entries the remap cannot carry stay
///     stale and are rebuilt lazily on their next ensure(), counted as
///     epoch drops: entries older than the synced numbering, every entry
///     when the node count shrank, an entry whose fresh build would pick
///     the other span/mask form or a different mask word count (the node
///     count crossed a multiple of 64), and an entry whose def-use epoch
///     moved. A cache that is never synced (FunctionLiveness, one-shot
///     replays) epoch-drops every entry of an edited function.
///   * the value's def-use epoch (Function::defUseEpoch(id), mirrored by
///     Value::defUseEpoch): adding or removing a def or use changes the
///     Definition-1 block set. This preserves the paper's Section-7
///     stability property at the cache layer — instruction/value edits
///     never invalidate the *engine*, and they invalidate exactly one
///     value's *entry* here. The counters live in a dense table the
///     function owns, indexed by value id, so the check reads that table
///     and never the Value.
///
/// A fresh entry implies a queryable value (exactly one def and at least
/// one use): entries are built only for queryable values (asserted), and
/// any def or use change that could make a value unqueryable bumps its
/// def-use epoch and so stales its entry. A warm reader therefore needs no
/// separate queryability test; it dereferences the Value only on a miss,
/// to tell "answer 0" (not queryable) from "build first" (see lookup()).
///
/// The use-block invariant the remap rests on: an unchanged def-use epoch
/// implies an unchanged Definition-1 use-block set, under every structural
/// mutation too. Edges only change a value's use blocks through φ incoming
/// blocks, and the IR mutators add or remove the φ operand (a use) with the
/// edge; the mutation-kind invariant test in PreparedCacheTest pins this.
///
/// A PreparedVar must therefore never be held across a CFG edit: the
/// read-only accessor asserts freshness (debug builds), and the directed
/// regression suite pins that a span prepared under the old numbering
/// answers queries wrongly after a renumbering edit — the failure mode the
/// epoch key exists to forbid. Never silently stale.
///
/// ## Memory layout
///
/// An Entry holds only the hot query fields (Prep + the two epoch keys +
/// Built — static_asserted to fit one cache line) plus two cold slice
/// descriptors. The span and mask payloads themselves live in two arenas:
/// one `unsigned` arena for the sorted use-number spans, one 64-bit-word
/// arena for the use masks. The entry table is therefore a flat
/// scan-friendly array, and warm lookups touch contiguous memory instead
/// of chasing ~N per-entry heap blocks. Arena growth relocates the
/// payloads and re-anchors every outstanding Prep.NumsBegin/NumsEnd (or
/// MaskWords) from the stored offsets; freed slices (def-use rebuilds that
/// change size class) are recycled through one set of per-size-class
/// freelists per arena, and rebind() bulk-resets the arenas (capacity
/// retained) alongside the entries.
///
/// ## Concurrency
///
/// The cache has one writer at a time. ensure(), sizeToFunction(),
/// syncNumbering() and rebind() all mutate it: building an entry may grow
/// an arena, which moves every payload and re-anchors every entry.
///
/// lookup() and cached() are const, lock-free, and safe for any number of
/// concurrent readers while nobody writes. lookup() is the batch
/// pipeline's fused read: keyed by value id, it reads the entry and the
/// function's epoch table only, returns the entry when fresh and null
/// otherwise, and never builds. Def-use edits count as writes here: they
/// bump the epoch table, so they must not overlap readers either. The
/// driver's workers answer every fresh query in one pass and set the rest
/// aside; after the join the calling thread — then the only writer —
/// ensure()s and answers those deferred queries. The join separates the
/// readers from the writer, and no separate ensure sweep precedes the
/// query fan-out. Readers count their hits on their own stack and fold
/// them in with countHits(), so the hit counter stays exact without a
/// shared write per query.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_CORE_PREPAREDCACHE_H
#define SSALIVE_CORE_PREPAREDCACHE_H

#include "core/LiveCheck.h"
#include "ir/Function.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ssalive {

/// Outcome counters, for tests and the throughput reports: a snapshot of
/// the cache's counters. Hits may grow concurrently (readers fold theirs
/// in through countHits()); the others change only under the one writer.
struct PreparedCacheStats {
  std::uint64_t Hits = 0;       ///< Fresh entry served as-is.
  std::uint64_t Builds = 0;     ///< First-time entry builds.
  std::uint64_t Rebuilds = 0;   ///< Def-use-epoch drops (chain edited).
  /// CFG-epoch drops: entries rebuilt after an edit that syncNumbering()
  /// did not carry them across.
  std::uint64_t EpochDrops = 0;
  std::uint64_t Remaps = 0; ///< Entries carried across a CFG edit.
};

/// The value-indexed prepared-liveness cache over one function's engine.
///
/// Holds non-owning references to the function and its LiveCheck/DomTree;
/// all three must outlive the cache. In-place repairs of the analyses
/// (AnalysisManager::refresh) keep those references valid and are absorbed
/// through the epoch contract; a wholesale rebuild of the analyses (new
/// objects) requires rebind().
class PreparedCache {
public:
  PreparedCache(const Function &F, const LiveCheck &Engine,
                const DomTree &DT);

  PreparedCache(const PreparedCache &) = delete;
  PreparedCache &operator=(const PreparedCache &) = delete;

  /// Points the cache at a different engine/tree pair (the AnalysisManager
  /// rebuilt the function's analyses instead of repairing them in place).
  /// Drops every entry when the objects actually changed.
  void rebind(const LiveCheck &Engine, const DomTree &DT);

  /// Carries every entry built at the last synced CFG epoch over to the
  /// current dominance numbering (see the invalidation contract) and
  /// records the current numbering as the new sync point. A no-op while
  /// the function's CFG epoch has not moved. The engine and tree must be
  /// current for the function's CFG epoch, and nothing may read or ensure
  /// concurrently: the batch driver calls it per function on the calling
  /// thread before its query fan-out.
  void syncNumbering();

  /// Grows the entry table to the function's current value count, so that
  /// lookup() covers every value that exists now. A write (see
  /// Concurrency): the batch driver calls it before its query fan-out.
  void sizeToFunction();

  /// The prepared entry for \p V, built or rebuilt as needed (see the
  /// invalidation contract). \p V must belong to the cached function, have
  /// exactly one def (its block is the query origin) and at least one use
  /// (asserted on build). The returned reference is valid until the next
  /// ensure() of the same value or the next sizeToFunction()/rebind().
  /// Defined inline: this is the per-query entry of FunctionLiveness, and
  /// in the steady-state hit case it must cost two epoch compares and a
  /// table read, not a function call.
  const LiveCheck::PreparedVar &ensure(const Value &V) {
    if (V.id() < Entries.size()) {
      Entry &E = Entries[V.id()];
      if (fresh(E, V.id())) {
        // Relaxed load and store, deliberately not an atomic RMW: a locked
        // add per cached query is measurable, and ensure() never overlaps
        // another writer or a reader (see Concurrency).
        Hits.store(Hits.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        // The span/mask payload lives in the shared arenas — cold under a
        // value-random stream once the arenas outgrow L2. Start the fetch
        // now so it overlaps the prepared kernel's block-number lookups
        // instead of stalling its first span/mask word read.
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(E.Prep.NumsBegin);
        if (E.Prep.MaskWords)
          __builtin_prefetch(E.Prep.MaskWords);
#endif
        return E.Prep;
      }
    }
    return ensureSlow(V);
  }

  /// The entry for value \p ValueId if it is fresh (built, and both epochs
  /// match the function's), else null — a stale or missing entry is never
  /// built or dropped here, and an id past the entry table is a miss. The
  /// read touches the entry table and the function's epoch table only,
  /// never the Value: a non-null result also means the value is queryable
  /// (see the invalidation contract). Const and lock-free (see
  /// Concurrency); counts no hit (see countHits()). Starts the fetch of the
  /// span/mask payload, as ensure() does.
  const LiveCheck::PreparedVar *lookup(std::uint32_t ValueId) const {
    if (ValueId >= Entries.size())
      return nullptr;
    const Entry &E = Entries[ValueId];
    if (!fresh(E, ValueId))
      return nullptr;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(E.Prep.NumsBegin);
    if (E.Prep.MaskWords)
      __builtin_prefetch(E.Prep.MaskWords);
#endif
    return &E.Prep;
  }

  /// Adds \p N hits served through lookup(). Atomic, so concurrent readers
  /// may each fold in their own tally.
  void countHits(std::uint64_t N) {
    Hits.fetch_add(N, std::memory_order_relaxed);
  }

  /// Lock-free read of an already-ensured entry, for the concurrent query
  /// phase. Asserts (debug builds) that the entry is fresh: serving a span
  /// prepared under a superseded numbering is exactly the wrong-answer
  /// class the epoch contract forbids.
  const LiveCheck::PreparedVar &cached(const Value &V) const;

  /// True when \p V's entry exists and both epochs still match.
  bool isFresh(const Value &V) const;

  PreparedCacheStats stats() const;

  /// Folds the counters accrued since the last publish into the
  /// process-wide telemetry registry (`ssalive_prepared_*`), and the
  /// current arena footprint into the `ssalive_prepared_arena_bytes` /
  /// `ssalive_prepared_arena_slices` gauges. Delta-based, so it may be
  /// called any number of times; the batch driver calls it once per run
  /// and the destructor flushes whatever remains (the gauges read as the
  /// live total across caches, and a dying cache retracts its share).
  /// Keeping publication out-of-band is what lets ensure()'s hit path
  /// stay at a single relaxed increment — the hard budget of the
  /// telemetry plane.
  void publishTelemetry();

  ~PreparedCache();

  /// Bytes held by the cache: the entry table plus the arena capacities
  /// (spans, mask words, freelist heads).
  std::size_t memoryBytes() const;

  /// Span/mask slices currently attached to built entries — recycling
  /// diagnostics (a drop/rebuild cycle must not leak slices).
  std::uint64_t liveSlices() const { return LiveSlices; }

  const LiveCheck &engine() const { return *Engine; }
  const DomTree &domTree() const { return *DT; }

private:
  struct Entry {
    /// Hot fields first: the steady-state query touches Prep and the
    /// epoch keys only, and together they fit one cache line
    /// (static_asserted below).
    LiveCheck::PreparedVar Prep;
    std::uint64_t CFGEpoch = 0;
    std::uint64_t DefUseEpoch = 0;
    bool Built = false;
    /// Cold slice descriptors: element offsets into the span and mask
    /// arenas. A class of 0 means no slice; otherwise the slice capacity
    /// is 1 << (Class - 1) elements. Lengths are not stored — the span
    /// length lives in the Prep pointers, the mask word count in
    /// Prep.MaskNumWords.
    std::uint8_t NumsClass = 0;
    std::uint8_t MaskClass = 0;
    std::uint32_t NumsOff = 0;
    std::uint32_t MaskOff = 0;
  };
  static_assert(offsetof(Entry, NumsClass) <= 64,
                "hot fields (Prep + epochs + Built) must fit one cache "
                "line; a PreparedVar or epoch grew");
  static_assert(sizeof(Entry) <= 72,
                "Entry regrew — the flat-table scan win depends on slim "
                "entries (cold payloads belong in the arenas)");

  /// Slice arenas: power-of-two size-class slices, with intrusive
  /// freelists (a freed slice's first element stores the next free
  /// offset; NoSlice terminates).
  static constexpr std::uint32_t NoSlice = 0xFFFFFFFFu;
  static constexpr unsigned NumClasses = 26; ///< up to 1<<25 elems/slice

  /// The one freshness rule: built, and both epochs match the function's.
  /// \p Id must be inside the entry table (hence inside the epoch table).
  bool fresh(const Entry &E, std::uint32_t Id) const {
    return E.Built && E.CFGEpoch == F.cfgVersion() &&
           E.DefUseEpoch == F.defUseEpoch(Id);
  }
  const LiveCheck::PreparedVar &ensureSlow(const Value &V);
  /// Grows the entry table to \p Count entries (never shrinks it).
  void growTo(std::size_t Count);
  void build(Entry &E, const Value &V);

  /// Smallest class whose capacity 1 << class holds \p Need elements.
  static unsigned classFor(std::size_t Need) {
    unsigned C = 0;
    while ((std::size_t(1) << C) < Need)
      ++C;
    return C;
  }
  std::uint32_t allocSpanSlice(unsigned Class);
  void freeSpanSlice(unsigned Class, std::uint32_t Off);
  std::uint32_t allocMaskSlice(unsigned Class);
  void freeMaskSlice(unsigned Class, std::uint32_t Off);
  /// Arena growth relocated a buffer: recompute the Prep pointers of every
  /// built entry from its stored offsets.
  void reanchorSpans();
  void reanchorMasks();
  /// Resets both arenas and their freelists (capacity retained).
  void clearArenas();
  /// Current arena byte footprint (capacity).
  std::size_t arenaBytes() const;

  const Function &F;
  const LiveCheck *Engine;
  const DomTree *DT;
  std::vector<Entry> Entries;
  std::vector<unsigned> SpanArena;
  std::vector<std::uint64_t> MaskArena;
  std::array<std::uint32_t, NumClasses> SpanFree;
  std::array<std::uint32_t, NumClasses> MaskFree;
  std::uint64_t LiveSlices = 0;
  /// Atomic because readers fold their lookup() hits in concurrently.
  std::atomic<std::uint64_t> Hits{0};
  std::uint64_t Builds = 0;
  std::uint64_t Rebuilds = 0;
  std::uint64_t EpochDrops = 0;
  std::uint64_t Remaps = 0;
  /// The numbering syncNumbering() last recorded: node at each preorder
  /// number, as of CFG epoch SyncedEpoch. Empty until the first sync, and
  /// reset by a rebind() that changes the analyses.
  std::vector<unsigned> SyncedNodeAtNum;
  std::uint64_t SyncedEpoch = 0;
  /// What publishTelemetry() already forwarded to the registry.
  PreparedCacheStats Published;
  std::int64_t PublishedArenaBytes = 0;
  std::int64_t PublishedArenaSlices = 0;
};

} // namespace ssalive

#endif // SSALIVE_CORE_PREPAREDCACHE_H
