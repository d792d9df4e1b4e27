//===- core/PreparedCache.cpp - Value-indexed prepared liveness -----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PreparedCache.h"

#include "core/UseInfo.h"
#include "ir/Function.h"
#include "support/Pool.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace ssalive;

PreparedCache::PreparedCache(const Function &F, const LiveCheck &Engine,
                             const DomTree &DT)
    : F(F), Engine(&Engine), DT(&DT) {
  clearArenas();
}

PreparedCache::~PreparedCache() {
  publishTelemetry();
  // Retract this cache's share of the arena gauges: they track the live
  // total across caches, and this one is going away. arenaBytes() counts
  // capacity, so the arenas must really be released (swapped out), not
  // merely emptied.
  std::vector<unsigned>().swap(SpanArena);
  std::vector<std::uint64_t>().swap(MaskArena);
  LiveSlices = 0;
  publishTelemetry();
}

void PreparedCache::rebind(const LiveCheck &NewEngine, const DomTree &NewDT) {
  if (Engine == &NewEngine && DT == &NewDT)
    return;
  Engine = &NewEngine;
  DT = &NewDT;
  // New analysis objects may carry a new numbering at an unchanged CFG
  // epoch (an explicit invalidate/clear rebuild), so the epoch key alone
  // cannot be trusted across a rebind: drop everything. The arenas bulk
  // reset with it — capacity is retained, so the rebuild wave re-fills
  // the same buffers instead of growing fresh ones.
  Entries.assign(Entries.size(), Entry());
  clearArenas();
  SyncedNodeAtNum.clear();
}

void PreparedCache::clearArenas() {
  SpanArena.clear();
  MaskArena.clear();
  SpanFree.fill(NoSlice);
  MaskFree.fill(NoSlice);
  LiveSlices = 0;
}

void PreparedCache::syncNumbering() {
  std::uint64_t Epoch = F.cfgVersion();
  if (!SyncedNodeAtNum.empty() && SyncedEpoch == Epoch)
    return;
  unsigned OldN = static_cast<unsigned>(SyncedNodeAtNum.size());
  unsigned N = DT->numNodes();
  if (OldN != 0 && N >= OldN) {
    // Old number -> new number, through the node each old number named.
    auto PermH = pool::scratchArray();
    std::vector<unsigned> &Perm = *PermH;
    Perm.resize(OldN);
    bool Identity = true;
    for (unsigned I = 0; I != OldN; ++I) {
      Perm[I] = DT->num(SyncedNodeAtNum[I]);
      Identity &= Perm[I] == I;
    }
    // build()'s form choice at the new node count.
    unsigned Words = (N + 63) / 64;
    unsigned Threshold = std::max(8u, Words);
    std::uint64_t Carried = 0;
    for (std::size_t I = 0; I != Entries.size(); ++I) {
      Entry &E = Entries[I];
      if (!E.Built || E.CFGEpoch != SyncedEpoch ||
          E.DefUseEpoch != F.defUseEpoch(static_cast<unsigned>(I)))
        continue;
      unsigned Len = static_cast<unsigned>(E.Prep.NumsEnd - E.Prep.NumsBegin);
      bool Mask = E.Prep.MaskWords != nullptr;
      if (Mask != (Len >= Threshold) || (Mask && E.Prep.MaskNumWords != Words))
        continue; // A fresh build would pick another form: rebuild lazily.
      unsigned DefNode = SyncedNodeAtNum[E.Prep.DefNum];
      E.Prep.DefNum = DT->num(DefNode);
      E.Prep.MaxDom = DT->maxnum(DefNode);
      if (!Identity) {
        unsigned *Span = SpanArena.data() + E.NumsOff;
        for (unsigned K = 0; K != Len; ++K)
          Span[K] = Perm[Span[K]];
        std::sort(Span, Span + Len);
        if (Mask) {
          std::uint64_t *MW = MaskArena.data() + E.MaskOff;
          std::memset(MW, 0, Words * sizeof(std::uint64_t));
          for (unsigned K = 0; K != Len; ++K)
            MW[Span[K] / 64] |= std::uint64_t(1) << (Span[K] % 64);
        }
      }
      E.CFGEpoch = Epoch;
      ++Carried;
    }
    Remaps += Carried;
  }
  SyncedNodeAtNum.resize(N);
  for (unsigned I = 0; I != N; ++I)
    SyncedNodeAtNum[I] = DT->nodeAtNum(I);
  SyncedEpoch = Epoch;
}

void PreparedCache::growTo(std::size_t Count) {
  if (Entries.size() >= Count)
    return;
  // Growth may relocate entries; the span/mask pointers aim into the
  // arenas, which do not move here, but each entry's Prep.NumsBegin/
  // NumsEnd/MaskWords are plain pointers copied with the entry, so they
  // stay valid across the resize with no re-anchoring at all.
  Entries.resize(Count);
}

void PreparedCache::sizeToFunction() { growTo(F.numValues()); }

void PreparedCache::reanchorSpans() {
  const unsigned *Base = SpanArena.data();
  for (Entry &E : Entries) {
    if (!E.Built || E.NumsClass == 0)
      continue;
    std::size_t Len =
        static_cast<std::size_t>(E.Prep.NumsEnd - E.Prep.NumsBegin);
    E.Prep.NumsBegin = Base + E.NumsOff;
    E.Prep.NumsEnd = E.Prep.NumsBegin + Len;
  }
}

void PreparedCache::reanchorMasks() {
  const std::uint64_t *Base = MaskArena.data();
  for (Entry &E : Entries) {
    if (!E.Built || E.MaskClass == 0 || !E.Prep.MaskWords)
      continue;
    E.Prep.MaskWords = Base + E.MaskOff;
  }
}

std::uint32_t PreparedCache::allocSpanSlice(unsigned Class) {
  ++LiveSlices;
  if (SpanFree[Class] != NoSlice) {
    std::uint32_t Off = SpanFree[Class];
    SpanFree[Class] = SpanArena[Off]; // Intrusive next-free link.
    return Off;
  }
  std::size_t Off = SpanArena.size();
  const unsigned *Old = SpanArena.data();
  SpanArena.resize(Off + (std::size_t(1) << Class));
  if (SpanArena.data() != Old)
    reanchorSpans();
  return static_cast<std::uint32_t>(Off);
}

void PreparedCache::freeSpanSlice(unsigned Class, std::uint32_t Off) {
  assert(LiveSlices && "span slice freed twice");
  --LiveSlices;
  SpanArena[Off] = SpanFree[Class];
  SpanFree[Class] = Off;
}

std::uint32_t PreparedCache::allocMaskSlice(unsigned Class) {
  ++LiveSlices;
  if (MaskFree[Class] != NoSlice) {
    std::uint32_t Off = MaskFree[Class];
    MaskFree[Class] = static_cast<std::uint32_t>(MaskArena[Off]);
    return Off;
  }
  std::size_t Off = MaskArena.size();
  const std::uint64_t *Old = MaskArena.data();
  MaskArena.resize(Off + (std::size_t(1) << Class));
  if (MaskArena.data() != Old)
    reanchorMasks();
  return static_cast<std::uint32_t>(Off);
}

void PreparedCache::freeMaskSlice(unsigned Class, std::uint32_t Off) {
  assert(LiveSlices && "mask slice freed twice");
  --LiveSlices;
  MaskArena[Off] = MaskFree[Class];
  MaskFree[Class] = Off;
}

void PreparedCache::build(Entry &E, const Value &V) {
  // Only queryable values get entries: the "fresh implies queryable"
  // invariant lookup() callers rely on.
  assert(V.hasSingleDef() && V.hasUses() &&
         "prepared entry needs one def block and at least one use");
  auto NumsH = pool::scratchArray();
  std::vector<unsigned> &Nums = *NumsH;
  appendLiveUseBlocks(V, Nums);
  for (unsigned &U : Nums)
    U = DT->num(U);
  std::sort(Nums.begin(), Nums.end());
  Nums.erase(std::unique(Nums.begin(), Nums.end()), Nums.end());

  // Size-class the span slice: reuse in place when the class still fits
  // (the common def-use rebuild), otherwise free the old slice to the
  // freelist and take a new one. Alloc may grow the arena and re-anchor
  // the other entries; this entry's classes are zeroed around the swap so
  // the re-anchor walk skips its (transient) state.
  unsigned Len = static_cast<unsigned>(Nums.size());
  unsigned Class = classFor(std::max<std::size_t>(1, Len));
  if (E.NumsClass == 0 || E.NumsClass - 1u != Class) {
    if (E.NumsClass) {
      freeSpanSlice(E.NumsClass - 1u, E.NumsOff);
      E.NumsClass = 0;
    }
    std::uint32_t Off = allocSpanSlice(Class);
    E.NumsOff = Off;
    E.NumsClass = static_cast<std::uint8_t>(Class + 1);
  }
  if (Len)
    std::memcpy(SpanArena.data() + E.NumsOff, Nums.data(),
                Len * sizeof(unsigned));

  E.Prep = LiveCheck::PreparedVar();
  Engine->prepareDef(defBlockId(V), E.Prep);
  E.Prep.NumsBegin = SpanArena.data() + E.NumsOff;
  E.Prep.NumsEnd = E.Prep.NumsBegin + Len;

  // Same threshold FunctionLiveness always used: switch to the word-level
  // R ∩ UseMask sweep once the distinct uses outnumber the words of a row.
  unsigned N = Engine->numNodes();
  unsigned MaskThreshold = std::max(8u, (N + 63) / 64);
  if (Len >= MaskThreshold) {
    unsigned Words = (N + 63) / 64;
    unsigned MClass = classFor(std::max(1u, Words));
    if (E.MaskClass == 0 || E.MaskClass - 1u != MClass) {
      if (E.MaskClass) {
        freeMaskSlice(E.MaskClass - 1u, E.MaskOff);
        E.MaskClass = 0;
      }
      std::uint32_t Off = allocMaskSlice(MClass);
      E.MaskOff = Off;
      E.MaskClass = static_cast<std::uint8_t>(MClass + 1);
    }
    std::uint64_t *MW = MaskArena.data() + E.MaskOff;
    std::memset(MW, 0, Words * sizeof(std::uint64_t));
    for (unsigned U : Nums)
      MW[U / 64] |= std::uint64_t(1) << (U % 64);
    E.Prep.MaskWords = MW;
    E.Prep.MaskNumWords = Words;
  } else {
    if (E.MaskClass) {
      freeMaskSlice(E.MaskClass - 1u, E.MaskOff);
      E.MaskClass = 0;
      E.MaskOff = 0;
    }
    E.Prep.clearMask();
  }

  E.CFGEpoch = F.cfgVersion();
  E.DefUseEpoch = V.defUseEpoch();
  E.Built = true;
}

const LiveCheck::PreparedVar &PreparedCache::ensureSlow(const Value &V) {
  // Values created after the last sizing (e.g. by a transform running on
  // top of the cache). Single-threaded growth path by contract.
  growTo(std::size_t(V.id()) + 1);
  Entry &E = Entries[V.id()];
  if (!E.Built)
    ++Builds;
  else if (E.CFGEpoch != F.cfgVersion())
    ++EpochDrops;
  else
    ++Rebuilds;
  build(E, V);
  return E.Prep;
}

const LiveCheck::PreparedVar &PreparedCache::cached(const Value &V) const {
  assert(V.id() < Entries.size() && "value was never ensured");
  const Entry &E = Entries[V.id()];
  assert(fresh(E, V.id()) &&
         "stale prepared entry: a CFG or def-use edit invalidated this "
         "value since ensure() — re-ensure before querying");
  return E.Prep;
}

bool PreparedCache::isFresh(const Value &V) const {
  return V.id() < Entries.size() && fresh(Entries[V.id()], V.id());
}

PreparedCacheStats PreparedCache::stats() const {
  PreparedCacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Builds = Builds;
  S.Rebuilds = Rebuilds;
  S.EpochDrops = EpochDrops;
  S.Remaps = Remaps;
  return S;
}

void PreparedCache::publishTelemetry() {
  static telemetry::Counter HitsC("ssalive_prepared_hits_total");
  static telemetry::Counter BuildsC("ssalive_prepared_builds_total");
  static telemetry::Counter RebuildsC("ssalive_prepared_rebuilds_total");
  static telemetry::Counter DropsC("ssalive_prepared_epoch_drops_total");
  static telemetry::Counter RemapsC("ssalive_prepared_remaps_total");
  // Gauges are process-wide levels; each cache publishes the *change* in
  // its own footprint since its last publish, so the gauge reads as the
  // sum across live caches and never needs locking.
  static telemetry::Gauge ArenaBytesG("ssalive_prepared_arena_bytes");
  static telemetry::Gauge ArenaSlicesG("ssalive_prepared_arena_slices");
  PreparedCacheStats S = stats();
  if (S.Hits > Published.Hits)
    HitsC.inc(S.Hits - Published.Hits);
  if (S.Builds > Published.Builds)
    BuildsC.inc(S.Builds - Published.Builds);
  if (S.Rebuilds > Published.Rebuilds)
    RebuildsC.inc(S.Rebuilds - Published.Rebuilds);
  if (S.EpochDrops > Published.EpochDrops)
    DropsC.inc(S.EpochDrops - Published.EpochDrops);
  if (S.Remaps > Published.Remaps)
    RemapsC.inc(S.Remaps - Published.Remaps);
  Published = S;
  auto CurBytes = static_cast<std::int64_t>(arenaBytes());
  auto CurSlices = static_cast<std::int64_t>(LiveSlices);
  if (CurBytes != PublishedArenaBytes)
    ArenaBytesG.add(CurBytes - PublishedArenaBytes);
  if (CurSlices != PublishedArenaSlices)
    ArenaSlicesG.add(CurSlices - PublishedArenaSlices);
  PublishedArenaBytes = CurBytes;
  PublishedArenaSlices = CurSlices;
}

std::size_t PreparedCache::arenaBytes() const {
  return SpanArena.capacity() * sizeof(unsigned) +
         MaskArena.capacity() * sizeof(std::uint64_t);
}

std::size_t PreparedCache::memoryBytes() const {
  return Entries.capacity() * sizeof(Entry) + arenaBytes() +
         sizeof(SpanFree) + sizeof(MaskFree);
}
