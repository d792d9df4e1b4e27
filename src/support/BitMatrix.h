//===- support/BitMatrix.h - Arena-backed bit matrix ------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense Rows x Cols bit matrix in one contiguous word arena. This is the
/// storage behind LiveCheck's R and T sets: instead of one heap-allocated
/// BitVector per CFG node — a pointer chase and a cold cache line per row
/// touch — every row lives at a fixed stride inside a single allocation, so row i is `arena + i * stride` with no indirection, the
/// precomputation sweeps are linear passes over one buffer, and a query's
/// row accesses are plain offset arithmetic.
///
/// The class also exposes the word-level span primitives the query plane is
/// built from: row union (the Definition-4/5 set recurrences), first-set-bit
/// scanning from an index (the paper's `bitset_next_set`), and
/// intersection-emptiness over a bit range with an optional excluded bit
/// (the `R_t ∩ uses != ∅` test of Algorithm 1, and the Algorithm-2 line-8
/// trivial-path exclusion, each as one masked word sweep).
///
/// Kernel dispatch contract
/// ------------------------
/// Every hot predicate below exists in two forms:
///
///   * `words...Portable` — the straight-line reference loop. Never
///     hand-tuned; this is the semantic definition of the predicate.
///   * `words...` (same name, no suffix) — the dispatching entry every call
///     site uses. Internally it splits off the masked boundary/exclusion
///     words, then sweeps the unmasked interior with an unrolled 4-word
///     AND reduction (AVX2 `vpand`+`vptest` per 4 words when
///     SSALIVE_SIMD_AVX2 is on, plain unrolled scalar otherwise), with
///     set-bit extraction via `std::countr_zero` (tzcnt/ctzll).
///
/// The two forms must agree bit-for-bit on *every* input — ragged tails,
/// empty ranges, exclusion bit on a boundary word, exclusion bit outside the
/// span — and tests/support/BitMatrixTest.cpp pins that equivalence on
/// randomized rows. Change a dispatching entry and its portable twin
/// together, or not at all.
///
/// SSALIVE_SIMD_AVX2 defaults to the compiler's `__AVX2__` (enable with the
/// CMake option SSALIVE_ENABLE_AVX2 or any `-mavx2` build); it can be forced
/// off with -DSSALIVE_SIMD_AVX2=0 to test the portable interior on AVX2
/// hardware.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SUPPORT_BITMATRIX_H
#define SSALIVE_SUPPORT_BITMATRIX_H

#include "support/BitVector.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if !defined(SSALIVE_SIMD_AVX2)
#if defined(__AVX2__)
#define SSALIVE_SIMD_AVX2 1
#else
#define SSALIVE_SIMD_AVX2 0
#endif
#endif
#if SSALIVE_SIMD_AVX2
#include <immintrin.h>
#endif

namespace ssalive {

/// A fixed-shape bit matrix backed by one word arena.
class BitMatrix {
public:
  using Word = std::uint64_t;
  static constexpr unsigned WordBits = 64;
  static constexpr unsigned npos = ~0u;

  BitMatrix() = default;

  /// Creates a \p NumRows x \p NumCols matrix, all bits clear.
  BitMatrix(unsigned NumRows, unsigned NumCols) { resize(NumRows, NumCols); }

  /// Reshapes to \p NumRows x \p NumCols and clears every bit.
  void resize(unsigned NumRows, unsigned NumCols) {
    Rows = NumRows;
    Cols = NumCols;
    Stride = (NumCols + WordBits - 1) / WordBits;
    Arena.assign(std::size_t(Rows) * Stride, 0);
  }

  /// Releases the arena; the matrix becomes 0 x 0.
  void clear() {
    Rows = Cols = Stride = 0;
    Arena.clear();
    Arena.shrink_to_fit();
  }

  unsigned numRows() const { return Rows; }
  unsigned numCols() const { return Cols; }
  /// Words per row — the unit every row primitive iterates over.
  unsigned strideWords() const { return Stride; }
  bool empty() const { return Arena.empty(); }

  /// Row \p R as a raw word span of strideWords() words.
  const Word *row(unsigned R) const {
    assert(R < Rows && "row out of range");
    return Arena.data() + std::size_t(R) * Stride;
  }
  Word *row(unsigned R) {
    assert(R < Rows && "row out of range");
    return Arena.data() + std::size_t(R) * Stride;
  }

  void set(unsigned R, unsigned C) {
    assert(C < Cols && "column out of range");
    row(R)[C / WordBits] |= Word(1) << (C % WordBits);
  }

  bool test(unsigned R, unsigned C) const {
    assert(C < Cols && "column out of range");
    return testBit(row(R), C);
  }

  /// Bit \p Idx of a raw row span (no bounds knowledge — caller's contract).
  static bool testBit(const Word *RowWords, unsigned Idx) {
    return (RowWords[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  /// Row union: Dst |= Src, one linear word sweep.
  void unionRows(unsigned Dst, unsigned Src) {
    Word *D = row(Dst);
    const Word *S = row(Src);
    for (unsigned I = 0; I != Stride; ++I)
      D[I] |= S[I];
  }

  /// Dst |= V for a BitVector over the same column universe.
  void orRowWith(unsigned Dst, const BitVector &V) {
    assert(V.size() == Cols && "universe mismatch");
    Word *D = row(Dst);
    const Word *S = V.words();
    for (unsigned I = 0, E = V.numWordsInUse(); I != E; ++I)
      D[I] |= S[I];
  }

  /// First set bit of row \p R at column >= \p From, or npos.
  unsigned findNextSetInRow(unsigned R, unsigned From) const {
    return wordsFindNextSet(row(R), Stride, From, Cols);
  }

  /// Payload bytes of the arena (the quadratic footprint LiveCheck reports).
  std::size_t memoryBytes() const { return Arena.capacity() * sizeof(Word); }

  /// \name Word-span primitives (shared by BitVector interop).
  /// @{

  /// First set bit at index >= \p From in a span of \p NumWords words whose
  /// logical universe ends at \p NumBits, or npos.
  static unsigned wordsFindNextSet(const Word *W, unsigned NumWords,
                                   unsigned From, unsigned NumBits) {
    if (From >= NumBits)
      return npos;
    unsigned WordIdx = From / WordBits;
    Word Cur = W[WordIdx] & (~Word(0) << (From % WordBits));
    while (true) {
      if (Cur) {
        unsigned Bit = WordIdx * WordBits + std::countr_zero(Cur);
        return Bit < NumBits ? Bit : npos;
      }
      if (++WordIdx == NumWords)
        return npos;
      Cur = W[WordIdx];
    }
  }

  /// Unmasked interior sweep: do words [\p From, \p To) of \p A and \p B
  /// share a set bit? The unrolled/AVX2 core every dispatching range
  /// predicate funnels its boundary-free middle through.
  static bool anyCommonWordSpan(const Word *A, const Word *B, unsigned From,
                                unsigned To) {
    unsigned I = From;
#if SSALIVE_SIMD_AVX2
    for (; To - I >= 4; I += 4) {
      __m256i VA =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
      __m256i VB =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
      if (!_mm256_testz_si256(VA, VB))
        return true;
    }
#else
    for (; To - I >= 4; I += 4)
      if ((A[I] & B[I]) | (A[I + 1] & B[I + 1]) | (A[I + 2] & B[I + 2]) |
          (A[I + 3] & B[I + 3]))
        return true;
#endif
    for (; I != To; ++I)
      if (A[I] & B[I])
        return true;
    return false;
  }

  /// Unrolled any-set sweep over words [\p From, \p To) of span \p A.
  static bool anyWordSpan(const Word *A, unsigned From, unsigned To) {
    unsigned I = From;
    for (; To - I >= 4; I += 4)
      if (A[I] | A[I + 1] | A[I + 2] | A[I + 3])
        return true;
    for (; I != To; ++I)
      if (A[I])
        return true;
    return false;
  }

  /// Do spans \p A and \p B share a set bit within [\p Lo, \p Hi], ignoring
  /// \p ExcludeBit (pass npos to exclude nothing)? Both spans must cover the
  /// range. Portable reference loop — one masked word at a time.
  static bool wordsAnyCommonInRangePortable(const Word *A, const Word *B,
                                            unsigned Lo, unsigned Hi,
                                            unsigned ExcludeBit = npos) {
    if (Lo > Hi)
      return false;
    unsigned FirstWord = Lo / WordBits;
    unsigned LastWord = Hi / WordBits;
    for (unsigned I = FirstWord; I <= LastWord; ++I) {
      Word W = A[I] & B[I];
      if (I == FirstWord)
        W &= ~Word(0) << (Lo % WordBits);
      if (I == LastWord) {
        unsigned Rem = Hi % WordBits;
        if (Rem != WordBits - 1)
          W &= (Word(1) << (Rem + 1)) - 1;
      }
      if (ExcludeBit != npos && ExcludeBit / WordBits == I)
        W &= ~(Word(1) << (ExcludeBit % WordBits));
      if (W)
        return true;
    }
    return false;
  }

  /// Dispatching twin of wordsAnyCommonInRangePortable: masked boundary
  /// words handled individually, unmasked interior through the unrolled
  /// AND sweep.
  static bool wordsAnyCommonInRange(const Word *A, const Word *B, unsigned Lo,
                                    unsigned Hi,
                                    unsigned ExcludeBit = npos) {
    if (Lo > Hi)
      return false;
    unsigned FirstWord = Lo / WordBits;
    unsigned LastWord = Hi / WordBits;
    auto maskedWord = [&](unsigned I) {
      Word W = A[I] & B[I];
      if (I == FirstWord)
        W &= ~Word(0) << (Lo % WordBits);
      if (I == LastWord) {
        unsigned Rem = Hi % WordBits;
        if (Rem != WordBits - 1)
          W &= (Word(1) << (Rem + 1)) - 1;
      }
      if (ExcludeBit != npos && ExcludeBit / WordBits == I)
        W &= ~(Word(1) << (ExcludeBit % WordBits));
      return W;
    };
    if (maskedWord(FirstWord))
      return true;
    if (FirstWord == LastWord)
      return false;
    unsigned Mid = FirstWord + 1;
    if (ExcludeBit != npos) {
      unsigned XWord = ExcludeBit / WordBits;
      if (XWord >= Mid && XWord < LastWord) {
        if (anyCommonWordSpan(A, B, Mid, XWord))
          return true;
        if (maskedWord(XWord))
          return true;
        Mid = XWord + 1;
      }
    }
    if (anyCommonWordSpan(A, B, Mid, LastWord))
      return true;
    return maskedWord(LastWord) != 0;
  }

  /// First bit set in both \p A and \p B within [\p Lo, \p Hi] ignoring
  /// \p ExcludeBit, or npos. Same masking rules as wordsAnyCommonInRange;
  /// the exact index is extracted from the first non-empty AND word with
  /// `std::countr_zero`.
  static unsigned wordsFirstCommonInRange(const Word *A, const Word *B,
                                          unsigned Lo, unsigned Hi,
                                          unsigned ExcludeBit = npos) {
    if (Lo > Hi)
      return npos;
    unsigned FirstWord = Lo / WordBits;
    unsigned LastWord = Hi / WordBits;
    for (unsigned I = FirstWord; I <= LastWord; ++I) {
      Word W = A[I] & B[I];
      if (I == FirstWord)
        W &= ~Word(0) << (Lo % WordBits);
      if (I == LastWord) {
        unsigned Rem = Hi % WordBits;
        if (Rem != WordBits - 1)
          W &= (Word(1) << (Rem + 1)) - 1;
      }
      if (ExcludeBit != npos && ExcludeBit / WordBits == I)
        W &= ~(Word(1) << (ExcludeBit % WordBits));
      if (W)
        return I * WordBits + unsigned(std::countr_zero(W));
    }
    return npos;
  }

  /// Portable twin of wordsFirstCommonInRange: per-bit probe loop.
  static unsigned wordsFirstCommonInRangePortable(const Word *A, const Word *B,
                                                  unsigned Lo, unsigned Hi,
                                                  unsigned ExcludeBit = npos) {
    if (Lo > Hi)
      return npos;
    for (unsigned Bit = Lo; Bit <= Hi; ++Bit)
      if (Bit != ExcludeBit && testBit(A, Bit) && testBit(B, Bit))
        return Bit;
    return npos;
  }

  /// ORs bits [\p SLo, \p SHi] (inclusive) of span \p Src into span \p Dst
  /// starting at bit \p DLo — a word-shifted block move, the primitive
  /// behind run-based bit permutations. Destination words must exist up to
  /// bit DLo + (SHi - SLo).
  static void wordsOrCopyRange(const Word *Src, unsigned SLo, unsigned SHi,
                               Word *Dst, unsigned DLo) {
    unsigned Remaining = SHi - SLo + 1;
    unsigned SPos = SLo, DPos = DLo;
    while (Remaining) {
      unsigned SWord = SPos / WordBits, SOff = SPos % WordBits;
      unsigned Chunk = WordBits - SOff;
      if (Chunk > Remaining)
        Chunk = Remaining;
      Word Bits = Src[SWord] >> SOff;
      if (Chunk < WordBits)
        Bits &= (Word(1) << Chunk) - 1;
      unsigned DWord = DPos / WordBits, DOff = DPos % WordBits;
      Dst[DWord] |= Bits << DOff;
      if (DOff + Chunk > WordBits)
        Dst[DWord + 1] |= Bits >> (WordBits - DOff);
      SPos += Chunk;
      DPos += Chunk;
      Remaining -= Chunk;
    }
  }

  /// Clears every bit of span \p W inside [\p Lo, \p Hi] (inclusive).
  static void wordsClearRange(Word *W, unsigned Lo, unsigned Hi) {
    if (Lo > Hi)
      return;
    unsigned FirstWord = Lo / WordBits;
    unsigned LastWord = Hi / WordBits;
    for (unsigned I = FirstWord; I <= LastWord; ++I) {
      Word Keep = 0;
      if (I == FirstWord && Lo % WordBits != 0)
        Keep |= (Word(1) << (Lo % WordBits)) - 1;
      if (I == LastWord) {
        unsigned Rem = Hi % WordBits;
        if (Rem != WordBits - 1)
          Keep |= ~Word(0) << (Rem + 1);
      }
      W[I] &= Keep;
    }
  }

  /// Do spans \p A and \p B of \p NumWords words share a set bit, ignoring
  /// \p ExcludeBit? Portable reference loop.
  static bool wordsAnyCommonPortable(const Word *A, const Word *B,
                                     unsigned NumWords,
                                     unsigned ExcludeBit = npos) {
    for (unsigned I = 0; I != NumWords; ++I) {
      Word W = A[I] & B[I];
      if (ExcludeBit != npos && ExcludeBit / WordBits == I)
        W &= ~(Word(1) << (ExcludeBit % WordBits));
      if (W)
        return true;
    }
    return false;
  }

  /// Dispatching twin of wordsAnyCommonPortable: the exclusion word (if any)
  /// is checked alone so both flanking sweeps run branch-free and unrolled.
  static bool wordsAnyCommon(const Word *A, const Word *B, unsigned NumWords,
                             unsigned ExcludeBit = npos) {
    unsigned XWord = ExcludeBit == npos ? NumWords : ExcludeBit / WordBits;
    if (XWord >= NumWords)
      return anyCommonWordSpan(A, B, 0, NumWords);
    if (anyCommonWordSpan(A, B, 0, XWord))
      return true;
    if ((A[XWord] & B[XWord]) & ~(Word(1) << (ExcludeBit % WordBits)))
      return true;
    return anyCommonWordSpan(A, B, XWord + 1, NumWords);
  }

  /// Is any bit other than \p ExcludeBit set in the \p NumWords-word span
  /// \p A (pass npos to exclude nothing)? Portable reference loop.
  static bool wordsAnyExceptPortable(const Word *A, unsigned NumWords,
                                     unsigned ExcludeBit = npos) {
    for (unsigned I = 0; I != NumWords; ++I) {
      Word W = A[I];
      if (ExcludeBit != npos && ExcludeBit / WordBits == I)
        W &= ~(Word(1) << (ExcludeBit % WordBits));
      if (W)
        return true;
    }
    return false;
  }

  /// Dispatching twin of wordsAnyExceptPortable.
  static bool wordsAnyExcept(const Word *A, unsigned NumWords,
                             unsigned ExcludeBit = npos) {
    unsigned XWord = ExcludeBit == npos ? NumWords : ExcludeBit / WordBits;
    if (XWord >= NumWords)
      return anyWordSpan(A, 0, NumWords);
    if (anyWordSpan(A, 0, XWord))
      return true;
    if (A[XWord] & ~(Word(1) << (ExcludeBit % WordBits)))
      return true;
    return anyWordSpan(A, XWord + 1, NumWords);
  }

  /// Is any of the \p N bit indices in \p Bits set in span \p W? The
  /// multi-query kernel's "does this target row reach any use" probe for
  /// nums-backed variables: unrolled 4-probe OR reduction, no per-probe
  /// branch. Portable twin below.
  static bool wordsAnyOfBits(const Word *W, const unsigned *Bits,
                             std::size_t N) {
    std::size_t I = 0;
    for (; I + 4 <= N; I += 4) {
      Word Acc = ((W[Bits[I] / WordBits] >> (Bits[I] % WordBits)) & 1) |
                 ((W[Bits[I + 1] / WordBits] >> (Bits[I + 1] % WordBits)) & 1) |
                 ((W[Bits[I + 2] / WordBits] >> (Bits[I + 2] % WordBits)) & 1) |
                 ((W[Bits[I + 3] / WordBits] >> (Bits[I + 3] % WordBits)) & 1);
      if (Acc)
        return true;
    }
    for (; I != N; ++I)
      if (testBit(W, Bits[I]))
        return true;
    return false;
  }

  /// Portable twin of wordsAnyOfBits.
  static bool wordsAnyOfBitsPortable(const Word *W, const unsigned *Bits,
                                     std::size_t N) {
    for (std::size_t I = 0; I != N; ++I)
      if (testBit(W, Bits[I]))
        return true;
    return false;
  }

  /// Multi-bit test-gather: Out[i] = bit Bits[i] of span \p W, one byte per
  /// probe. Lets the multi-query kernel pull a whole run of per-block
  /// answers out of one precomputed row (e.g. the GoodSelf row) without a
  /// branch per probe. Unrolled by 4; portable twin below.
  static void wordsTestGather(const Word *W, const unsigned *Bits,
                              std::size_t N, std::uint8_t *Out) {
    std::size_t I = 0;
    for (; I + 4 <= N; I += 4) {
      Out[I] = std::uint8_t((W[Bits[I] / WordBits] >> (Bits[I] % WordBits)) & 1);
      Out[I + 1] =
          std::uint8_t((W[Bits[I + 1] / WordBits] >> (Bits[I + 1] % WordBits)) & 1);
      Out[I + 2] =
          std::uint8_t((W[Bits[I + 2] / WordBits] >> (Bits[I + 2] % WordBits)) & 1);
      Out[I + 3] =
          std::uint8_t((W[Bits[I + 3] / WordBits] >> (Bits[I + 3] % WordBits)) & 1);
    }
    for (; I != N; ++I)
      Out[I] = std::uint8_t(testBit(W, Bits[I]));
  }

  /// Portable twin of wordsTestGather.
  static void wordsTestGatherPortable(const Word *W, const unsigned *Bits,
                                      std::size_t N, std::uint8_t *Out) {
    for (std::size_t I = 0; I != N; ++I)
      Out[I] = std::uint8_t(testBit(W, Bits[I]));
  }
  /// @}

private:
  std::vector<Word> Arena;
  unsigned Rows = 0;
  unsigned Cols = 0;
  unsigned Stride = 0;
};

} // namespace ssalive

#endif // SSALIVE_SUPPORT_BITMATRIX_H
