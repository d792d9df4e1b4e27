//===- tests/support/BitMatrixTest.cpp ------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The arena-backed bit matrix and its word-span primitives — the storage
// layer under LiveCheck's R/T sets and the batch sweep. The range/exclude
// intersection helpers carry the Algorithm-1 use test and the Algorithm-2
// trivial-path exclusion, so their boundary behaviour (word edges, the
// excluded bit, clamped scans) is checked exhaustively against naive
// per-bit loops.
//
//===----------------------------------------------------------------------===//

#include "support/BitMatrix.h"

#include "support/RandomEngine.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ssalive;

TEST(BitMatrix, SetTestAndShape) {
  BitMatrix M(5, 130); // 130 columns: three words, last one partial.
  EXPECT_EQ(M.numRows(), 5u);
  EXPECT_EQ(M.numCols(), 130u);
  EXPECT_EQ(M.strideWords(), 3u);
  for (unsigned R = 0; R != 5; ++R)
    for (unsigned C = 0; C != 130; ++C)
      EXPECT_FALSE(M.test(R, C));
  M.set(0, 0);
  M.set(4, 129);
  M.set(2, 63);
  M.set(2, 64);
  EXPECT_TRUE(M.test(0, 0));
  EXPECT_TRUE(M.test(4, 129));
  EXPECT_TRUE(M.test(2, 63));
  EXPECT_TRUE(M.test(2, 64));
  EXPECT_FALSE(M.test(3, 129));
  EXPECT_TRUE(BitMatrix::testBit(M.row(2), 64));
  EXPECT_FALSE(BitMatrix::testBit(M.row(2), 65));
}

TEST(BitMatrix, RowsAreContiguousAtStride) {
  BitMatrix M(4, 100);
  EXPECT_EQ(M.row(1), M.row(0) + M.strideWords());
  EXPECT_EQ(M.row(3), M.row(0) + 3 * M.strideWords());
}

TEST(BitMatrix, UnionRows) {
  BitMatrix M(3, 70);
  M.set(0, 1);
  M.set(0, 69);
  M.set(1, 2);
  M.unionRows(1, 0);
  EXPECT_TRUE(M.test(1, 1));
  EXPECT_TRUE(M.test(1, 2));
  EXPECT_TRUE(M.test(1, 69));
  // Source row unchanged.
  EXPECT_FALSE(M.test(0, 2));
}

TEST(BitMatrix, OrRowWithBitVector) {
  BitMatrix M(2, 70);
  BitVector V(70);
  V.set(0);
  V.set(68);
  M.set(1, 5);
  M.orRowWith(1, V);
  EXPECT_TRUE(M.test(1, 0));
  EXPECT_TRUE(M.test(1, 5));
  EXPECT_TRUE(M.test(1, 68));
  EXPECT_FALSE(M.test(0, 0));
}

TEST(BitMatrix, FindNextSetInRow) {
  BitMatrix M(2, 200);
  M.set(0, 3);
  M.set(0, 64);
  M.set(0, 199);
  EXPECT_EQ(M.findNextSetInRow(0, 0), 3u);
  EXPECT_EQ(M.findNextSetInRow(0, 3), 3u);
  EXPECT_EQ(M.findNextSetInRow(0, 4), 64u);
  EXPECT_EQ(M.findNextSetInRow(0, 65), 199u);
  EXPECT_EQ(M.findNextSetInRow(0, 200), BitMatrix::npos);
  EXPECT_EQ(M.findNextSetInRow(1, 0), BitMatrix::npos);
}

TEST(BitMatrix, WordsFindNextSetHonoursBitLimit) {
  // A clamped universe: bits beyond NumBits must never be reported even
  // when set in the underlying words (the scan-kernel interval clamp).
  std::vector<std::uint64_t> W = {0, 1ull << 40};
  EXPECT_EQ(BitMatrix::wordsFindNextSet(W.data(), 2, 0, 128), 104u);
  EXPECT_EQ(BitMatrix::wordsFindNextSet(W.data(), 2, 0, 104), BitMatrix::npos);
  EXPECT_EQ(BitMatrix::wordsFindNextSet(W.data(), 2, 0, 105), 104u);
  EXPECT_EQ(BitMatrix::wordsFindNextSet(W.data(), 2, 105, 128),
            BitMatrix::npos);
  EXPECT_EQ(BitMatrix::wordsFindNextSet(W.data(), 1, 0, 64), BitMatrix::npos);
}

TEST(BitMatrix, WordsAnyExceptSkipsExactlyTheExcludedBit) {
  // The prepared mask plane's def-block exclusion: any set bit counts
  // except the one excluded position (Algorithm 2's "any use other than
  // at the def").
  std::vector<std::uint64_t> W = {0, 0};
  EXPECT_FALSE(BitMatrix::wordsAnyExcept(W.data(), 2));
  W[1] = 1ull << 40; // Bit 104 only.
  EXPECT_TRUE(BitMatrix::wordsAnyExcept(W.data(), 2));
  EXPECT_FALSE(BitMatrix::wordsAnyExcept(W.data(), 2, 104));
  EXPECT_TRUE(BitMatrix::wordsAnyExcept(W.data(), 2, 103));
  W[0] = 1; // A second bit in a different word survives the exclusion.
  EXPECT_TRUE(BitMatrix::wordsAnyExcept(W.data(), 2, 104));
  EXPECT_TRUE(BitMatrix::wordsAnyExcept(W.data(), 2, 0));
  // Word count clamps the scan: bit 104 is invisible at one word.
  EXPECT_FALSE(BitMatrix::wordsAnyExcept(W.data(), 1, 0));
}

TEST(BitMatrix, AnyCommonInRangeAgainstNaive) {
  // Randomized cross-check of the masked word sweep against a per-bit
  // loop, covering word-boundary Lo/Hi and the excluded bit.
  RandomEngine Rng(0xB17);
  constexpr unsigned Bits = 180;
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    std::vector<std::uint64_t> A(3, 0), B(3, 0);
    std::vector<bool> ABits(Bits), BBits(Bits);
    for (unsigned I = 0; I != Bits; ++I) {
      if (Rng.nextBelow(4) == 0) {
        A[I / 64] |= 1ull << (I % 64);
        ABits[I] = true;
      }
      if (Rng.nextBelow(4) == 0) {
        B[I / 64] |= 1ull << (I % 64);
        BBits[I] = true;
      }
    }
    unsigned Lo = Rng.nextBelow(Bits);
    unsigned Hi = Lo + Rng.nextBelow(Bits - Lo);
    unsigned Exclude =
        Rng.nextBelow(2) ? Rng.nextBelow(Bits) : BitMatrix::npos;
    bool Naive = false;
    for (unsigned I = Lo; I <= Hi; ++I)
      if (I != Exclude && ABits[I] && BBits[I])
        Naive = true;
    EXPECT_EQ(BitMatrix::wordsAnyCommonInRange(A.data(), B.data(), Lo, Hi,
                                               Exclude),
              Naive)
        << "trial " << Trial << " lo " << Lo << " hi " << Hi << " excl "
        << Exclude;
    bool NaiveFull = false;
    for (unsigned I = 0; I != Bits; ++I)
      if (I != Exclude && ABits[I] && BBits[I])
        NaiveFull = true;
    EXPECT_EQ(BitMatrix::wordsAnyCommon(A.data(), B.data(), 3, Exclude),
              NaiveFull)
        << "trial " << Trial;
  }
}

TEST(BitMatrix, DispatchMatchesPortableOnRandomSpans) {
  // The kernel dispatch contract (BitMatrix.h header): every dispatching
  // sweep — masked boundary words plus the unrolled/AVX2 interior — must
  // agree bit-for-bit with its Portable twin. Randomized word counts keep
  // ragged tails (N % 4 != 0) and sub-unroll spans in play; exclusion bits
  // land on word boundaries as often as mid-word.
  RandomEngine Rng(0x51AD);
  for (unsigned Trial = 0; Trial != 600; ++Trial) {
    unsigned NumWords = 1 + Rng.nextBelow(13);
    unsigned Bits = NumWords * 64;
    std::vector<std::uint64_t> A(NumWords, 0), B(NumWords, 0);
    // Mostly-sparse fills (AND of three draws) with occasional dense words
    // so both the early-hit and full-scan-miss paths run.
    for (unsigned I = 0; I != NumWords; ++I) {
      if (Rng.nextBelow(3) == 0)
        A[I] = Rng.next() & Rng.next() & Rng.next();
      if (Rng.nextBelow(3) == 0)
        B[I] = Rng.next() & Rng.next() & Rng.next();
      if (Rng.nextBelow(16) == 0)
        A[I] = B[I] = ~0ull;
    }
    // Exclusion bit: none, random, or deliberately on a word edge.
    unsigned Exclude = BitMatrix::npos;
    switch (Rng.nextBelow(4)) {
    case 1:
      Exclude = Rng.nextBelow(Bits);
      break;
    case 2:
      Exclude = 64 * Rng.nextBelow(NumWords); // First bit of a word.
      break;
    case 3:
      Exclude = 64 * Rng.nextBelow(NumWords) + 63; // Last bit of a word.
      break;
    }
    unsigned Lo = Rng.nextBelow(Bits);
    unsigned Hi = Lo + Rng.nextBelow(Bits - Lo);

    EXPECT_EQ(BitMatrix::wordsAnyCommon(A.data(), B.data(), NumWords, Exclude),
              BitMatrix::wordsAnyCommonPortable(A.data(), B.data(), NumWords,
                                                Exclude))
        << "trial " << Trial << " words " << NumWords << " excl " << Exclude;
    EXPECT_EQ(BitMatrix::wordsAnyExcept(A.data(), NumWords, Exclude),
              BitMatrix::wordsAnyExceptPortable(A.data(), NumWords, Exclude))
        << "trial " << Trial << " words " << NumWords << " excl " << Exclude;
    EXPECT_EQ(
        BitMatrix::wordsAnyCommonInRange(A.data(), B.data(), Lo, Hi, Exclude),
        BitMatrix::wordsAnyCommonInRangePortable(A.data(), B.data(), Lo, Hi,
                                                 Exclude))
        << "trial " << Trial << " lo " << Lo << " hi " << Hi << " excl "
        << Exclude;

    // The probe-list primitive: random index lists with duplicates and a
    // ragged length (N % 4 != 0 in two thirds of the trials).
    std::size_t N = Rng.nextBelow(23);
    std::vector<unsigned> Probes(N);
    for (unsigned &P : Probes)
      P = Rng.nextBelow(Bits);
    EXPECT_EQ(BitMatrix::wordsAnyOfBits(A.data(), Probes.data(), N),
              BitMatrix::wordsAnyOfBitsPortable(A.data(), Probes.data(), N))
        << "trial " << Trial << " probes " << N;
  }

  // Degenerate shapes the random draw cannot hit: empty ranges and
  // zero-word spans.
  std::vector<std::uint64_t> W = {~0ull};
  EXPECT_FALSE(BitMatrix::wordsAnyCommonInRange(W.data(), W.data(), 5, 2));
  EXPECT_FALSE(BitMatrix::wordsAnyCommon(W.data(), W.data(), 0));
  EXPECT_FALSE(BitMatrix::wordsAnyExcept(W.data(), 0));
  EXPECT_FALSE(BitMatrix::wordsAnyOfBits(W.data(), nullptr, 0));
}

TEST(BitMatrix, ResizeClearsAndClearReleases) {
  BitMatrix M(3, 100);
  M.set(2, 99);
  EXPECT_GT(M.memoryBytes(), 0u);
  M.resize(2, 40);
  EXPECT_EQ(M.numRows(), 2u);
  EXPECT_EQ(M.numCols(), 40u);
  for (unsigned R = 0; R != 2; ++R)
    for (unsigned C = 0; C != 40; ++C)
      EXPECT_FALSE(M.test(R, C));
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.memoryBytes(), 0u);
}

TEST(BitMatrix, BitVectorInterop) {
  // assignFromWords round-trips an arena row into a BitVector, clamping
  // bits beyond the universe.
  BitMatrix M(1, 70);
  M.set(0, 0);
  M.set(0, 69);
  BitVector V;
  V.assignFromWords(M.row(0), 70);
  EXPECT_EQ(V.size(), 70u);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(69));
  EXPECT_EQ(V.count(), 2u);
  // anyExcept: the Algorithm-2 "any use other than def" test.
  BitVector W(10);
  W.set(3);
  EXPECT_FALSE(W.anyExcept(3));
  EXPECT_TRUE(W.anyExcept(2));
  W.set(7);
  EXPECT_TRUE(W.anyExcept(3));
  BitVector Empty(10);
  EXPECT_FALSE(Empty.anyExcept(0));
}
