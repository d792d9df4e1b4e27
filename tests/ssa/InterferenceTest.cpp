//===- tests/ssa/InterferenceTest.cpp -------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ssa/InterferenceCheck.h"

#include "TestUtil.h"
#include "core/FunctionLiveness.h"
#include "ir/IRParser.h"
#include "liveness/LivenessOracle.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct Fixture {
  std::unique_ptr<Function> F;
  CFG G;
  DFS D;
  DomTree DT;
  FunctionLiveness Live;
  InterferenceCheck Check;

  explicit Fixture(const char *Text)
      : F(parse(Text)), G(CFG::fromFunction(*F)), D(G), DT(G, D), Live(*F),
        Check(*F, DT, Live) {}

  static std::unique_ptr<Function> parse(const char *Text) {
    ParseResult R = parseFunction(Text);
    EXPECT_TRUE(R.Func) << R.Error;
    return std::move(R.Func);
  }

  Value *value(const std::string &Name) {
    for (const auto &V : F->values())
      if (V->name() == Name)
        return V.get();
    return nullptr;
  }
};

} // namespace

TEST(Interference, OverlappingRangesInterfere) {
  Fixture Fx(R"(
func @f {
e:
  %a = const 1
  %b = const 2
  %u = add %a, %b
  ret %u
}
)");
  // %a is live after %b's definition (used by add).
  EXPECT_TRUE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("b")));
  EXPECT_TRUE(Fx.Check.interfere(*Fx.value("b"), *Fx.value("a")))
      << "symmetric";
}

TEST(Interference, ChainedCopiesDoNotInterfere) {
  Fixture Fx(R"(
func @g {
e:
  %a = const 1
  %b = copy %a
  %c = copy %b
  ret %c
}
)");
  // %a dies at %b's definition; block-granular conservatism may keep them
  // apart only when no later use exists — here %a's last use IS %b's def.
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("b")));
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("b"), *Fx.value("c")));
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("c")));
}

TEST(Interference, SiblingBranchValuesNeverInterfere) {
  Fixture Fx(R"(
func @h {
e:
  %p = param 0
  branch %p, l, r
l:
  %x = const 1
  %ol = opaque %x
  jump j
r:
  %y = const 2
  %orr = opaque %y
  jump j
j:
  %z = const 0
  ret %z
}
)");
  // Neither def block dominates the other: no interference, no queries.
  std::uint64_t Before = Fx.Check.queriesIssued();
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("x"), *Fx.value("y")));
  EXPECT_EQ(Fx.Check.queriesIssued(), Before)
      << "dominance pre-filter must avoid liveness queries";
}

TEST(Interference, CrossBlockLiveRangeInterferes) {
  Fixture Fx(R"(
func @k {
e:
  %a = const 1
  jump b
b:
  %t = const 5
  %u = add %a, %t
  ret %u
}
)");
  // %a is live-in at b where %t is defined.
  EXPECT_TRUE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("t")));
}

TEST(Interference, ValueDeadBeforeOtherBlock) {
  Fixture Fx(R"(
func @m {
e:
  %a = const 1
  %s = opaque %a
  jump b
b:
  %t = const 5
  ret %t
}
)");
  // %a dies in e; %t defined in b: no interference.
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("t")));
}

TEST(Interference, SelfNeverInterferes) {
  Fixture Fx(R"(
func @n {
e:
  %a = const 1
  ret %a
}
)");
  EXPECT_FALSE(Fx.Check.interfere(*Fx.value("a"), *Fx.value("a")));
}

TEST(Interference, LoopCarriedPhiInterferesWithNext) {
  // The classic swap-ish situation: %i (phi) and %i2 = i+1 overlap in the
  // body (both live between %i2's def and the back edge use of both? %i is
  // used by the phi edge after %i2's definition — interference).
  Fixture Fx(R"(
func @loop {
e:
  %n = param 0
  %z = const 0
  jump h
h:
  %i = phi [%z, e], [%i2, b]
  %c = cmplt %i, %n
  branch %c, b, x
b:
  %one = const 1
  %i2 = add %i, %one
  %s = opaque %i
  jump h
x:
  ret %i
}
)");
  // %i has a use (opaque %s) after %i2's definition in block b.
  EXPECT_TRUE(Fx.Check.interfere(*Fx.value("i"), *Fx.value("i2")));
}

TEST(Interference, PreparedAndMaskEntriesMatchBlockIdEntries) {
  // The renumbered query plane (PreparedVar spans and use masks) must
  // answer every interference-relevant query exactly like the block-id
  // entries the SSA layer historically used — per raw engine query and
  // per interfere() verdict. FunctionLiveness is now the *cached* prepared
  // plane (core/PreparedCache), so it joins the matrix as a backend under
  // test and BlockIdLiveness plays the historical oracle.
  for (std::uint64_t Seed = 500; Seed != 512; ++Seed) {
    auto F = randomSSAFunction(Seed);
    CFG G = CFG::fromFunction(*F);
    DFS D(G);
    DomTree DT(G, D);
    BlockIdLiveness Live(*F);
    FunctionLiveness Cached(*F);
    PreparedLiveness Prepared(*F);
    PreparedLiveness Masked(*F, /*UseMask=*/true);

    // Raw entry-point agreement over every (value, block) pair.
    const LiveCheck &E = Prepared.engine();
    std::vector<unsigned> Nums;
    BitVector Mask(G.numNodes());
    for (const auto &V : F->values()) {
      if (V->defs().size() != 1)
        continue;
      unsigned Def = defBlockId(*V);
      std::vector<unsigned> Uses = liveUseBlocks(*V);
      Nums.clear();
      Mask.reset();
      for (unsigned U : Uses) {
        Nums.push_back(DT.num(U));
        Mask.set(DT.num(U));
      }
      LiveCheck::PreparedVar P;
      E.prepareDef(Def, P);
      P.NumsBegin = Nums.data();
      P.NumsEnd = Nums.data() + Nums.size();
      LiveCheck::PreparedVar PMask = P;
      PMask.setMask(Mask);
      for (unsigned Q = 0; Q != G.numNodes(); ++Q) {
        bool In = E.isLiveIn(Def, Q, Uses);
        ASSERT_EQ(In, E.isLiveInPrepared(P, Q))
            << "seed " << Seed << " %" << V->name() << " q=" << Q;
        ASSERT_EQ(In, E.isLiveInPrepared(PMask, Q))
            << "seed " << Seed << " %" << V->name() << " q=" << Q;
        bool Out = E.isLiveOut(Def, Q, Uses);
        ASSERT_EQ(Out, E.isLiveOutPrepared(P, Q))
            << "seed " << Seed << " %" << V->name() << " q=" << Q;
        ASSERT_EQ(Out, E.isLiveOutPrepared(PMask, Q))
            << "seed " << Seed << " %" << V->name() << " q=" << Q;
      }
    }

    // Interference verdicts through all four backends: the block-id
    // oracle, the production cached plane, and the two per-query-prepared
    // shims.
    InterferenceCheck ViaBlocks(*F, DT, Live);
    InterferenceCheck ViaCached(*F, DT, Cached);
    InterferenceCheck ViaPrepared(*F, DT, Prepared);
    InterferenceCheck ViaMask(*F, DT, Masked);
    std::vector<Value *> Defined;
    for (const auto &V : F->values())
      if (V->defs().size() == 1)
        Defined.push_back(V.get());
    for (size_t I = 0; I < Defined.size(); ++I)
      for (size_t J = I + 1; J < std::min(Defined.size(), I + 12); ++J) {
        bool Expect = ViaBlocks.interfere(*Defined[I], *Defined[J]);
        EXPECT_EQ(Expect, ViaCached.interfere(*Defined[I], *Defined[J]))
            << "seed " << Seed << " %" << Defined[I]->name() << " vs %"
            << Defined[J]->name();
        EXPECT_EQ(Expect, ViaPrepared.interfere(*Defined[I], *Defined[J]))
            << "seed " << Seed << " %" << Defined[I]->name() << " vs %"
            << Defined[J]->name();
        EXPECT_EQ(Expect, ViaMask.interfere(*Defined[I], *Defined[J]))
            << "seed " << Seed << " %" << Defined[I]->name() << " vs %"
            << Defined[J]->name();
      }
    // The cached plane must actually have cached: repeated interfere()
    // sweeps hit each value's entry many times.
    EXPECT_GT(Cached.preparedCache().stats().Hits, 0u) << "seed " << Seed;
    EXPECT_EQ(Cached.preparedCache().stats().EpochDrops, 0u)
        << "seed " << Seed;
  }
}

TEST(Interference, ConservativeNeverMissesRealOverlap) {
  // Property: if two values are both live-in at some block (a sufficient
  // condition for a real overlap), interfere() must say so.
  for (std::uint64_t Seed = 300; Seed != 315; ++Seed) {
    auto F = randomSSAFunction(Seed);
    CFG G = CFG::fromFunction(*F);
    DFS D(G);
    DomTree DT(G, D);
    LivenessOracle Oracle(*F);
    FunctionLiveness Live(*F);
    InterferenceCheck Check(*F, DT, Live);

    std::vector<Value *> Defined;
    for (const auto &V : F->values())
      if (V->defs().size() == 1)
        Defined.push_back(V.get());

    for (size_t I = 0; I < Defined.size(); ++I) {
      for (size_t J = I + 1; J < std::min(Defined.size(), I + 8); ++J) {
        Value *A = Defined[I];
        Value *B = Defined[J];
        bool BothLiveSomewhere = false;
        for (const auto &Blk : F->blocks())
          if (Oracle.isLiveIn(*A, *Blk) && Oracle.isLiveIn(*B, *Blk)) {
            BothLiveSomewhere = true;
            break;
          }
        if (BothLiveSomewhere) {
          EXPECT_TRUE(Check.interfere(*A, *B))
              << "seed " << Seed << " %" << A->name() << " vs %"
              << B->name();
        }
      }
    }
  }
}
