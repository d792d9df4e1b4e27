//===- tests/workload/CFGMutatorTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// applyFunctionMutation's validation: an edit that would leave a block
// unreachable from the entry is rejected, and a rejected edit leaves the
// function — blocks, edges, φ operand lists, CFG epoch and delta journal —
// exactly as it was.
//
//===----------------------------------------------------------------------===//

#include "workload/CFGMutator.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace ssalive;

namespace {

// e -> a, e -> b, a -> c, b -> c; a's only predecessor is e.
constexpr const char *Diamond = R"(
func @diamond {
e:
  %p = param 0
  branch %p, a, b
a:
  jump c
b:
  jump c
c:
  %m = phi [%p, a], [%p, b]
  ret %m
}
)";

// e -> a, a -> b, b -> a, b -> c: a loop entered at a.
constexpr const char *Loop = R"(
func @loop {
e:
  %p = param 0
  jump a
a:
  jump b
b:
  branch %p, a, c
c:
  ret %p
}
)";

std::unique_ptr<Function> parse(const char *Text) {
  ParseResult R = parseFunction(Text);
  EXPECT_TRUE(R.Func) << R.Error;
  return std::move(R.Func);
}

/// \p M must be rejected without touching \p F.
void expectRejectedUntouched(Function &F, const Mutation &M) {
  std::string Before = printFunction(F);
  std::uint64_t Epoch = F.cfgVersion();
  EXPECT_FALSE(applyFunctionMutation(F, M));
  EXPECT_EQ(printFunction(F), Before);
  EXPECT_EQ(F.cfgVersion(), Epoch);
  auto Span = F.deltasSince(Epoch);
  ASSERT_TRUE(Span.has_value());
  EXPECT_EQ(Span->first, Span->second) << "a rejected edit was journaled";
}

} // namespace

TEST(CFGMutator, OrphaningRemoveAndRetargetAreRejected) {
  auto F = parse(Diamond);
  ASSERT_TRUE(F);
  // Removing e -> a orphans a; so does moving it to e -> c.
  expectRejectedUntouched(*F, {MutationKind::RemoveEdge, 0, 1, 0});
  expectRejectedUntouched(*F, {MutationKind::RetargetBranch, 0, 1, 3});
  // Removing a -> c leaves c reachable through b.
  EXPECT_TRUE(applyFunctionMutation(*F, {MutationKind::RemoveEdge, 1, 3, 0}));
}

TEST(CFGMutator, RetargetValidationFollowsTheNewEdge) {
  auto F = parse(Loop);
  ASSERT_TRUE(F);
  // Moving e -> a to e -> b keeps a, b and c reachable only through the
  // new edge (b -> a closes the loop).
  EXPECT_TRUE(
      applyFunctionMutation(*F, {MutationKind::RetargetBranch, 0, 1, 2}));
  // Now e -> b is the entry's only edge: removing it orphans the rest.
  expectRejectedUntouched(*F, {MutationKind::RemoveEdge, 0, 2, 0});
}
