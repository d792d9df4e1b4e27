//===- core/FunctionLiveness.h - LiveCheck over a Function ------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binds the CFG-level LiveCheck engine to an IR function: builds the graph
/// view, DFS and dominator tree, runs the variable-independent
/// precomputation, and answers per-value queries through the value-indexed
/// prepared cache (core/PreparedCache). The first query against a value
/// walks its def-use chain once — use blocks collected, translated to
/// dominance preorder numbers, sorted/deduplicated, mask built above the
/// threshold — and every later query reuses that PreparedVar: only the
/// query block is translated. This is the production form of the paper's
/// Section-3 query ("An actual query uses the def-use chain of the
/// variable in question"), with the chain walk amortized across queries.
///
/// Instructions and values may still be added or removed after
/// construction and queries remain valid: the engine never sees variables
/// (Section 7), and a def-use edit drops exactly the edited value's cache
/// entry (Function::defUseEpoch). Structural CFG edits invalidate the whole
/// object — queries debug-assert that the function's cfgVersion() still
/// matches construction; consumers that edit CFGs use the AnalysisManager
/// plane, where the same cache rides the in-place refresh contract.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_CORE_FUNCTIONLIVENESS_H
#define SSALIVE_CORE_FUNCTIONLIVENESS_H

#include "core/LiveCheck.h"
#include "core/LivenessInterface.h"
#include "core/PreparedCache.h"
#include "core/UseInfo.h"

namespace ssalive {

/// The paper's "New" backend over an IR function.
class FunctionLiveness : public LivenessQueries {
public:
  explicit FunctionLiveness(const Function &F, LiveCheckOptions Opts = {});

  bool isLiveIn(const Value &V, const BasicBlock &B) override;
  bool isLiveOut(const Value &V, const BasicBlock &B) override;
  const char *backendName() const override { return "livecheck"; }

  /// \name Access to the underlying structures (benches, tests).
  /// @{
  const CFG &graph() const { return Graph; }
  const DFS &dfs() const { return Dfs; }
  const DomTree &domTree() const { return Tree; }
  const LiveCheck &engine() const { return Engine; }
  const PreparedCache &preparedCache() const { return Cache; }
  /// @}

private:
  const Function &F;
  CFG Graph;
  DFS Dfs;
  DomTree Tree;
  LiveCheck Engine;
  /// The value-indexed prepared plane; entries built lazily on first
  /// query, keyed to (cfgVersion, defUseEpoch).
  PreparedCache Cache;
  /// cfgVersion() at construction: the analyses above describe exactly
  /// this epoch, and queries assert it still holds.
  std::uint64_t BuiltEpoch;
};

} // namespace ssalive

#endif // SSALIVE_CORE_FUNCTIONLIVENESS_H
