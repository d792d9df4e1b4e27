//===- tools/ToolUtil.h - Shared CLI helpers --------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the command-line front ends (ssalive-batch,
/// ssalive-client): SPEC-profile module synthesis, module file loading,
/// rendering a module back to the textual form the server's load-module
/// command ships over the wire, and the block-id LiveCheck oracle both
/// tools' --verify compare the prepared plane against.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_TOOLS_TOOLUTIL_H
#define SSALIVE_TOOLS_TOOLUTIL_H

#include "core/UseInfo.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/BatchLivenessDriver.h"
#include "ssa/SSAConstruction.h"
#include "support/RandomEngine.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecProfile.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace ssalive::tool {

/// Synthesizes \p Count strict-SSA functions with SPEC-profile shapes
/// (176.gcc row: the densest corpus). Deterministic in \p Seed.
inline std::vector<std::unique_ptr<Function>>
synthesizeModule(unsigned Count, std::uint64_t Seed) {
  std::vector<std::unique_ptr<Function>> Module;
  RandomEngine Rng(Seed ^ 0x5ca1ab1eull);
  const SpecProfile &P = spec2000Profiles()[2];
  Module.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    CFGGenOptions GOpts;
    GOpts.TargetBlocks = sampleBlockCount(P, Rng);
    CFG G = generateCFG(GOpts, Rng);
    ProgramGenOptions POpts;
    auto F = generateProgram(G, POpts, Rng);
    constructSSA(*F);
    Module.push_back(std::move(F));
  }
  return Module;
}

/// Reads a whole file; empty string + stderr message on failure.
inline std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
    return {};
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Renders a module as the textual form parseModule reads back — the
/// payload of the server's load-module command.
inline std::string
moduleToText(const std::vector<std::unique_ptr<Function>> &Module) {
  std::string Text;
  for (const auto &F : Module) {
    Text += printFunction(*F);
    Text += "\n";
  }
  return Text;
}

/// LiveCheck answers to \p Queries over \p Funcs through the engine's
/// block-id entry points: each query walks its value's def-use chain
/// (appendLiveUseBlocks) and calls isLiveIn/isLiveOut on \p AM's engine.
/// The batch driver answers through PreparedCache entries instead, so this
/// is an oracle that shares no state with them. A value without exactly
/// one def and at least one use answers 0, the driver's queryability
/// rule.
inline std::vector<std::uint8_t>
blockIdLiveCheckAnswers(const std::vector<const Function *> &Funcs,
                        AnalysisManager &AM,
                        const std::vector<BatchQuery> &Queries) {
  std::vector<std::uint8_t> Answers(Queries.size(), 0);
  std::vector<unsigned> Uses;
  for (std::size_t I = 0; I != Queries.size(); ++I) {
    const BatchQuery &Q = Queries[I];
    const Function &F = *Funcs[Q.FuncIndex];
    const Value &V = *F.value(Q.ValueId);
    if (!V.hasSingleDef() || !V.hasUses())
      continue;
    const LiveCheck &E = AM.liveCheck(F);
    Uses.clear();
    appendLiveUseBlocks(V, Uses);
    Answers[I] = Q.IsLiveOut ? E.isLiveOut(defBlockId(V), Q.BlockId, Uses)
                             : E.isLiveIn(defBlockId(V), Q.BlockId, Uses);
  }
  return Answers;
}

} // namespace ssalive::tool

#endif // SSALIVE_TOOLS_TOOLUTIL_H
