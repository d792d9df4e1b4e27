//===- bench/bench_ablation.cpp - Design-choice ablations ------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablations A and B (DESIGN.md):
//   A. Section 4.1 / 5.1 query optimizations: dominance-ordered scanning
//      with subtree skipping, and the reducible single-test fast path
//      (Theorem 2).
//   B. Section 5.2 T-set computation: the practical propagated scheme vs
//      exact Definition 5 sets at every node.
//
// Each variant answers the identical query stream; we report precompute
// cycles, query cycles, and the engine's internal scan counters.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/LiveCheck.h"
#include "core/UseInfo.h"
#include "ir/CFG.h"
#include "ir/Clone.h"
#include "core/FunctionLiveness.h"
#include "ssa/SSADestruction.h"
#include "support/CycleTimer.h"

#include <cstdio>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

struct Variant {
  const char *Name;
  LiveCheckOptions Opts;
};

struct Workload {
  std::unique_ptr<Function> F;
  std::vector<RecordedQuery> Trace;
};

Workload makeWorkload(const SpecProfile &P, RandomEngine &Rng) {
  Workload W;
  W.F = synthesizeProcedure(P, Rng);
  auto Clone = cloneFunction(*W.F);
  FunctionLiveness Live(*Clone);
  DestructionOptions Opts;
  Opts.RecordTrace = true;
  W.Trace = destructSSA(*Clone, Live, Opts).Trace;
  return W;
}

} // namespace

int main() {
  const Variant Variants[] = {
      {"propagated+skip", {TMode::Propagated, true, true}},
      {"propagated-noskip", {TMode::Propagated, false, false}},
      {"filtered+fastpath", {TMode::Filtered, true, true}},
      {"filtered-nofast", {TMode::Filtered, true, false}},
  };

  std::printf("Ablation: T-set computation modes and query-scan "
              "optimizations\n(identical SSA-destruction query stream over "
              "a 176.gcc-profile corpus)\n\n");

  // Build a corpus of workloads once.
  RandomEngine Rng(0xAB1A7E);
  const SpecProfile &P = spec2000Profiles()[2]; // 176.gcc shape.
  std::vector<Workload> Corpus;
  std::uint64_t TotalQueries = 0;
  for (unsigned I = 0; I != 300; ++I) {
    Corpus.push_back(makeWorkload(P, Rng));
    TotalQueries += Corpus.back().Trace.size();
  }

  TablePrinter T({"Variant", "Pre(cyc/proc)", "Query(cyc)",
                  "Targets/query", "UseTests/query", "Checksum"});

  for (const Variant &V : Variants) {
    std::uint64_t PreCycles = 0, QueryCycles = 0;
    std::uint64_t Targets = 0, UseTests = 0;
    unsigned Checksum = 0;
    for (const Workload &W : Corpus) {
      CFG G = CFG::fromFunction(*W.F);
      DFS D(G);
      DomTree DT(G, D);
      CycleTimer Pre;
      Pre.start();
      LiveCheck Engine(G, D, DT, V.Opts);
      Pre.stop();
      PreCycles += Pre.totalCycles();

      std::vector<unsigned> Uses;
      LiveCheckStats Stats;
      CycleTimer Q;
      Q.start();
      for (const RecordedQuery &RQ : W.Trace) {
        const Value &Val = *W.F->value(RQ.ValueId);
        Uses.clear();
        appendLiveUseBlocks(Val, Uses);
        bool Answer =
            RQ.IsLiveOut
                ? Engine.isLiveOut(defBlockId(Val), RQ.BlockId, Uses, &Stats)
                : Engine.isLiveIn(defBlockId(Val), RQ.BlockId, Uses, &Stats);
        Checksum = (Checksum << 1) ^ unsigned(Answer) ^ (Checksum >> 19);
      }
      Q.stop();
      QueryCycles += Q.totalCycles();
      Targets += Stats.TargetsVisited;
      UseTests += Stats.UseTests;
    }
    T.addRow({V.Name, TablePrinter::fmt(double(PreCycles) / Corpus.size(), 0),
              TablePrinter::fmt(double(QueryCycles) / double(TotalQueries)),
              TablePrinter::fmt(double(Targets) / double(TotalQueries)),
              TablePrinter::fmt(double(UseTests) / double(TotalQueries)),
              std::to_string(Checksum)});
  }
  T.print();
  std::printf("\n%llu queries over %zu procedures. Checksums must agree "
              "across variants\n(all four compute the same function).\n",
              static_cast<unsigned long long>(TotalQueries), Corpus.size());
  return 0;
}
