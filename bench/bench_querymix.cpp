//===- bench/bench_querymix.cpp - Grouped vs arrival-order query path -----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The locality-grouped query path against the per-query arrival-order path,
// on the batch driver's production (prepared) plane. The stream has the
// shape an interference-graph client sends: value by value, it asks
// whether the value is live out at the def block of every value defined
// inside its dominance interval, so each value's queries arrive as one
// contiguous run. One hot function receives most of the stream, and the
// values are drawn Zipf-ish so a few hot (high-use-count) values dominate.
// Two driver configurations differing ONLY in GroupChunks run the
// identical stream:
//
//   arrival   GroupChunks=false: one prepared table read and one scan
//             kernel per query, in stream order — kept in the driver as
//             the differential oracle.
//   grouped   GroupChunks=true: each maximal same-value run of arrival
//             order (no reordering) of at least 8 queries is answered
//             through one LiveCheck::answerPreparedRun call — one pass over
//             the dominance interval classifies the targets, then each
//             probe is a word-parallel range sweep (BitMatrix kernel
//             dispatch). Shorter runs take the per-query kernels.
//
// Single thread, one chunk: the ratio isolates the kernel amortization,
// which travels across machines; the work-stealing half of the query path
// is equivalence-tested (byte-identical answers) rather than gated here,
// because multi-core speedups depend on the runner's core count. Answers
// must be byte-identical across both configs and every pass; the run exits
// 1 otherwise. One untimed warm pass per config (steady-state prepared
// cache), then best-of timed passes. Emits
// BENCH_querymix.json with speedup_grouped_vs_arrival per tier — the ratio
// the CI trend gate tracks against the committed baseline, with a >= 1.15x
// target at the 1024-block tier.
//
//   bench_querymix [--smoke]   --smoke shrinks sizes/reps for CI.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/UseInfo.h"
#include "pipeline/AnalysisManager.h"
#include "pipeline/BatchLivenessDriver.h"
#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One queryable value of one function, with the preorder interval its
/// queries concentrate in.
struct HotValue {
  std::uint32_t ValueId;
  unsigned Lo, Hi;   ///< Dominance preorder interval of the def.
  std::size_t Uses;  ///< Use count — the sort key for hotness.
};

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I != Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::vector<unsigned> Sizes =
      Smoke ? std::vector<unsigned>{32, 64}
            : std::vector<unsigned>{256, 1024, 2048};
  unsigned Reps = Smoke ? 2 : 5;
  constexpr unsigned FuncsPerModule = 4;
  constexpr unsigned QueriesPerBlock = 96;

  std::printf("Query-mix shootout: same-value runs through the multi-query "
              "kernel vs per-query\n(prepared plane, single thread, static "
              "schedule; value-by-value interference\nstream: hot function, "
              "Zipf-ish hot values, one run per value; identical\nanswers "
              "enforced; per config: one warm pass, best of %u timed "
              "passes)\n\n",
              Reps);

  TablePrinter Table({"Blocks", "Queries", "Config", "Mq/s", "Speedup"});
  std::vector<JsonRecord> Records;
  bool AnswersAgree = true;
  constexpr unsigned LargeTier = 1024;
  double LargeSpeedup = 0;
  std::vector<std::pair<unsigned, double>> SpeedupBySize;

  for (unsigned Blocks : Sizes) {
    RandomEngine Rng(Blocks * 7919ull + 3);

    // The module: FuncsPerModule random strict-SSA procedures of this
    // tier's size. Function 0 is the hot one below.
    std::vector<std::unique_ptr<Function>> Owned;
    std::vector<const Function *> Funcs;
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI) {
      CFGGenOptions GOpts;
      GOpts.TargetBlocks = Blocks;
      CFG G0 = generateCFG(GOpts, Rng);
      ProgramGenOptions POpts;
      auto F = generateProgram(G0, POpts, Rng);
      constructSSA(*F);
      Owned.push_back(std::move(F));
      Funcs.push_back(Owned.back().get());
    }

    // Per function: the queryable values sorted hottest (most uses) first,
    // so the Zipf draw concentrates the stream on the values whose
    // interval scans cost the most — exactly where grouping amortizes.
    AnalysisManager AM;
    std::vector<std::vector<HotValue>> Hot(FuncsPerModule);
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI) {
      const DomTree &DT = AM.domTree(*Funcs[FI]);
      for (const auto &V : Funcs[FI]->values()) {
        if (!V->hasSingleDef() || !V->hasUses())
          continue;
        unsigned Def = defBlockId(*V);
        Hot[FI].push_back(
            {V->id(), DT.num(Def), DT.maxnum(Def), V->uses().size()});
      }
      std::sort(Hot[FI].begin(), Hot[FI].end(),
                [](const HotValue &A, const HotValue &B) {
                  if (A.Uses != B.Uses)
                    return A.Uses > B.Uses;
                  return A.ValueId < B.ValueId;
                });
    }

    // The interference-shaped stream: ~60% of the runs are in function 0;
    // the value rank is cubed-uniform (Zipf-ish — rank 0 is drawn far more
    // than rank k). Each drawn value A contributes one contiguous run: A
    // live out at the def block of every value defined in A's dominance
    // interval (A's own def block included).
    const DomTree *Trees[FuncsPerModule];
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI)
      Trees[FI] = &AM.domTree(*Funcs[FI]);
    std::vector<BatchQuery> Workload;
    std::size_t NumQueries = std::size_t(Blocks) * QueriesPerBlock;
    Workload.reserve(NumQueries);
    while (Workload.size() < NumQueries) {
      unsigned FI = Rng.nextBelow(10) < 6
                        ? 0
                        : 1 + Rng.nextBelow(FuncsPerModule - 1);
      const std::vector<HotValue> &Vals = Hot[FI];
      double U = Rng.nextDouble();
      const HotValue &A =
          Vals[std::size_t(double(Vals.size()) * U * U * U)];
      for (const HotValue &B : Vals)
        if (B.Lo >= A.Lo && B.Lo <= A.Hi && Workload.size() < NumQueries)
          Workload.push_back(
              {FI, A.ValueId, Trees[FI]->nodeAtNum(B.Lo), true});
    }

    // The two configurations, differing only in GroupChunks.
    BatchOptions Base;
    Base.Threads = 1;
    Base.ChunkSize = Workload.size(); // One span, no chunk-split runs.
    BatchOptions AOpts = Base, GOpts2 = Base;
    AOpts.GroupChunks = false;
    GOpts2.GroupChunks = true;
    BatchLivenessDriver Arrival(Funcs, AOpts);
    BatchLivenessDriver Grouped(Funcs, GOpts2);

    // Warm pass: populates the prepared caches and pins the reference
    // answers both configs (and every later pass) must reproduce.
    BatchResult Reference = Arrival.run(Workload);
    BatchResult GroupedWarm = Grouped.run(Workload);
    if (GroupedWarm.Answers != Reference.Answers) {
      std::printf("FAIL: grouped answers differ from arrival order at %u "
                  "blocks\n",
                  Blocks);
      AnswersAgree = false;
    }

    double ArrivalBest = 1e100, GroupedBest = 1e100;
    for (unsigned R = 0; R != Reps; ++R) {
      auto StartA = std::chrono::steady_clock::now();
      BatchResult RA = Arrival.run(Workload);
      ArrivalBest = std::min(ArrivalBest, secondsSince(StartA));
      auto StartG = std::chrono::steady_clock::now();
      BatchResult RG = Grouped.run(Workload);
      GroupedBest = std::min(GroupedBest, secondsSince(StartG));
      if (RA.Answers != Reference.Answers ||
          RG.Answers != Reference.Answers) {
        std::printf("FAIL: answers unstable across passes at %u blocks\n",
                    Blocks);
        AnswersAgree = false;
      }
    }

    double ArrivalQps = double(NumQueries) / ArrivalBest;
    double GroupedQps = double(NumQueries) / GroupedBest;
    double Speedup = GroupedQps / ArrivalQps;
    Table.addRow({std::to_string(Blocks), std::to_string(NumQueries),
                  "arrival", TablePrinter::fmt(ArrivalQps / 1e6),
                  TablePrinter::fmt(1.0)});
    Table.addRow({std::to_string(Blocks), std::to_string(NumQueries),
                  "grouped", TablePrinter::fmt(GroupedQps / 1e6),
                  TablePrinter::fmt(Speedup)});
    Records.push_back(
        JsonRecord()
            .num("blocks", std::uint64_t(Blocks))
            .num("queries", std::uint64_t(NumQueries))
            .num("arrival_queries_per_second", ArrivalQps)
            .num("grouped_queries_per_second", GroupedQps)
            .num("speedup_grouped_vs_arrival", Speedup));
    SpeedupBySize.push_back({Blocks, Speedup});
    if (Blocks == LargeTier)
      LargeSpeedup = Speedup;
  }

  Table.print();
  std::string JsonPath = writeBenchJson("querymix", Records);
  if (!JsonPath.empty())
    std::printf("\nMachine-readable results: %s\n", JsonPath.c_str());

  std::printf("\ngrouped vs arrival order:");
  for (auto [Blocks, S] : SpeedupBySize)
    std::printf(" %.2fx @ %u blocks;", S, Blocks);
  std::printf("\n");
  if (LargeSpeedup != 0)
    std::printf("large workload (%u blocks): %.2fx (target >= 1.15x) %s\n",
                LargeTier, LargeSpeedup,
                LargeSpeedup >= 1.15 ? "PASS" : "BELOW TARGET");
  std::printf("note: single-thread by design — the work-stealing scheduler "
              "adds multi-core\nthroughput on top of this ratio, but core-"
              "count-dependent speedups do not\ntravel across runners, so "
              "they are equivalence-tested rather than gated.\n");
  if (!AnswersAgree) {
    std::printf("FAIL: grouped and arrival-order answers disagree\n");
    return 1;
  }
  return 0;
}
