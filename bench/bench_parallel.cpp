//===- bench/bench_parallel.cpp - Query-throughput thread scaling ---------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Thread-scaling sweep for the batch liveness pipeline: one SPEC-profile
// module, one fixed query workload, thread counts 1..2*cores. Because
// LiveCheck queries are read-only against shared precomputed bitsets (stats
// go to per-worker sinks), throughput should scale near-linearly until the
// core count is exhausted. The precompute phase is also timed per thread
// count, and everything lands in BENCH_parallel.json for trend tracking.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "pipeline/BatchLivenessDriver.h"

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

using namespace ssalive;
using namespace ssalive::bench;

int main(int Argc, char **Argv) {
  unsigned Scale = parseScalePercent(Argc, Argv, 10);
  std::size_t Queries = 400000;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--queries=", 10) == 0)
      Queries = std::strtoull(Argv[I] + 10, nullptr, 10);

  // One 176.gcc-profile module, shared by every thread count.
  const SpecProfile &P = spec2000Profiles()[2];
  RandomEngine Rng(0xBA7C4);
  unsigned NumFuncs = scaledProcedures(P, Scale) / 4 + 8;
  std::vector<std::unique_ptr<Function>> Module;
  std::vector<const Function *> Funcs;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    Module.push_back(synthesizeProcedure(P, Rng));
    Funcs.push_back(Module.back().get());
  }
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(Funcs, 0xFEED, Queries);

  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  std::vector<unsigned> ThreadCounts{1};
  for (unsigned T = 2; T <= 2 * Cores; T *= 2)
    ThreadCounts.push_back(T);
  if (ThreadCounts.back() < 4)
    ThreadCounts.push_back(4); // The acceptance point even on small hosts.

  std::printf("Parallel scaling: %u functions, %zu queries, %u hardware "
              "threads\n(query throughput per worker count; answers are "
              "identical across rows)\n\n",
              NumFuncs, Workload.size(), Cores);

  TablePrinter T({"Threads", "Pre(ms)", "Query(ms)", "kQueries/s",
                  "Speedup", "Checksum"});
  std::vector<JsonRecord> Records;
  double BaselineQps = 0;
  std::uint64_t BaselineChecksum = 0;
  bool ChecksumsAgree = true;
  for (unsigned Threads : ThreadCounts) {
    BatchOptions Opts;
    Opts.Backend = BatchBackend::LiveCheckPropagated;
    Opts.Threads = Threads;
    BatchLivenessDriver Driver(Funcs, Opts);
    // Cold run builds the per-function engines (timed as precompute);
    // the warm run measures steady-state query throughput.
    BatchResult Cold = Driver.run(Workload);
    BatchResult Warm = Driver.run(Workload);
    double Qps = Warm.queriesPerSecond();
    if (Threads == 1) {
      BaselineQps = Qps;
      BaselineChecksum = Warm.checksum();
    }
    ChecksumsAgree &= Warm.checksum() == BaselineChecksum;
    char Sum[32];
    std::snprintf(Sum, sizeof(Sum), "%016llx",
                  static_cast<unsigned long long>(Warm.checksum()));
    T.addRow({std::to_string(Threads),
              TablePrinter::fmt(Cold.PrecomputeMillis),
              TablePrinter::fmt(Warm.QueryMillis),
              TablePrinter::fmt(Qps / 1e3, 0),
              TablePrinter::fmt(BaselineQps > 0 ? Qps / BaselineQps : 0),
              Sum});
    Records.push_back(JsonRecord()
                          .str("backend", batchBackendName(Opts.Backend))
                          .num("threads", std::uint64_t(Threads))
                          .num("functions", std::uint64_t(NumFuncs))
                          .num("queries", std::uint64_t(Workload.size()))
                          .num("precompute_ms", Cold.PrecomputeMillis)
                          .num("query_ms", Warm.QueryMillis)
                          .num("queries_per_sec", Qps)
                          .num("speedup_vs_1thread",
                               BaselineQps > 0 ? Qps / BaselineQps : 0));
  }
  T.print();
  std::printf("\n%s\n", ChecksumsAgree
                            ? "All rows computed identical answers."
                            : "ERROR: checksums diverge across rows!");
  std::string Path = writeBenchJson("parallel", Records);
  if (!Path.empty())
    std::printf("Machine-readable results: %s\n", Path.c_str());
  return ChecksumsAgree ? 0 : 1;
}
