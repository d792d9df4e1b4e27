//===- tools/ssalive-batch.cpp - Module-level batch liveness CLI ----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Batch liveness driver front end: parses a multi-function .ssair module
// (or synthesizes a SPEC-profile one), runs a query workload through the
// concurrent pipeline with a selectable backend, and prints a throughput
// report.
//
//   ssalive-batch [options] [module.ssair]
//     --backend=propagated|dataflow|path-exploration
//                 propagated is the paper's engine with the Section-5.2
//                 T sets (default); dataflow and path-exploration are
//                 independent baselines
//     --threads=N     worker threads (default 1; 0 = hardware concurrency)
//     --queries=N     workload size (default 500000)
//     --seed=S        workload RNG seed (default 42)
//     --repeat=R      run the workload R times against one driver
//                     (default 2: the second run measures the amortized,
//                     cache-warm regime)
//     --generate=N    ignore input file, synthesize N SPEC-profile
//                     functions (default when no file is given: 64)
//     --verify        cross-check the parallel answers against a
//                     single-threaded run
//     --verify-all    additionally demand every other backend agrees on
//                     the whole workload
//     --expect-checksum=HEX
//                     demand the answer checksum equals HEX (16 hex
//                     digits) — lets CI pin an expected result and lets
//                     the test suite prove a deliberately corrupted
//                     expectation fails the run
//
// Every verification failure is *latched*: all checks run, each mismatch
// is reported, and the process exits nonzero if any check failed — a
// later backend agreeing must never wash out an earlier mismatch.
//
//===----------------------------------------------------------------------===//

#include "ToolUtil.h"
#include "ir/Function.h"
#include "pipeline/BatchLivenessDriver.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ssalive;

namespace {

struct CliOptions {
  BatchBackend Backend = BatchBackend::LiveCheckPropagated;
  unsigned Threads = 1;
  std::size_t Queries = 500000;
  std::uint64_t Seed = 42;
  unsigned Repeat = 2;
  unsigned Generate = 0;
  bool Verify = false;
  bool VerifyAll = false;
  bool HasExpectedChecksum = false;
  std::uint64_t ExpectedChecksum = 0;
  std::string InputPath;
};

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    std::uint64_t N = 0;
    if (Arg.rfind("--backend=", 0) == 0) {
      if (!parseBatchBackend(Arg.substr(10), Opts.Backend)) {
        std::fprintf(stderr, "unknown backend '%s'\n", Arg.c_str() + 10);
        return false;
      }
    } else if (Arg.rfind("--threads=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 10, N)) {
      Opts.Threads = static_cast<unsigned>(N);
    } else if (Arg.rfind("--queries=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 10, N)) {
      Opts.Queries = N;
    } else if (Arg.rfind("--seed=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 7, N)) {
      Opts.Seed = N;
    } else if (Arg.rfind("--repeat=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 9, N) && N != 0) {
      Opts.Repeat = static_cast<unsigned>(N);
    } else if (Arg.rfind("--generate=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 11, N) && N != 0) {
      Opts.Generate = static_cast<unsigned>(N);
    } else if (Arg == "--verify") {
      Opts.Verify = true;
    } else if (Arg == "--verify-all") {
      Opts.Verify = true;
      Opts.VerifyAll = true;
    } else if (Arg.rfind("--expect-checksum=", 0) == 0) {
      char *End = nullptr;
      Opts.ExpectedChecksum = std::strtoull(Arg.c_str() + 18, &End, 16);
      if (!End || *End != '\0' || End == Arg.c_str() + 18) {
        std::fprintf(stderr, "bad checksum '%s'\n", Arg.c_str() + 18);
        return false;
      }
      Opts.HasExpectedChecksum = true;
      Opts.Verify = true;
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Opts.InputPath.empty() && Opts.Generate == 0)
    Opts.Generate = 64;
  return true;
}

std::vector<std::unique_ptr<Function>> loadModule(const CliOptions &Opts) {
  if (Opts.InputPath.empty())
    return tool::synthesizeModule(Opts.Generate, Opts.Seed);

  std::string Text = tool::readFileOrEmpty(Opts.InputPath);
  if (Text.empty())
    return {};
  ModuleParseResult R = parseModule(Text);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "%s: %s\n", Opts.InputPath.c_str(),
                 R.Error.c_str());
    return {};
  }
  // Liveness checking requires strict SSA; drop (with a warning) any
  // function the verifier rejects rather than answering garbage for it.
  std::vector<std::unique_ptr<Function>> Module;
  for (auto &F : R.Funcs) {
    VerifyResult V = verifySSA(*F);
    if (!V.ok()) {
      std::fprintf(stderr, "warning: skipping non-SSA function @%s: %s\n",
                   F->name().c_str(), V.message().c_str());
      continue;
    }
    Module.push_back(std::move(F));
  }
  return Module;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  std::vector<std::unique_ptr<Function>> Module = loadModule(Opts);
  if (Module.empty()) {
    std::fprintf(stderr, "no functions to run\n");
    return 1;
  }
  std::vector<const Function *> Funcs;
  std::size_t TotalBlocks = 0, TotalValues = 0;
  for (const auto &F : Module) {
    Funcs.push_back(F.get());
    TotalBlocks += F->numBlocks();
    TotalValues += F->numValues();
  }

  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(Funcs, Opts.Seed, Opts.Queries);
  if (Workload.empty()) {
    std::fprintf(stderr, "no queryable values in the module\n");
    return 1;
  }

  BatchOptions DOpts;
  DOpts.Backend = Opts.Backend;
  DOpts.Threads = Opts.Threads;
  BatchLivenessDriver Driver(Funcs, DOpts);

  std::printf("ssalive-batch: %zu functions (%zu blocks, %zu values), "
              "%zu queries, backend=%s, threads=%u\n",
              Funcs.size(), TotalBlocks, TotalValues, Workload.size(),
              batchBackendName(Opts.Backend), Driver.numThreads());

  BatchResult Last;
  for (unsigned Run = 0; Run != Opts.Repeat; ++Run) {
    Last = Driver.run(Workload);
    LiveCheckStats Engine = Last.totalEngineStats();
    std::uint64_t Positive = 0;
    for (const BatchThreadStats &S : Last.PerThread)
      Positive += S.PositiveAnswers;
    std::printf("  run %u%s: precompute (engines + cold builds) %.2f ms, "
                "queries (incl. prepared-cache ensures) %.2f ms "
                "(%.0f q/s), %llu live (%.1f%%), %llu targets visited\n",
                Run + 1, Run == 0 ? " (cold)" : " (warm)",
                Last.PrecomputeMillis, Last.QueryMillis,
                Last.queriesPerSecond(),
                static_cast<unsigned long long>(Positive),
                100.0 * double(Positive) / double(Workload.size()),
                static_cast<unsigned long long>(Engine.TargetsVisited));
  }

  AnalysisManager::CacheCounters C = Driver.analysisManager().counters();
  std::printf("  analysis cache: %llu misses, %llu hits, %llu "
              "invalidations\n",
              static_cast<unsigned long long>(C.Misses),
              static_cast<unsigned long long>(C.Hits),
              static_cast<unsigned long long>(C.Invalidations));
  std::printf("  checksum: %016llx\n",
              static_cast<unsigned long long>(Last.checksum()));

  if (Opts.Verify) {
    // Every check runs and every mismatch latches: exiting early (or
    // letting the most recent comparison overwrite the verdict) would
    // report success whenever the *last* backend checked happens to
    // agree. The latch-pin ctest feeds a corrupted --expect-checksum
    // first and asserts the run still fails after all later checks pass.
    bool Failed = false;

    if (Opts.HasExpectedChecksum) {
      if (Last.checksum() != Opts.ExpectedChecksum) {
        std::fprintf(stderr,
                     "FAIL: checksum %016llx does not match expected "
                     "%016llx\n",
                     static_cast<unsigned long long>(Last.checksum()),
                     static_cast<unsigned long long>(Opts.ExpectedChecksum));
        Failed = true;
      } else {
        std::printf("  verify: checksum matches expectation\n");
      }
    }

    BatchOptions SOpts = DOpts;
    SOpts.Threads = 1;
    BatchLivenessDriver Single(Funcs, SOpts);
    BatchResult Ref = Single.run(Workload);
    if (Ref.Answers != Last.Answers) {
      std::fprintf(stderr, "FAIL: parallel answers differ from "
                           "single-threaded reference\n");
      Failed = true;
    } else {
      std::printf("  verify: %u-thread answers identical to "
                  "single-threaded reference\n",
                  Driver.numThreads());
    }

    // Grouping differential: locality-grouped chunks must answer
    // byte-identically to per-query arrival order, kept as an in-tool
    // oracle.
    {
      BatchOptions AOpts = DOpts;
      AOpts.GroupChunks = false;
      BatchLivenessDriver Arrival(Funcs, AOpts);
      BatchResult ArrivalRef = Arrival.run(Workload);
      if (ArrivalRef.Answers != Last.Answers) {
        std::fprintf(stderr, "FAIL: grouped answers differ from "
                             "arrival-order answers\n");
        Failed = true;
      } else {
        std::printf("  verify: answers identical in arrival order\n");
      }
    }

    if (Opts.VerifyAll) {
      for (BatchBackend B : AllBatchBackends) {
        if (B == Opts.Backend)
          continue;
        BatchOptions BOpts = SOpts;
        BOpts.Backend = B;
        BatchLivenessDriver Other(Funcs, BOpts);
        BatchResult OtherRes = Other.run(Workload);
        if (OtherRes.Answers != Last.Answers) {
          std::fprintf(stderr, "FAIL: backend %s disagrees with %s\n",
                       batchBackendName(B),
                       batchBackendName(Opts.Backend));
          Failed = true;
        } else {
          std::printf("  verify: backend %s agrees\n", batchBackendName(B));
        }
      }
    }

    if (Failed) {
      std::fprintf(stderr, "FAIL: verification failed (see above)\n");
      return 1;
    }
  }
  return 0;
}
