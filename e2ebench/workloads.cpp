//===- e2ebench/workloads.cpp - Seeded traffic mixes and their oracle -----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/UseInfo.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/AnalysisManager.h"
#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/CFGMutator.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecProfile.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

using namespace ssalive;
namespace proto = ssalive::protocol;

namespace e2e {

namespace {

bool queryable(const Value &V) { return V.hasSingleDef() && V.hasUses(); }

/// FNV-1a: a seed salt per workload name that is stable across builds.
std::uint64_t nameSalt(const std::string &Name) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return H;
}

/// True when the entry has no predecessors and every value's def block
/// dominates each of its Definition-1 use blocks: the strict-SSA shape the
/// engine and the dataflow oracle both define liveness for. An added edge
/// can open a path around a def (or give a φ an operand whose def does not
/// reach the new predecessor); such edits are not sent.
bool strictSSA(const Function &F) {
  if (!F.entry()->predecessors().empty())
    return false;
  CFG G = CFG::fromFunction(F);
  DFS D(G);
  DomTree DT(G, D);
  std::vector<unsigned> Uses;
  for (const auto &V : F.values()) {
    if (!queryable(*V))
      continue;
    Uses.clear();
    appendLiveUseBlocks(*V, Uses);
    for (unsigned U : Uses)
      if (!DT.dominates(defBlockId(*V), U))
        return false;
  }
  return true;
}

/// Workload shapes. Block counts are fixed per workload and only the
/// graphs and programs are drawn from the seed, so a figure moves with the
/// code and the seed's content, not with a lucky draw of module sizes.
struct Shape {
  std::vector<unsigned> Blocks; ///< Target block count per function.
  std::size_t FrameSize;
};

/// \p N block counts at the mid-quantiles of the 176.gcc SPEC profile (the
/// densest row): a stratified sample of the paper's corpus shape.
std::vector<unsigned> specQuantiles(unsigned N) {
  RandomEngine Rng(0x5ca1ab1eull);
  std::vector<unsigned> Draws(20000);
  for (unsigned &D : Draws)
    D = sampleBlockCount(spec2000Profiles()[2], Rng);
  std::sort(Draws.begin(), Draws.end());
  std::vector<unsigned> Out;
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(Draws[(2 * I + 1) * Draws.size() / (2 * N)]);
  return Out;
}

Shape shapeOf(const std::string &Name, bool Tiny) {
  if (Name == "spec-uniform")
    return {specQuantiles(Tiny ? 6 : 48), Tiny ? 512u : 4096u};
  // Function 0 is the hot one; the rest fill out the 1024-2240-block tail.
  if (Name == "interference")
    return Tiny ? Shape{{160, 96}, 512} : Shape{{2048, 1024, 1536, 2240}, 4096};
  return Tiny ? Shape{{32, 32}, 128}
              : Shape{std::vector<unsigned>(16, 256), 1024};
}

/// Packs \p Qs into QueryBatch frames whose expected replies come from
/// \p Oracle. A single-function oracle (\p LocalOracle) is asked the same
/// queries with function index 0; the server's request keeps the module's.
std::vector<Frame> packQueries(server::Session &Oracle,
                               const std::vector<BatchQuery> &Qs,
                               std::size_t FrameSize,
                               bool LocalOracle = false) {
  std::vector<Frame> Out;
  std::vector<proto::QueryItem> Items;
  for (std::size_t Begin = 0; Begin < Qs.size(); Begin += FrameSize) {
    std::size_t End = std::min(Qs.size(), Begin + FrameSize);
    Items.clear();
    for (std::size_t I = Begin; I != End; ++I)
      Items.push_back(
          {Qs[I].FuncIndex, Qs[I].ValueId, Qs[I].BlockId, Qs[I].IsLiveOut});
    Frame Fr;
    Fr.Queries = static_cast<std::uint32_t>(End - Begin);
    Fr.Request = proto::encodeQueryBatch(Items);
    if (LocalOracle)
      for (proto::QueryItem &It : Items)
        It.FuncIndex = 0;
    Fr.Expected = Oracle.handle(LocalOracle ? proto::encodeQueryBatch(Items)
                                            : Fr.Request);
    Out.push_back(std::move(Fr));
  }
  return Out;
}

server::ServerConfig oracleConfig(unsigned Threads) {
  server::ServerConfig Cfg;
  Cfg.Threads = Threads;
  return Cfg;
}

std::vector<std::uint8_t> loadDataflow(const std::string &Text) {
  return proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::Dataflow),
      static_cast<std::uint8_t>(QueryPlane::BlockId), Text);
}

} // namespace

/// One function's edit-storm generator: the generator copy, a shadow copy
/// candidates are tried on, a random stream, and an oracle session holding
/// only this function. Each edit touches one function, so lanes are
/// independent and generate their cycles on all cores; a single-function
/// oracle rebuilds one function's dataflow sets per edit, not the module's.
/// The shadow is rebuilt by parsing and replaying the accepted edits, never
/// by cloneFunction: a clone lists predecessors in block order, while the
/// φ operand lists follow the order the edit history left them in.
struct Workload::EditLane {
  std::uint32_t FI;
  Function *Gen;
  const std::string &Text;
  std::vector<Mutation> Applied;
  std::unique_ptr<Function> Shadow;
  RandomEngine Rng;
  server::SessionManager Manager{oracleConfig(1)};
  std::unique_ptr<server::Session> Oracle;

  EditLane(std::uint32_t FI, Function &F, std::uint64_t Seed,
           const std::string &FuncText)
      : FI(FI), Gen(&F), Text(FuncText), Rng(Seed),
        Oracle(Manager.createSession()) {
    resetShadow();
    std::vector<std::uint8_t> R = Oracle->handle(loadDataflow(FuncText));
    if (R.empty() ||
        R[0] != static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded))
      throw std::runtime_error("oracle refused a generated function");
  }

  void resetShadow() {
    ModuleParseResult P = parseModule(Text);
    Shadow = std::move(P.Funcs.at(0));
    for (const Mutation &M : Applied)
      applyFunctionMutation(*Shadow, M);
  }

  /// One cycle: an EditCFG frame of a few localized, reducibility-
  /// preserving edits, then a run of QueryBatch frames on this function.
  std::vector<Frame> cycle(bool Tiny) {
    CFGMutatorOptions MOpts;
    MOpts.PreserveReducibility = true;
    MOpts.LocalityWindow = 8;
    MOpts.MaxNodes = Tiny ? 48 : 384;
    const unsigned EditsPerFrame = 4, QueryFramesPerCycle = 4;
    std::vector<Frame> Out;
    std::vector<proto::EditItem> Items, Local;
    for (unsigned E = 0; E != EditsPerFrame; ++E)
      for (unsigned Try = 0; Try != 8; ++Try) {
        // Candidates are chosen on the shadow; one that breaks strict SSA
        // is dropped with it and never reaches the generator copy.
        std::optional<Mutation> M = mutateFunctionCFG(*Shadow, Rng, MOpts);
        if (!M)
          break;
        if (!strictSSA(*Shadow)) {
          resetShadow();
          continue;
        }
        if (!applyFunctionMutation(*Gen, *M))
          throw std::runtime_error("chosen edit does not replay");
        Applied.push_back(*M);
        proto::EditItem It{static_cast<std::uint8_t>(M->Kind), FI, M->From,
                           M->To, M->To2};
        Items.push_back(It);
        It.FuncIndex = 0;
        Local.push_back(It);
        break;
      }
    if (!Items.empty()) {
      Frame Fr;
      Fr.IsEdit = true;
      Fr.Request = proto::encodeEditBatch(Items);
      Fr.Expected = Oracle->handle(proto::encodeEditBatch(Local));
      Out.push_back(std::move(Fr));
    }
    const std::size_t FrameSize = shapeOf("edit-storm", Tiny).FrameSize;
    std::vector<BatchQuery> Qs = BatchLivenessDriver::generateWorkload(
        {Gen}, Rng.next(), QueryFramesPerCycle * FrameSize);
    for (BatchQuery &Q : Qs)
      Q.FuncIndex = FI;
    std::vector<Frame> Frames =
        packQueries(*Oracle, Qs, FrameSize, /*LocalOracle=*/true);
    if (!Items.empty() && !Frames.empty())
      Frames.front().PostEdit = true;
    for (Frame &Fr : Frames)
      Out.push_back(std::move(Fr));
    return Out;
  }
};

bool Workload::isKnown(const std::string &Name) {
  return Name == "spec-uniform" || Name == "interference" ||
         Name == "edit-storm";
}

Workload::Workload(const std::string &Name, std::uint64_t Seed, bool Tiny,
                   unsigned Cores)
    : Name(Name), Tiny(Tiny), Cores(Cores) {
  if (!isKnown(Name))
    throw std::runtime_error("unknown workload '" + Name + "'");
  if (Name == "spec-uniform") {
    Connections = std::min(Cores, 4u);
    ServerThreads = Cores;
  } else if (Name == "interference") {
    ServerThreads = Cores;
  }
  generateModule(Seed);

  // The oracle: an independent in-process session on the Dataflow backend
  // and the block-id plane. The server under test gets the production
  // configuration; both must reply ModuleLoaded with the same bytes.
  OracleManager = std::make_unique<server::SessionManager>(oracleConfig(Cores));
  Oracle = OracleManager->createSession();
  LoadExp = Oracle->handle(loadDataflow(Text));
  if (LoadExp.empty() ||
      LoadExp[0] != static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded))
    throw std::runtime_error("oracle refused the generated module");
  LoadReq = proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), Text);

  Covers.resize(Connections);
  Streams.resize(Connections);
  if (Name == "spec-uniform") {
    generateSpecUniform(Seed);
  } else if (Name == "interference") {
    generateInterference(Seed);
  } else {
    generateEditStorm(Seed);
  }
  // Every expected reply is known: release the oracle and its pool threads
  // before anything is timed.
  Oracle.reset();
  OracleManager.reset();
}

Workload::~Workload() = default;

void Workload::generateModule(std::uint64_t Seed) {
  RandomEngine Rng(Seed ^ nameSalt(Name));
  for (unsigned Blocks : shapeOf(Name, Tiny).Blocks) {
    CFGGenOptions GOpts;
    GOpts.TargetBlocks = Blocks;
    CFG G = generateCFG(GOpts, Rng);
    ProgramGenOptions POpts;
    auto F = generateProgram(G, POpts, Rng);
    constructSSA(*F);
    FuncTexts.push_back(printFunction(*F));
    Text += FuncTexts.back();
    Text += "\n";
  }
  // The generator works on a copy parsed back from the shipped text, so
  // its value and block ids are exactly the server's and the oracle's.
  ModuleParseResult Parsed = parseModule(Text);
  if (!Parsed.Error.empty())
    throw std::runtime_error("generated module does not parse: " +
                             Parsed.Error);
  Gen = std::move(Parsed.Funcs);
  for (const auto &F : Gen)
    GenPtrs.push_back(F.get());
}

std::vector<Frame> Workload::coverFor(const std::vector<BatchQuery> &Qs) {
  std::vector<std::vector<bool>> Seen(Gen.size());
  for (std::size_t FI = 0; FI != Gen.size(); ++FI)
    Seen[FI].assign(Gen[FI]->numValues(), false);
  std::vector<BatchQuery> Cover;
  for (const BatchQuery &Q : Qs) {
    if (Seen[Q.FuncIndex][Q.ValueId])
      continue;
    Seen[Q.FuncIndex][Q.ValueId] = true;
    const Value &V = *Gen[Q.FuncIndex]->value(Q.ValueId);
    Cover.push_back({Q.FuncIndex, Q.ValueId, defBlockId(V), false});
  }
  return packQueries(*Oracle, Cover, shapeOf(Name, Tiny).FrameSize);
}

void Workload::generateSpecUniform(std::uint64_t Seed) {
  // Uniform queries from the batch driver's own generator, one stream per
  // connection; the streams are replayed cyclically while timing.
  const std::size_t FramesPerConn = Tiny ? 2 : 32;
  const std::size_t FrameSize = shapeOf(Name, Tiny).FrameSize;
  for (unsigned C = 0; C != Connections; ++C) {
    std::vector<BatchQuery> Qs = BatchLivenessDriver::generateWorkload(
        GenPtrs, Seed * 1000003 + C + 1, FramesPerConn * FrameSize);
    Streams[C] = packQueries(*Oracle, Qs, FrameSize);
    Covers[C] = coverFor(Qs);
  }
}

void Workload::generateInterference(std::uint64_t Seed) {
  // The pairwise live-at-def checks of an interference-graph builder
  // (Budimlic et al., the paper's Section-6.2 consumer): for value A, is A
  // live-out at the def block of each value B defined in A's dominance
  // subtree? Queries go value by value, so same-value runs are long.
  struct Def {
    unsigned Num;
    std::uint32_t Id;
    std::uint32_t Block;
  };
  struct PerFunc {
    std::vector<Def> ByNum;                     ///< Sorted by preorder.
    std::vector<std::pair<unsigned, unsigned>> Subtree; ///< Per ByNum entry.
    std::vector<std::size_t> Order;             ///< Shuffled A sequence.
    std::size_t Next = 0;
  };
  RandomEngine Rng(Seed * 7919 + 3);
  std::vector<PerFunc> Fs(Gen.size());
  AnalysisManager AM;
  for (std::size_t FI = 0; FI != Gen.size(); ++FI) {
    const DomTree &DT = AM.domTree(*Gen[FI]);
    PerFunc &P = Fs[FI];
    for (const auto &V : Gen[FI]->values())
      if (queryable(*V))
        P.ByNum.push_back({DT.num(defBlockId(*V)), V->id(), defBlockId(*V)});
    std::sort(P.ByNum.begin(), P.ByNum.end(), [](const Def &A, const Def &B) {
      return A.Num != B.Num ? A.Num < B.Num : A.Id < B.Id;
    });
    for (const Def &A : P.ByNum) {
      unsigned Max = DT.maxnum(A.Block);
      auto Lo = std::lower_bound(
          P.ByNum.begin(), P.ByNum.end(), A.Num,
          [](const Def &D, unsigned N) { return D.Num < N; });
      auto Hi = std::upper_bound(
          P.ByNum.begin(), P.ByNum.end(), Max,
          [](unsigned N, const Def &D) { return N < D.Num; });
      P.Subtree.emplace_back(unsigned(Lo - P.ByNum.begin()),
                             unsigned(Hi - P.ByNum.begin()));
    }
    P.Order.resize(P.ByNum.size());
    for (std::size_t I = 0; I != P.Order.size(); ++I)
      P.Order[I] = I;
    for (std::size_t I = P.Order.size(); I > 1; --I)
      std::swap(P.Order[I - 1], P.Order[Rng.nextBelow(unsigned(I))]);
  }

  const std::size_t FrameSize = shapeOf(Name, Tiny).FrameSize;
  const std::size_t Total = (Tiny ? 8 : 256) * FrameSize;
  std::vector<BatchQuery> Qs;
  Qs.reserve(Total + 8192);
  while (Qs.size() < Total) {
    // Function 0 is the hot one: it takes 70% of the A draws.
    std::uint32_t FI =
        Gen.size() == 1 || Rng.nextBelow(10) < 7
            ? 0
            : 1 + Rng.nextBelow(static_cast<unsigned>(Gen.size() - 1));
    PerFunc &P = Fs[FI];
    if (P.ByNum.empty())
      continue;
    std::size_t AI = P.Order[P.Next];
    P.Next = (P.Next + 1) % P.Order.size();
    const Def &A = P.ByNum[AI];
    for (unsigned BI = P.Subtree[AI].first; BI != P.Subtree[AI].second; ++BI)
      if (BI != AI)
        Qs.push_back({FI, A.Id, P.ByNum[BI].Block, true});
  }
  Qs.resize(Total);
  Streams[0] = packQueries(*Oracle, Qs, FrameSize);
  Covers[0] = coverFor(Qs);
}

void Workload::generateEditStorm(std::uint64_t Seed) {
  // Every value of the module is warm before the first edit; the cover is
  // answered at the initial CFG state, ahead of any edit cycle.
  std::vector<BatchQuery> All;
  for (std::uint32_t FI = 0; FI != Gen.size(); ++FI)
    for (const auto &V : Gen[FI]->values())
      if (queryable(*V))
        All.push_back({FI, V->id(), 0, false});
  Covers[0] = coverFor(All);

  // The cycle order is drawn up front; the lanes then produce their cycles
  // concurrently, and the stream interleaves them back into that order.
  std::vector<std::unique_ptr<EditLane>> Lanes;
  for (std::uint32_t FI = 0; FI != Gen.size(); ++FI)
    Lanes.push_back(std::make_unique<EditLane>(
        FI, *Gen[FI], Seed * 1315423911ull + FI, FuncTexts[FI]));
  RandomEngine CycleRng(Seed * 0x9E3779B97F4A7C15ull + 11);
  // The stream wraps (with a session reset) after Cycles cycles: each
  // function then takes some 128 edits before it returns to its generated
  // shape, which keeps the CFGs, and the oracle's dataflow cost, near the
  // generated procedures instead of drifting toward dense loop nests.
  const std::size_t Cycles = Tiny ? 8 : 512;
  std::vector<std::uint32_t> Order(Cycles);
  std::vector<std::size_t> Count(Lanes.size(), 0);
  for (std::uint32_t &L : Order) {
    L = CycleRng.nextBelow(static_cast<unsigned>(Lanes.size()));
    ++Count[L];
  }
  std::vector<std::vector<std::vector<Frame>>> Made(Lanes.size());
  std::atomic<std::size_t> NextLane{0};
  std::exception_ptr Error;
  std::atomic<bool> Failed{false};
  auto work = [&] {
    for (std::size_t L; (L = NextLane.fetch_add(1)) < Lanes.size();) {
      try {
        for (std::size_t K = 0; K != Count[L]; ++K)
          Made[L].push_back(Lanes[L]->cycle(Tiny));
      } catch (...) {
        if (!Failed.exchange(true))
          Error = std::current_exception();
      }
    }
  };
  unsigned Workers =
      static_cast<unsigned>(std::min<std::size_t>(Cores, Lanes.size()));
  std::vector<std::thread> Threads;
  for (unsigned W = 1; W < Workers; ++W)
    Threads.emplace_back(work);
  work();
  for (std::thread &T : Threads)
    T.join();
  if (Error)
    std::rethrow_exception(Error);

  std::vector<std::size_t> Taken(Lanes.size(), 0);
  for (std::uint32_t L : Order)
    for (Frame &Fr : Made[L][Taken[L]++])
      Streams[0].push_back(std::move(Fr));
}

std::vector<BatchQuery>
decodeQueries(const std::vector<std::uint8_t> &Request) {
  proto::WireReader R(Request.data(), Request.size());
  (void)R.u8();
  std::uint32_t Count = R.u32();
  std::vector<BatchQuery> Qs;
  Qs.reserve(Count);
  for (std::uint32_t I = 0; I != Count && R.ok(); ++I) {
    BatchQuery Q;
    Q.FuncIndex = R.u32();
    Q.ValueId = R.u32();
    Q.BlockId = R.u32();
    Q.IsLiveOut = (R.u8() & 1) != 0;
    Qs.push_back(Q);
  }
  return Qs;
}

std::vector<proto::EditItem>
decodeEdits(const std::vector<std::uint8_t> &Request) {
  proto::WireReader R(Request.data(), Request.size());
  (void)R.u8();
  std::uint32_t Count = R.u32();
  std::vector<proto::EditItem> Es;
  for (std::uint32_t I = 0; I != Count && R.ok(); ++I) {
    proto::EditItem E;
    E.Kind = R.u8();
    E.FuncIndex = R.u32();
    E.From = R.u32();
    E.To = R.u32();
    E.To2 = R.u32();
    Es.push_back(E);
  }
  return Es;
}

} // namespace e2e
