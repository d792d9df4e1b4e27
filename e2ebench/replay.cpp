//===- e2ebench/replay.cpp - In-process per-layer replay ------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "replay.h"

#include "core/PreparedCache.h"
#include "core/UseInfo.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "pipeline/AnalysisManager.h"
#include "support/ThreadPool.h"
#include "workload/CFGMutator.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

using namespace ssalive;
namespace proto = ssalive::protocol;

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// Median of three timed calls, in milliseconds: one-shot layers (parse,
/// verify, dominator trees) are short enough for a stray preemption to
/// double a single sample.
template <class Fn> double medianMillis(Fn &&Body) {
  double T[3];
  for (double &Sample : T) {
    auto T0 = Clock::now();
    Body();
    Sample = usSince(T0) / 1e3;
  }
  std::sort(T, T + 3);
  return T[1];
}

bool queryable(const Value &V) { return V.hasSingleDef() && V.hasUses(); }

std::vector<const Function *>
pointers(const std::vector<std::unique_ptr<Function>> &Funcs) {
  std::vector<const Function *> Out;
  for (const auto &F : Funcs)
    Out.push_back(F.get());
  return Out;
}

} // namespace

std::uint64_t
replayLayers(const Workload &W, unsigned Threads, std::size_t MaxQueryFrames,
             std::map<std::string, std::pair<double, const char *>> &Out) {
  std::uint64_t Mismatches = 0;
  const std::string &Text = W.moduleText();

  // ---- ir and analysis: the set-up layers a LoadModule and the first
  // query pay for.
  Out["ir.parse_ms"] = {medianMillis([&] { (void)parseModule(Text); }), "ms"};
  ModuleParseResult Parsed = parseModule(Text);
  Out["ir.verify_ms"] = {medianMillis([&] {
                           for (const auto &F : Parsed.Funcs)
                             Mismatches += verifySSA(*F).ok() ? 0 : 1;
                         }),
                         "ms"};
  Out["analysis.domtree_ms"] = {medianMillis([&] {
                                  AnalysisManager AM;
                                  for (const auto &F : Parsed.Funcs)
                                    (void)AM.domTree(*F);
                                }),
                                "ms"};

  const std::vector<Frame> &Cover = W.cover(0);
  std::vector<const Frame *> Frames;
  std::size_t QueryFrames = 0;
  for (const Frame &Fr : W.stream(0)) {
    if (!Fr.IsEdit && QueryFrames == MaxQueryFrames)
      break;
    QueryFrames += Fr.IsEdit ? 0 : 1;
    Frames.push_back(&Fr);
  }

  // ---- server: Session::handle without the transport.
  {
    server::ServerConfig Cfg;
    Cfg.Threads = Threads;
    server::SessionManager SM(Cfg);
    std::unique_ptr<server::Session> S = SM.createSession();
    Mismatches += S->handle(W.loadRequest()) != W.loadExpected();
    for (const Frame &Fr : Cover)
      Mismatches += S->handle(Fr.Request) != Fr.Expected;
    double Sum = 0;
    for (const Frame *Fr : Frames) {
      auto T0 = Clock::now();
      std::vector<std::uint8_t> Reply = S->handle(Fr->Request);
      double Us = usSince(T0);
      Mismatches += Reply != Fr->Expected;
      Sum += Fr->IsEdit ? 0 : Us;
    }
    Out["server.inproc_handle_us"] = {QueryFrames ? Sum / QueryFrames : 0,
                                      "us"};
  }

  // ---- pipeline and core: two copies of the module, one behind a grouped
  // driver (the production default) and one behind an arrival-order
  // driver, sharing one pool. Edits are mirrored into both.
  ModuleParseResult GA = parseModule(Text), GB = parseModule(Text);
  std::vector<const Function *> FA = pointers(GA.Funcs),
                                FB = pointers(GB.Funcs);
  ThreadPool Pool(Threads);
  BatchOptions GroupedOpts;
  BatchOptions ArrivalOpts;
  ArrivalOpts.GroupChunks = false;
  BatchLivenessDriver Grouped(FA, GroupedOpts, Pool);
  BatchLivenessDriver Arrival(FB, ArrivalOpts, Pool);
  for (const Frame &Fr : Cover) {
    std::vector<BatchQuery> Qs = decodeQueries(Fr.Request);
    (void)Grouped.run(Qs);
    (void)Arrival.run(Qs);
  }

  // core: a cold PreparedCache::ensure over every cover value, on caches of
  // our own beside the driver's.
  std::vector<std::unique_ptr<PreparedCache>> Caches(FA.size());
  for (std::size_t FI = 0; FI != FA.size(); ++FI) {
    FunctionAnalyses &An = Grouped.analysisManager().get(*FA[FI]);
    Caches[FI] =
        std::make_unique<PreparedCache>(*FA[FI], An.liveCheck(), An.domTree());
    Caches[FI]->sizeToFunction();
  }
  {
    std::size_t Values = 0;
    auto T0 = Clock::now();
    for (const Frame &Fr : Cover)
      for (const BatchQuery &Q : decodeQueries(Fr.Request)) {
        const Value &V = *FA[Q.FuncIndex]->value(Q.ValueId);
        if (queryable(V)) {
          (void)Caches[Q.FuncIndex]->ensure(V);
          ++Values;
        }
      }
    Out["core.prepare_us_per_value"] = {Values ? usSince(T0) / Values : 0,
                                        "us"};
  }

  double RefreshUs = 0, GroupedUs = 0, ArrivalUs = 0, EnsureUs = 0;
  double KernelNs = 0, RunLenSum = 0;
  std::size_t EditFrames = 0, Replayed = 0, KernelQueries = 0;
  std::vector<const LiveCheck *> Engines(FA.size());
  std::vector<std::uint8_t> Answers;
  for (const Frame *Fr : Frames) {
    if (Fr->IsEdit) {
      std::vector<std::uint8_t> Touched(FA.size(), 0);
      for (const proto::EditItem &E : decodeEdits(Fr->Request)) {
        Mutation M{static_cast<MutationKind>(E.Kind), E.From, E.To, E.To2};
        bool AppliedA = applyFunctionMutation(*GA.Funcs[E.FuncIndex], M);
        bool AppliedB = applyFunctionMutation(*GB.Funcs[E.FuncIndex], M);
        Mismatches += AppliedA != AppliedB;
        Touched[E.FuncIndex] |= AppliedA;
      }
      auto T0 = Clock::now();
      for (std::size_t FI = 0; FI != FA.size(); ++FI)
        if (Touched[FI])
          (void)Grouped.analysisManager().refresh(*FA[FI]);
      RefreshUs += usSince(T0);
      ++EditFrames;
      for (std::size_t FI = 0; FI != FB.size(); ++FI)
        if (Touched[FI])
          (void)Arrival.analysisManager().refresh(*FB[FI]);
      Grouped.notifyCFGEdited();
      Arrival.notifyCFGEdited();
      continue;
    }

    std::vector<BatchQuery> Qs = decodeQueries(Fr->Request);
    // Alternate which configuration runs first so drift (frequency, cache
    // state) does not bias the difference.
    BatchResult RG, RA;
    double TG = 0, TA = 0;
    for (int Turn = 0; Turn != 2; ++Turn) {
      auto T0 = Clock::now();
      if ((Turn == 0) == (Replayed % 2 == 0)) {
        RG = Grouped.run(Qs);
        TG = usSince(T0);
      } else {
        RA = Arrival.run(Qs);
        TA = usSince(T0);
      }
    }
    Mismatches += RG.Answers != RA.Answers;
    Mismatches += proto::encodeAnswers(RG.Answers) != Fr->Expected;
    GroupedUs += TG;
    ArrivalUs += TA;

    std::unordered_set<std::uint64_t> Distinct;
    for (const BatchQuery &Q : Qs)
      Distinct.insert((std::uint64_t(Q.FuncIndex) << 32) | Q.ValueId);
    RunLenSum += Distinct.empty() ? 0 : double(Qs.size()) / Distinct.size();

    // core: a warm ensure sweep over the frame's values (a first, untimed
    // sweep rebuilds what an edit dropped), then the prepared kernels over
    // the frame in arrival order on this thread.
    for (std::size_t FI = 0; FI != FA.size(); ++FI) {
      FunctionAnalyses &An = Grouped.analysisManager().get(*FA[FI]);
      Caches[FI]->rebind(An.liveCheck(), An.domTree());
      Caches[FI]->sizeToFunction();
      Engines[FI] = &An.liveCheck();
    }
    auto sweep = [&] {
      for (const BatchQuery &Q : Qs) {
        const Value &V = *FA[Q.FuncIndex]->value(Q.ValueId);
        if (queryable(V))
          (void)Caches[Q.FuncIndex]->ensure(V);
      }
    };
    sweep();
    auto T0 = Clock::now();
    sweep();
    EnsureUs += usSince(T0);

    Answers.assign(Qs.size(), 0);
    T0 = Clock::now();
    for (std::size_t I = 0; I != Qs.size(); ++I) {
      const BatchQuery &Q = Qs[I];
      const Value &V = *FA[Q.FuncIndex]->value(Q.ValueId);
      if (!queryable(V))
        continue;
      const LiveCheck::PreparedVar &P = Caches[Q.FuncIndex]->cached(V);
      const LiveCheck &E = *Engines[Q.FuncIndex];
      Answers[I] = Q.IsLiveOut ? E.isLiveOutPrepared(P, Q.BlockId)
                               : E.isLiveInPrepared(P, Q.BlockId);
    }
    KernelNs += usSince(T0) * 1e3;
    KernelQueries += Qs.size();
    Mismatches += Answers != RG.Answers;
    ++Replayed;
  }

  double N = Replayed ? double(Replayed) : 1;
  Out["pipeline.run_us"] = {GroupedUs / N, "us"};
  Out["pipeline.group_gain_us"] = {(ArrivalUs - GroupedUs) / N, "us"};
  Out["pipeline.same_value_run_len"] = {RunLenSum / N, "count"};
  Out["pipeline.refresh_us"] = {EditFrames ? RefreshUs / EditFrames : 0,
                                "us"};
  Out["core.ensure_us"] = {EnsureUs / N, "us"};
  Out["core.kernel_ns_per_query"] = {
      KernelQueries ? KernelNs / KernelQueries : 0, "ns"};
  double RtBytes = 0;
  for (const Function *F : FA)
    RtBytes += Grouped.analysisManager().get(*F).liveCheck().memoryBytes();
  Out["core.rt_bytes"] = {RtBytes, "bytes"};
  return Mismatches;
}

} // namespace e2e
