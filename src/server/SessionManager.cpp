//===- server/SessionManager.cpp - Per-client liveness sessions -----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/SessionManager.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <condition_variable>
#include <functional>
#include <sstream>

using namespace ssalive;
using namespace ssalive::server;
using namespace ssalive::protocol;

namespace {

/// Process-wide server telemetry: per-opcode request counters, the error
/// taxonomy, per-session lifecycle, and the query/edit totals the soak
/// suite reconciles against its request ledger. These aggregate across
/// every session; the per-session StatsWire tally is separate and stays
/// byte-stable per connection.
struct ServerTelemetry {
  telemetry::Counter ReqLoadModule{"ssalive_server_requests_load_module_total"};
  telemetry::Counter ReqQueryBatch{"ssalive_server_requests_query_batch_total"};
  telemetry::Counter ReqEditCFG{"ssalive_server_requests_edit_cfg_total"};
  telemetry::Counter ReqStats{"ssalive_server_requests_stats_total"};
  telemetry::Counter ReqMetrics{"ssalive_server_requests_metrics_total"};
  telemetry::Counter ReqShutdown{"ssalive_server_requests_shutdown_total"};
  telemetry::Counter ReqUnknown{"ssalive_server_requests_unknown_total"};
  telemetry::Counter Queries{"ssalive_server_queries_total"};
  telemetry::Counter Positives{"ssalive_server_answers_positive_total"};
  telemetry::Counter EditsApplied{"ssalive_server_edits_applied_total"};
  telemetry::Counter EditsRejected{"ssalive_server_edits_rejected_total"};
  telemetry::Counter SessionsOpened{"ssalive_server_sessions_opened_total"};
  telemetry::Counter SessionsClosed{"ssalive_server_sessions_closed_total"};
  telemetry::Gauge SessionsActive{"ssalive_server_sessions_active"};

  /// The module registry: entries resident and the text they retain,
  /// loads answered by an existing entry, and the private copies sessions
  /// re-parse on their first edit.
  telemetry::Gauge ModulesResident{"ssalive_server_modules_resident"};
  telemetry::Gauge ModuleTextBytes{"ssalive_server_module_text_bytes"};
  telemetry::Counter ModuleSharedLoads{
      "ssalive_server_module_shared_loads_total"};
  telemetry::Counter ModulePrivateCopies{
      "ssalive_server_module_private_copies_total"};
  /// Wall time of a registering load: split, parse and verify.
  telemetry::Histogram ModuleLoadNs{"ssalive_server_module_load_ns"};

  static const ServerTelemetry &get() {
    static ServerTelemetry T;
    return T;
  }
};

/// encodeError plus the error-taxonomy counter for \p Code — every error
/// reply the dispatcher produces routes through here.
std::vector<std::uint8_t> countedError(ErrorCode Code,
                                       const std::string &Msg) {
  // Keyed by the code itself, not its number: a retired code (a hole in
  // the numbering) can never shift a label.
  using telemetry::Counter;
  static const Counter Unlisted("ssalive_server_errors_unknown_total");
  static const std::pair<ErrorCode, Counter> ByCode[] = {
      {ErrorCode::MalformedFrame,
       Counter("ssalive_server_errors_malformed_frame_total")},
      {ErrorCode::UnknownOpcode,
       Counter("ssalive_server_errors_unknown_opcode_total")},
      {ErrorCode::NoModule, Counter("ssalive_server_errors_no_module_total")},
      {ErrorCode::BadModule, Counter("ssalive_server_errors_bad_module_total")},
      {ErrorCode::BadBackend,
       Counter("ssalive_server_errors_bad_backend_total")},
      {ErrorCode::BadPlane, Counter("ssalive_server_errors_bad_plane_total")},
      {ErrorCode::BadQuery, Counter("ssalive_server_errors_bad_query_total")},
      {ErrorCode::BadEdit, Counter("ssalive_server_errors_bad_edit_total")},
      {ErrorCode::FrameTooLarge,
       Counter("ssalive_server_errors_frame_too_large_total")},
      {ErrorCode::Overloaded,
       Counter("ssalive_server_errors_overloaded_total")}};
  const Counter *C = &Unlisted;
  for (const auto &[K, Counted] : ByCode)
    if (K == Code)
      C = &Counted;
  C->inc();
  return encodeError(Code, Msg);
}

} // namespace

/// Shared with LivenessServer.cpp, which answers oversized frames at the
/// transport layer (the frame never reaches a session) but must still land
/// in the same error taxonomy.
namespace ssalive::server::detail {
std::vector<std::uint8_t> countedErrorReply(protocol::ErrorCode Code,
                                            const std::string &Msg) {
  return countedError(Code, Msg);
}

/// The Metrics reply, for a session and for a connection that has none
/// (LivenessServer answers a monitor's Metrics frame without opening a
/// session). \p R is positioned after the opcode byte; \p Driver is the
/// session's, or null.
std::vector<std::uint8_t> metricsReply(WireReader &R,
                                       BatchLivenessDriver *Driver) {
  ServerTelemetry::get().ReqMetrics.inc();
  if (!R.atEnd())
    return countedError(ErrorCode::MalformedFrame,
                        "metrics request carries a body");
  // The registry is process-wide: counters from every session, every
  // layer, aggregated across thread shards at this instant. Flush the
  // session's prepared caches first so their delta-published counters are
  // current as of this reply.
  if (Driver)
    Driver->publishPreparedTelemetry();
  return encodeMetricsReply(telemetry::Registry::global().snapshot());
}
} // namespace ssalive::server::detail

/// One loaded module text and its verdict. A registered entry's fields are
/// written once, by the loader that registered it, before Ready is set; it
/// is immutable from then on, until a sole owner unregisters it (only then
/// may that owner edit the functions).
struct ssalive::server::LoadedModule {
  /// An unregistered module (a session's private copy).
  LoadedModule() = default;
  /// A registry entry retaining \p Text.
  explicit LoadedModule(std::string_view Text)
      : Text(Text), Registered(true) {
    ServerTelemetry::get().ModulesResident.add(1);
    ServerTelemetry::get().ModuleTextBytes.add(
        static_cast<std::int64_t>(this->Text.size()));
  }
  ~LoadedModule() { unregister(); }

  /// Parses \p Src into Funcs, verifying each function too when \p Verify,
  /// or records the BadModule message in Error. Each function is one ticket
  /// of \p Pool (splitModule is the split rule): its parse and verify run
  /// on whichever thread claims it, so a lone session's idle helpers share
  /// the load, a 1-thread pool (or one whose seats are all held) runs every
  /// ticket on the calling thread, and the verdict is the one serial
  /// parseModule + verifySSA reach, byte for byte. Precedence follows the
  /// serial order: the lowest-index parse error, then trailing input, then
  /// an empty module, then the lowest-index verify error.
  void load(std::string_view Src, ThreadPool &Pool, bool Verify) {
    const ModuleSplit Split = splitModule(Src);
    const std::size_t N = Split.Functions.size();
    std::vector<ParseResult> Parsed(N);
    std::vector<std::string> VerifyErrors(Verify ? N : 0);
    // The lowest failed index so far, for skipping: a ticket above a parse
    // error cannot change the verdict, and neither can a verify above a
    // verify error, or any verify once some parse error or trailing input
    // is known. So a bad module costs no more than the serial load.
    std::atomic<std::size_t> FirstParseError{N}, FirstVerifyError{N};
    auto lower = [](std::atomic<std::size_t> &Min, std::size_t I) {
      std::size_t Cur = Min.load(std::memory_order_relaxed);
      while (I < Cur &&
             !Min.compare_exchange_weak(Cur, I, std::memory_order_relaxed))
        ;
    };
    Pool.parallelFor(0, N, [&](std::size_t I) {
      if (I > FirstParseError.load(std::memory_order_relaxed))
        return;
      {
        SSALIVE_SPAN("parse");
        Parsed[I] = parseModuleFunction(Split.Functions[I], I);
      }
      if (!Parsed[I].Func) {
        lower(FirstParseError, I);
        return;
      }
      if (!Verify || Split.TrailingInput ||
          FirstParseError.load(std::memory_order_relaxed) != N ||
          I > FirstVerifyError.load(std::memory_order_relaxed))
        return;
      SSALIVE_SPAN("verify");
      // The engines require strict SSA; unlike the batch CLI (which skips
      // bad functions with a warning), a server rejects the whole load —
      // silently renumbering the surviving functions would corrupt every
      // FuncIndex the client sends afterwards.
      VerifyResult V = verifySSA(*Parsed[I].Func);
      if (!V.ok()) {
        VerifyErrors[I] =
            "function @" + Parsed[I].Func->name() + ": " + V.message();
        lower(FirstVerifyError, I);
      }
    });
    if (std::size_t I = FirstParseError.load(); I != N)
      Error = std::move(Parsed[I].Error);
    else if (Split.TrailingInput)
      Error = TrailingInputError;
    else if (N == 0)
      Error = "module has no functions";
    else if (std::size_t I = FirstVerifyError.load(); I != N)
      Error = std::move(VerifyErrors[I]);
    if (!Error.empty())
      return;
    Funcs.reserve(N);
    for (ParseResult &P : Parsed) {
      TotalBlocks += P.Func->numBlocks();
      TotalValues += P.Func->numValues();
      Funcs.push_back(std::move(P.Func));
    }
  }

  /// Single-flight: the registering loader publishes its verdict, the
  /// loaders that found the entry meanwhile wait for it.
  void publish() {
    {
      std::lock_guard<std::mutex> Lock(ReadyMutex);
      Ready = true;
    }
    ReadyCV.notify_all();
  }
  void waitReady() {
    std::unique_lock<std::mutex> Lock(ReadyMutex);
    ReadyCV.wait(Lock, [this] { return Ready; });
  }

  /// Leaves the registry's accounting and drops the retained text.
  void unregister() {
    if (!Registered)
      return;
    Registered = false;
    ServerTelemetry::get().ModulesResident.add(-1);
    ServerTelemetry::get().ModuleTextBytes.add(
        -static_cast<std::int64_t>(Text.size()));
    std::string().swap(Text);
  }

  std::string Text;
  /// In the registry. Written only under the registry lock by a sole
  /// owner, so any session holding a shared reference reads it unchanged.
  bool Registered = false;
  std::vector<std::unique_ptr<Function>> Funcs;
  std::uint64_t TotalBlocks = 0, TotalValues = 0;
  std::string Error; ///< Empty when the load succeeded.

  std::mutex ReadyMutex;
  std::condition_variable ReadyCV;
  bool Ready = false;
};

Session::~Session() {
  // The driver holds pointers into the module: drop it first.
  Driver.reset();
  if (Module)
    Owner.releaseModule(Module);
  ServerTelemetry::get().SessionsClosed.inc();
  ServerTelemetry::get().SessionsActive.add(-1);
  Owner.ActiveSessions.fetch_sub(1, std::memory_order_relaxed);
  Owner.Pool.releaseSeat();
}

std::vector<std::uint8_t> Session::handle(const std::uint8_t *Data,
                                          std::size_t Len) {
  WireReader R(Data, Len);
  std::uint8_t Op = R.u8();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "empty payload");
  const ServerTelemetry &T = ServerTelemetry::get();
  switch (static_cast<protocol::Opcode>(Op)) {
  case protocol::Opcode::LoadModule:
    T.ReqLoadModule.inc();
    return handleLoadModule(R);
  case protocol::Opcode::QueryBatch:
    T.ReqQueryBatch.inc();
    return handleQueryBatch(R);
  case protocol::Opcode::EditCFG:
    T.ReqEditCFG.inc();
    return handleEditCFG(R);
  case protocol::Opcode::Stats:
    T.ReqStats.inc();
    if (!R.atEnd())
      return countedError(ErrorCode::MalformedFrame,
                          "stats request carries a body");
    return handleStats();
  case protocol::Opcode::Metrics:
    return detail::metricsReply(R, Driver.get());
  case protocol::Opcode::Shutdown:
    T.ReqShutdown.inc();
    if (!R.atEnd())
      return countedError(ErrorCode::MalformedFrame,
                          "shutdown request carries a body");
    ShutdownSeen = true;
    return encodeOk();
  default:
    T.ReqUnknown.inc();
    break;
  }
  std::ostringstream OS;
  OS << "unknown opcode 0x" << std::hex << static_cast<unsigned>(Op);
  return countedError(ErrorCode::UnknownOpcode, OS.str());
}

std::vector<std::uint8_t> Session::handleLoadModule(WireReader &R) {
  SSALIVE_SPAN("load-module");
  std::uint8_t Backend = R.u8();
  std::uint8_t Plane = R.u8();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "load-module too short");
  // Membership, not a range check: the id spaces have holes where removed
  // variants used to be, and a hole must never be cast to an enumerator.
  auto isId = [](std::uint8_t Id, const auto &Enumerators) {
    for (auto E : Enumerators)
      if (static_cast<std::uint8_t>(E) == Id)
        return true;
    return false;
  };
  if (!isId(Backend, AllBatchBackends))
    return countedError(ErrorCode::BadBackend, "unknown backend id");
  // The plane byte is validated, not stored: both accepted ids load the
  // same session.
  if (!isId(Plane, AllQueryPlanes))
    return countedError(ErrorCode::BadPlane, "unknown query plane id");

  std::shared_ptr<LoadedModule> M = Owner.acquireModule(R.rest());
  if (!M->Error.empty()) {
    // A failed load leaves any previously loaded module in place.
    std::vector<std::uint8_t> Reply =
        countedError(ErrorCode::BadModule, M->Error);
    Owner.releaseModule(M);
    return Reply;
  }

  // Replace any previously loaded module wholesale.
  DriverOpts.Backend = static_cast<BatchBackend>(Backend);
  CounterBase = {};
  bindModule(std::move(M));
  return encodeModuleLoaded(static_cast<std::uint32_t>(FuncPtrs.size()),
                            Module->TotalBlocks, Module->TotalValues);
}

void Session::bindModule(std::shared_ptr<LoadedModule> M) {
  // The old driver holds pointers into the old functions: drop it first.
  Driver.reset();
  if (Module)
    Owner.releaseModule(Module);
  Module = std::move(M);
  FuncPtrs.clear();
  for (const auto &F : Module->Funcs)
    FuncPtrs.push_back(F.get());
  Driver = std::make_unique<BatchLivenessDriver>(FuncPtrs, DriverOpts,
                                                 Owner.pool());
}

void Session::ensurePrivateModule() {
  if (!Module->Registered || Owner.detachIfSole(Module))
    return;
  // Other sessions read this module: re-parse the retained text into a
  // copy of our own. The text was verified when it was first loaded, and
  // the parse reproduces ids, predecessor order and cfgVersion exactly.
  auto Copy = std::make_shared<LoadedModule>();
  Copy->load(Module->Text, Owner.pool(), /*Verify=*/false);
  ServerTelemetry::get().ModulePrivateCopies.inc();

  // The new driver starts cold. Re-warm it to what the old one had built —
  // after any LiveCheck-backed query batch, every function's engine (the
  // driver resolves them all per batch) — and carry the old counters over,
  // net of the warm-up's own misses, so StatsReply and every later cache
  // hit or refresh match a session that never shared.
  const AnalysisManager::CacheCounters Old =
      Driver->analysisManager().counters();
  const bool Warm = Driver->analysisManager().numCachedFunctions() != 0;
  bindModule(std::move(Copy));
  AnalysisManager &AM = Driver->analysisManager();
  if (Warm)
    Owner.pool().parallelFor(0, FuncPtrs.size(), [&](std::size_t I) {
      (void)AM.get(*FuncPtrs[I]).liveCheck();
    });
  const AnalysisManager::CacheCounters Warmup = AM.counters();
  CounterBase.Hits += Old.Hits - Warmup.Hits;
  CounterBase.Misses += Old.Misses - Warmup.Misses;
  CounterBase.Invalidations += Old.Invalidations - Warmup.Invalidations;
  CounterBase.Refreshes += Old.Refreshes - Warmup.Refreshes;
  CounterBase.JournalGaps += Old.JournalGaps - Warmup.JournalGaps;
}

std::vector<std::uint8_t> Session::handleQueryBatch(WireReader &R) {
  if (!Driver)
    return countedError(ErrorCode::NoModule, "no module loaded");
  std::uint32_t Count = R.u32();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "query batch too short");
  constexpr std::size_t ItemBytes = 3 * 4 + 1;
  if (R.remaining() != static_cast<std::size_t>(Count) * ItemBytes)
    return countedError(ErrorCode::MalformedFrame,
                       "query batch body does not match its count");

  // Decode into the session-owned buffer: capacity persists across frames,
  // so a steady stream stops paying an allocation per QueryBatch.
  std::vector<BatchQuery> &Workload = WorkloadBuf;
  Workload.clear();
  Workload.reserve(Count);
  for (std::uint32_t I = 0; I != Count; ++I) {
    BatchQuery Q;
    Q.FuncIndex = R.u32();
    Q.ValueId = R.u32();
    Q.BlockId = R.u32();
    Q.IsLiveOut = (R.u8() & 1) != 0;
    if (Q.FuncIndex >= FuncPtrs.size()) {
      std::ostringstream OS;
      OS << "query " << I << ": function index " << Q.FuncIndex
         << " out of range";
      return countedError(ErrorCode::BadQuery, OS.str());
    }
    const Function &F = *FuncPtrs[Q.FuncIndex];
    if (Q.ValueId >= F.numValues() || Q.BlockId >= F.numBlocks()) {
      std::ostringstream OS;
      OS << "query " << I << ": value/block id out of range";
      return countedError(ErrorCode::BadQuery, OS.str());
    }
    Workload.push_back(Q);
  }

  BatchResult Result = Driver->run(Workload);
  Tally.Queries += Result.Answers.size();
  std::uint64_t Positives = 0;
  for (const BatchThreadStats &S : Result.PerThread)
    Positives += S.PositiveAnswers;
  Tally.Positives += Positives;
  ServerTelemetry::get().Queries.inc(Result.Answers.size());
  ServerTelemetry::get().Positives.inc(Positives);
  return encodeAnswers(Result.Answers);
}

std::vector<std::uint8_t> Session::handleEditCFG(WireReader &R) {
  if (!Driver)
    return countedError(ErrorCode::NoModule, "no module loaded");
  std::uint32_t Count = R.u32();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "edit batch too short");
  constexpr std::size_t ItemBytes = 1 + 4 * 4;
  if (R.remaining() != static_cast<std::size_t>(Count) * ItemBytes)
    return countedError(ErrorCode::MalformedFrame,
                       "edit batch body does not match its count");

  // Session-owned decode staging, same reuse story as handleQueryBatch.
  std::vector<EditItem> &Edits = EditsBuf;
  Edits.clear();
  Edits.reserve(Count);
  for (std::uint32_t I = 0; I != Count; ++I) {
    EditItem E;
    E.Kind = R.u8();
    E.FuncIndex = R.u32();
    E.From = R.u32();
    E.To = R.u32();
    E.To2 = R.u32();
    if (E.Kind > static_cast<std::uint8_t>(MutationKind::SplitBlock)) {
      std::ostringstream OS;
      OS << "edit " << I << ": unknown edit kind "
         << static_cast<unsigned>(E.Kind);
      return countedError(ErrorCode::BadEdit, OS.str());
    }
    if (E.FuncIndex >= FuncPtrs.size()) {
      std::ostringstream OS;
      OS << "edit " << I << ": function index " << E.FuncIndex
         << " out of range";
      return countedError(ErrorCode::BadEdit, OS.str());
    }
    Edits.push_back(E);
  }

  // Shared modules are immutable: take this session's own copy before the
  // first edit touches it.
  if (!Edits.empty())
    ensurePrivateModule();

  // Apply in order, then repair once: every applied edit is journaled by
  // the IR mutators, and after the whole frame is in, one
  // AnalysisManager::refresh per *touched function* consumes that
  // function's accumulated delta journal — the coalesced form of the PR-3
  // incremental repair plane (one DFS/DomTree/LiveCheck repair pass
  // amortized over the frame instead of one per edit; the repaired result
  // is bit-identical either way, which the fuzz suites assert). The reply
  // still carries per-edit (applied, epoch) pairs captured at apply time,
  // so clients mirroring the sequence predict every byte regardless of
  // how the server schedules its repairs. Rejected edits (inapplicable to
  // the current graph) leave the function untouched and are reported per
  // item rather than failing the batch: the client's mirror makes the
  // same accept/reject decision.
  std::vector<std::unique_ptr<Function>> &Funcs = Module->Funcs;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> &Results =
      EditResultsBuf;
  Results.clear();
  Results.reserve(Edits.size());
  std::vector<std::uint8_t> &Touched = TouchedBuf;
  Touched.assign(Funcs.size(), 0);
  bool AnyApplied = false;
  for (const EditItem &E : Edits) {
    Function &F = *Funcs[E.FuncIndex];
    Mutation M;
    M.Kind = static_cast<MutationKind>(E.Kind);
    M.From = E.From;
    M.To = E.To;
    M.To2 = E.To2;
    bool Applied = applyFunctionMutation(F, M);
    if (Applied) {
      AnyApplied = true;
      Touched[E.FuncIndex] = 1;
      ++Tally.EditsApplied;
      ServerTelemetry::get().EditsApplied.inc();
    } else {
      ++Tally.EditsRejected;
      ServerTelemetry::get().EditsRejected.inc();
    }
    Results.emplace_back(Applied ? 1 : 0, F.cfgVersion());
  }
  if (AnyApplied) {
    // Baseline sessions (dataflow/path-exploration) never read the
    // manager's analyses — their engines are simply rebuilt — so the
    // in-place repair is LiveCheck-only work. The session's prepared
    // caches follow at the next query frame: the driver remaps their
    // entries onto the repaired numbering before answering.
    if (batchBackendUsesLiveCheck(Driver->backend()))
      for (std::size_t I = 0; I != Funcs.size(); ++I)
        if (Touched[I])
          Driver->analysisManager().refresh(*Funcs[I]);
    Driver->notifyCFGEdited();
  }
  return encodeEditApplied(Results);
}

std::vector<std::uint8_t> Session::handleStats() {
  StatsWire S = Tally;
  S.NumFuncs = static_cast<std::uint32_t>(FuncPtrs.size());
  S.Threads = Owner.pool().numThreads();
  if (Driver) {
    AnalysisManager::CacheCounters C = Driver->analysisManager().counters();
    S.CacheHits = CounterBase.Hits + C.Hits;
    S.CacheMisses = CounterBase.Misses + C.Misses;
    S.Invalidations = CounterBase.Invalidations + C.Invalidations;
    S.Refreshes = CounterBase.Refreshes + C.Refreshes;
  }
  return encodeStatsReply(S);
}

//===----------------------------------------------------------------------===//
// SessionManager: the module registry.
//===----------------------------------------------------------------------===//

std::shared_ptr<LoadedModule>
SessionManager::acquireModule(std::string_view Text) {
  const std::pair<std::size_t, std::size_t> Key(
      std::hash<std::string_view>{}(Text), Text.size());
  std::shared_ptr<LoadedModule> M;
  bool Shared = false;
  {
    // Under the lock: map work plus a byte compare per same-key entry, or
    // the text copy of a new one. Parsing and verifying happen outside.
    std::lock_guard<std::mutex> Lock(ModulesMutex);
    std::erase_if(Modules,
                  [](const auto &Slot) { return Slot.second.expired(); });
    auto [B, E] = Modules.equal_range(Key);
    for (auto It = B; It != E && !M; ++It) {
      std::shared_ptr<LoadedModule> Live = It->second.lock();
      if (Live && Live->Text == Text)
        M = std::move(Live);
    }
    Shared = M != nullptr;
    if (!Shared) {
      M = std::make_shared<LoadedModule>(Text);
      Modules.emplace(Key, M);
    }
  }
  if (Shared) {
    ServerTelemetry::get().ModuleSharedLoads.inc();
    M->waitReady();
  } else {
    {
      telemetry::ScopedTimerNs Timer(ServerTelemetry::get().ModuleLoadNs);
      M->load(M->Text, Pool, /*Verify=*/true);
    }
    M->publish();
  }
  return M;
}

void SessionManager::releaseModule(std::shared_ptr<LoadedModule> &M) {
  std::shared_ptr<LoadedModule> Last;
  {
    std::lock_guard<std::mutex> Lock(ModulesMutex);
    if (M.use_count() == 1)
      Last = std::move(M);
    else
      M.reset();
  }
  // A last reference frees the module here, outside the lock; its registry
  // slot expires and the next lookup prunes it.
}

bool SessionManager::detachIfSole(const std::shared_ptr<LoadedModule> &M) {
  std::lock_guard<std::mutex> Lock(ModulesMutex);
  // References are taken only under this lock (weak_ptr::lock), so a count
  // of 1 read here proves no other holder; releaseModule drops every
  // reference but a last one under it too, which orders the other holders'
  // reads of the module before the edits that follow. A stale count above 1
  // only costs a copy.
  if (M.use_count() != 1)
    return false;
  std::erase_if(Modules, [&](const auto &Slot) {
    return !Slot.second.owner_before(M) && !M.owner_before(Slot.second);
  });
  M->unregister();
  return true;
}

std::size_t SessionManager::residentModules() const {
  std::lock_guard<std::mutex> Lock(ModulesMutex);
  std::size_t Live = 0;
  for (const auto &Slot : Modules)
    Live += !Slot.second.expired();
  return Live;
}

//===----------------------------------------------------------------------===//
// SessionManager: admission.
//===----------------------------------------------------------------------===//

bool SessionManager::reserveSlot() {
  std::int64_t Live = ActiveSessions.load(std::memory_order_relaxed);
  do {
    if (Cfg.MaxSessions != 0 &&
        Live >= static_cast<std::int64_t>(Cfg.MaxSessions))
      return false;
  } while (!ActiveSessions.compare_exchange_weak(
      Live, Live + 1, std::memory_order_relaxed));
  return true;
}

std::unique_ptr<Session> SessionManager::openSession() {
  ServerTelemetry::get().SessionsOpened.inc();
  ServerTelemetry::get().SessionsActive.add(1);
  Pool.takeSeat();
  return std::unique_ptr<Session>(new Session(*this));
}

std::unique_ptr<Session> SessionManager::createSession() {
  ActiveSessions.fetch_add(1, std::memory_order_relaxed);
  return openSession();
}

std::unique_ptr<Session> SessionManager::tryCreateSession() {
  return reserveSlot() ? openSession() : nullptr;
}
