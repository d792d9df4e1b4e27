//===- server/SessionManager.h - Per-client liveness sessions ---*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session state of the liveness query server: each connected client owns a
/// Session — a reference to its loaded module, a BatchLivenessDriver over
/// the process-wide ThreadPool, and request counters. Session::handle is the
/// whole command interpreter: one decoded request payload in, the exact
/// reply payload out, so socket handlers, in-process tests, and the
/// protocol fuzzer all drive the identical dispatch path.
///
/// Query batches fan out across the shared pool exactly like the batch
/// driver's workloads: the reply's answer bytes are the driver's per-worker
/// answer spans (each worker writes only its contiguous slice — no
/// cross-worker locks on the hot path), so replies are byte-identical for
/// any thread count and any interleaving of other sessions on the pool.
///
/// Every open session holds one seat of the shared pool for its whole life
/// (ThreadPool::takeSeat, taken in openSession and returned by ~Session):
/// the core its connection thread runs on stays out of the pool's helper
/// budget even while the session is reading, decoding, encoding or writing
/// rather than inside a pool call. A frame's pool calls therefore wake at
/// most Threads - max(open sessions, active callers) - helpers already
/// woken other threads. A lone session on a 4-thread pool still fans out
/// to 3 helpers; 4 sessions on 4 threads never wake a helper that would
/// compete with another session's connection thread. An idle session
/// keeps its seat: that can cost the other sessions helpers, never an
/// answer, since the budget only decides how many helpers are woken.
///
/// CFG-edit commands replay deterministic mutations against the session's
/// module (workload::applyFunctionMutation), coalesced per frame: all
/// mutations apply first, then one AnalysisManager::refresh per touched
/// function consumes that function's whole delta journal — the incremental
/// repair plane — instead of dropping the cached analyses or repairing
/// once per edit. A client that applies the same mutation sequence to its
/// own copy of the module can therefore predict every reply bit, which is
/// the contract the differential soak suite enforces.
///
/// Parsed modules are shared, engines are not. The SessionManager keeps a
/// registry of loaded modules keyed by (hash of the text, length); a load
/// whose bytes equal a registered entry's retained text — compared in
/// full, a hash match alone never hands a client a module it did not send
/// — takes a reference to that entry instead of parsing its own copy.
/// Loads are single-flight: the first loader of a text parses and verifies
/// it outside the registry lock, and concurrent loaders of the same bytes
/// wait for its verdict, so they all get the same ModuleLoaded reply or the
/// same Error(BadModule). Loaders of different texts never wait on each
/// other's parse.
///
/// The load itself runs on the shared pool: the text is split at function
/// boundaries (splitModule) and each function's parse and verify is one
/// parallelFor ticket, under the seat budget above like any query batch.
/// A lone session's load fans out to its 3 idle helpers; with every seat
/// held (4 sessions on 4 threads, as on spec-uniform) or on a 1-thread
/// pool, the loader runs every ticket itself. The single flight's waiters
/// sit idle on the entry's condition variable; they do not help the
/// loader. Whatever the schedule, the verdict is the serial parseModule +
/// verifySSA one, byte for byte: the lowest-index parse error, then
/// trailing input, then an empty module, then the lowest-index verify
/// error. Tickets above a failed one skip their work, so a bad module
/// costs no more than a serial load. The registry holds weak references and sessions strong
/// ones, so a module dies with its last session; expired entries are
/// pruned on lookup. Each session keeps its own driver (AnalysisManager,
/// prepared caches, baseline engines), tally, and decode buffers — the
/// StatsReply cache counters stay a pure function of the session's own
/// requests.
///
/// Shared modules are immutable; a session copies its module on its first
/// valid EditCFG frame. A session that holds the only reference unregisters
/// the entry, drops its retained text and edits in place (no copy — an
/// edited module is never handed to a later loader of the original text).
/// Otherwise it re-parses the retained text into a private copy, through
/// the same per-function tickets as a load (without verify): parsing
/// reproduces value ids, predecessor (hence phi operand) order and
/// cfgVersion exactly, so EditApplied epochs and answers are those of a
/// session that never shared. The session's driver is rebuilt over the
/// copy and re-warmed to the analyses it had, with its cache counters
/// carried over, so StatsReply is unchanged too.
///
/// A LiveCheck session answers through the driver's one query plane, the
/// prepared cache: each value's use blocks are collected and renumbered
/// once (core/PreparedCache) and reused across every later query batch of
/// the connection. LoadModule's plane byte selects nothing: ids 0 and 3
/// both load this session. After CFG
/// edits the next query batch remaps the entries onto the repaired
/// numbering (PreparedCache::syncNumbering), so a long-lived session pays
/// the chain walk again only for values whose def-use chain changed (or,
/// rarely, whose mask width a block split changed).
///
/// A session lives exactly as long as its connection: when the peer hangs
/// up, the session and every cache it built are dropped.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SERVER_SESSIONMANAGER_H
#define SSALIVE_SERVER_SESSIONMANAGER_H

#include "pipeline/BatchLivenessDriver.h"
#include "server/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace ssalive {

class Function;

namespace server {

/// Server-wide knobs, shared by every session.
struct ServerConfig {
  /// Workers in the shared query pool; 0 = hardware concurrency.
  unsigned Threads = 1;
  /// Frame cap for both directions.
  std::size_t MaxFrameBytes = protocol::DefaultMaxFrameBytes;

  /// \name Overload shedding.
  /// @{
  /// Accepted connections beyond this cap get one well-formed
  /// Error(Overloaded) and an immediate close instead of a handler.
  /// 0 = unlimited.
  unsigned MaxConnections = 1024;
  /// Per-connection in-flight budget: when a just-read frame still has
  /// more than this many request bytes queued behind it (the client is
  /// flooding frames faster than it drains replies), the frame is answered
  /// Error(Overloaded) WITHOUT being dispatched — bounded shed work per
  /// frame, no allocation proportional to the flood. 0 = disabled.
  std::size_t InFlightBudgetBytes = 8u << 20;

  /// Session cap: when this many sessions are live, the transport answers
  /// a frame that would open a NEW session (a connection's first, or the
  /// retry of a shed one) with Error(Overloaded) instead; existing
  /// sessions keep being served. The check and the slot reservation are
  /// one atomic step (SessionManager::tryCreateSession), so concurrent
  /// admissions never overshoot. 0 = unlimited.
  std::size_t MaxSessions = 0;
  /// @}
};

class SessionManager;
struct LoadedModule;

/// One client's state. Not thread-safe by itself — exactly one connection
/// handler drives a session (the phase discipline of the pipeline layer);
/// concurrency comes from many sessions sharing the pool.
class Session {
public:
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Interprets one request payload and returns the reply payload. Never
  /// throws and never crashes on malformed input: anything undecodable or
  /// out of range yields an Error reply.
  std::vector<std::uint8_t> handle(const std::uint8_t *Data,
                                   std::size_t Len);
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t> &Payload) {
    return handle(Payload.data(), Payload.size());
  }

  /// True once a Shutdown request was seen (the transport layer stops the
  /// server after sending the Ok reply).
  bool shutdownRequested() const { return ShutdownSeen; }

  /// \name Introspection for tests (the server-routed fuzz mode compares
  /// the session's repaired analyses bit for bit against fresh rebuilds).
  /// @{
  bool hasModule() const { return Driver != nullptr; }
  unsigned numFunctions() const {
    return static_cast<unsigned>(FuncPtrs.size());
  }
  /// Read-only: the module may be shared with other sessions, and only
  /// EditCFG (which copies it first) may change it.
  const Function &function(unsigned I) const { return *FuncPtrs[I]; }
  BatchLivenessDriver &driver() { return *Driver; }
  /// @}

private:
  /// Only the manager creates sessions: it reserves the live-session slot
  /// the destructor releases.
  explicit Session(SessionManager &Owner) : Owner(Owner) {}

  std::vector<std::uint8_t> handleLoadModule(protocol::WireReader &R);
  std::vector<std::uint8_t> handleQueryBatch(protocol::WireReader &R);
  std::vector<std::uint8_t> handleEditCFG(protocol::WireReader &R);
  std::vector<std::uint8_t> handleStats();

  /// Points the session at \p M and builds a fresh driver over it.
  void bindModule(std::shared_ptr<LoadedModule> M);
  /// Makes the session's module its own before an edit: unregisters it
  /// when this session holds the only reference, else swaps in a private
  /// re-parse of the retained text (see the file comment).
  void ensurePrivateModule();

  friend class SessionManager;

  SessionManager &Owner;
  std::shared_ptr<LoadedModule> Module;
  std::vector<const Function *> FuncPtrs;
  BatchOptions DriverOpts;
  std::unique_ptr<BatchLivenessDriver> Driver;
  /// Added to the driver's cache counters in StatsReply: what a driver
  /// rebuilt by ensurePrivateModule carries over from the one it replaced
  /// (modular, net of the rebuild's own warm-up misses).
  AnalysisManager::CacheCounters CounterBase;
  /// Per-session tallies, kept in reply shape. StatsReply stays a pure
  /// function of this session's request sequence (the differential oracles
  /// byte-compare it); the process-wide registry — what the Metrics opcode
  /// reports — accumulates the same events across all sessions.
  protocol::StatsWire Tally;
  bool ShutdownSeen = false;

  /// Decode staging reused across frames: a session serving a steady query
  /// stream decodes thousands of frames, and a fresh std::vector per frame
  /// put an allocate/free pair on every one. clear() keeps capacity, so
  /// after the first frame of each size class the handlers allocate
  /// nothing. Replies are unaffected — reuse never reaches the wire.
  std::vector<BatchQuery> WorkloadBuf;
  std::vector<protocol::EditItem> EditsBuf;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> EditResultsBuf;
  std::vector<std::uint8_t> TouchedBuf;
};

/// Owns what every session shares: the config, the one process-wide query
/// pool (one seat per open session), the live-session count the session
/// cap reads, and the module registry. Thread-safe; sessions are created
/// from concurrent connection handlers.
class SessionManager {
public:
  explicit SessionManager(ServerConfig Cfg) : Cfg(Cfg), Pool(Cfg.Threads) {}

  const ServerConfig &config() const { return Cfg; }
  ThreadPool &pool() { return Pool; }

  /// Opens a session regardless of the session cap (in-process harnesses
  /// and oracles).
  std::unique_ptr<Session> createSession();

  /// Capped admission: reserves a live-session slot with one
  /// compare-and-swap and opens the session in it; null when
  /// ServerConfig::MaxSessions sessions are already live.
  std::unique_ptr<Session> tryCreateSession();

  /// Sessions currently alive (created, not yet destroyed) — the figure
  /// the session cap is checked against.
  std::int64_t activeSessions() const {
    return ActiveSessions.load(std::memory_order_relaxed);
  }

  /// Modules currently in the registry: alive, and not yet made private by
  /// a sole owner's edit (tests).
  std::size_t residentModules() const;

private:
  friend class Session;

  /// The registered module whose text equals \p Text, loaded and verified
  /// by the first caller and waited for by concurrent ones. The result may
  /// carry an error verdict instead of functions. Prunes expired entries.
  std::shared_ptr<LoadedModule> acquireModule(std::string_view Text);
  /// Drops a session's reference. Under the registry lock, so a later
  /// sole-owner check that sees the reference gone is ordered after every
  /// read the session made of the module.
  void releaseModule(std::shared_ptr<LoadedModule> &M);
  /// If \p M holds the only reference, unregisters the entry, drops its
  /// text and returns true: the caller may then edit it in place.
  bool detachIfSole(const std::shared_ptr<LoadedModule> &M);

  /// Claims a live-session slot unless the cap is reached.
  bool reserveSlot();
  /// Opens a session in an already reserved slot; it takes a pool seat.
  std::unique_ptr<Session> openSession();

  ServerConfig Cfg;
  ThreadPool Pool;
  std::atomic<std::int64_t> ActiveSessions{0};

  mutable std::mutex ModulesMutex;
  /// Keyed by (hash of the text, length); entries with equal keys are told
  /// apart by their full text.
  std::multimap<std::pair<std::size_t, std::size_t>,
                std::weak_ptr<LoadedModule>>
      Modules;
};

} // namespace server
} // namespace ssalive

#endif // SSALIVE_SERVER_SESSIONMANAGER_H
