//===- server/LivenessServer.h - Long-lived liveness server -----*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived liveness query server: accepts concurrent clients over
/// unix-domain sockets and TCP (one shared poll-based acceptor, one
/// handler thread and one Session per connection) or serves a single
/// session over an arbitrary duplex fd pair — the pipe transport the
/// --stdio mode and the in-process test/bench harnesses use. The server
/// owns one SessionManager: every connection's session shares its query
/// ThreadPool and module registry; per-worker answer spans keep the hot
/// path lock-free and replies byte-identical regardless of client
/// interleaving. A connection opens its session with its first dispatched
/// frame other than Metrics (a monitor's Metrics frames are answered
/// without a session), and the session ends when the connection does.
///
/// Overload is shed, not queued: past the connection cap, accepted sockets
/// get one well-formed Error(Overloaded) and a close; a frame that would
/// open a session past the session cap, or that arrives past the
/// per-connection in-flight budget, is answered Error(Overloaded) without
/// dispatch.
///
/// This is the amortization story of the paper pushed to its natural
/// habitat: one resident precomputation per loaded function, repaired in
/// place on CFG edits (AnalysisManager::refresh), serving an unbounded
/// stream of near-free queries from many clients.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SERVER_LIVENESSSERVER_H
#define SSALIVE_SERVER_LIVENESSSERVER_H

#include "server/SessionManager.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ssalive::server {

class LivenessServer {
public:
  explicit LivenessServer(ServerConfig Cfg = {});

  /// Stops and joins everything.
  ~LivenessServer();

  LivenessServer(const LivenessServer &) = delete;
  LivenessServer &operator=(const LivenessServer &) = delete;

  /// The session manager every connection's session belongs to.
  SessionManager &sessions() { return Sessions; }

  /// \name Pipe transport.
  /// Serves exactly one session over an already-open duplex pair, blocking
  /// until the peer closes, an I/O error occurs, or the session requests
  /// shutdown. \p InFd and \p OutFd may be the same fd (a connected
  /// socket) or two pipe ends (the --stdio mode). Thread-safe: the soak
  /// harness calls this from several threads at once against one server.
  /// @{
  void serveStream(int InFd, int OutFd);
  /// @}

  /// \name Socket transports.
  /// @{
  /// Binds and listens on \p Path. A stale socket file from a dead server
  /// is cleaned up; a *live* server at the same path (the probe connect
  /// succeeds) is an error — binding over it would silently orphan it.
  /// On failure returns false with a message in \p Err.
  bool listenUnix(const std::string &Path, std::string &Err);

  /// Binds and listens on \p Host:\p Port (IPv4 dotted quad; empty host =
  /// loopback). \p Port 0 picks an ephemeral port — read it back with
  /// boundTcpPort(). Accepted connections get TCP_NODELAY (writeFrame
  /// already sends header+payload in one writev, so one segment each).
  /// May be combined with listenUnix; one acceptor polls both.
  bool listenTcp(const std::string &Host, std::uint16_t Port,
                 std::string &Err);

  /// Port actually bound by listenTcp (resolves an ephemeral request).
  std::uint16_t boundTcpPort() const { return BoundTcpPort; }

  /// Spawns the accept loop; each accepted connection gets a handler
  /// thread running serveStream on it. listenUnix and/or listenTcp must
  /// have succeeded.
  void start();

  /// Blocks until stop() is called or a session requests shutdown, then
  /// joins the acceptor and every handler.
  void wait();

  /// Requests shutdown: the acceptor stops accepting, and every live
  /// client socket is shut down so handlers blocked mid-read on idle
  /// connections unblock immediately instead of hanging wait() until the
  /// peer deigns to disconnect. Safe to call from any thread, repeatedly.
  void stop();
  /// @}

  bool stopRequested() const {
    return StopFlag.load(std::memory_order_acquire);
  }

  /// Connections served so far (accepted sockets + serveStream calls).
  std::uint64_t connectionsServed() const {
    return Connections.load(std::memory_order_relaxed);
  }

private:
  void acceptLoop();
  void acceptOn(int Fd, bool IsTcp);
  void joinHandlers();

  /// Sheds a just-accepted connection past the MaxConnections cap: one
  /// well-formed Error(Overloaded) frame, then close.
  void shedConnection(int Fd);

  /// A connection handler thread plus its completion flag, so the accept
  /// loop can reap finished handlers without blocking on live ones — a
  /// long-lived server must not accumulate one unjoined thread per
  /// connection ever served. The client fd lives here (closed only after
  /// the join) so stop() can ::shutdown() it without racing fd reuse.
  struct Handler {
    std::thread Thread;
    std::atomic<bool> Done{false};
    int Fd = -1;
  };
  void reapFinishedHandlers();

  ServerConfig Cfg;
  SessionManager Sessions;

  int ListenFd = -1;
  int TcpListenFd = -1;
  std::uint16_t BoundTcpPort = 0;
  std::string SocketPath;
  std::thread Acceptor;
  std::mutex HandlersMutex;
  std::vector<std::unique_ptr<Handler>> Handlers;
  std::atomic<bool> StopFlag{false};
  std::atomic<std::uint64_t> Connections{0};
};

} // namespace ssalive::server

#endif // SSALIVE_SERVER_LIVENESSSERVER_H
