//===- e2ebench/loadgen.cpp - Closed-loop load generator ------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One process drives a spawned ssalive-server over TCP loopback with
// closed-loop clients: each connection sends its next frame only after the
// previous reply arrived, because the callers this server exists for
// (compilers, JITs) block on every answer.
//
//   e2e-loadgen --server=PATH --workload=NAME [--seed=N] [--seconds=S]
//               [--trace=0|1] [--workdir=DIR] [--tiny]
//               [--corrupt-expected]
//
// Phases: generate the workload and its oracle replies (untimed); set up
// the sessions five times, each on a freshly spawned server, and keep the
// last (setup_s is the median); time the closed loop for --seconds;
// reconcile the server's telemetry against what was sent; shut the server
// down. --trace=1 adds an
// untraced reference phase before the timed one, brackets the timed phase
// with Metrics snapshots, and replays the stream in-process (replay.cpp).
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric computed, each with its unit. Exit status 1 on any failed
// frame or telemetry mismatch, 2 on a usage or set-up error.
// --corrupt-expected flips one expected reply byte, to prove the latch.
//
//===----------------------------------------------------------------------===//

#include "replay.h"
#include "workloads.h"

#include "server/Protocol.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ssalive;
namespace proto = ssalive::protocol;
using e2e::Frame;
using e2e::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Server;
  std::string WorkDir = ".";
  unsigned Cores = 0;
  bool Tiny = false;
  bool CorruptExpected = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&](const char *Prefix, std::string &Out) {
      std::size_t N = std::strlen(Prefix);
      if (A.compare(0, N, Prefix) != 0)
        return false;
      Out = A.substr(N);
      return true;
    };
    std::string V;
    if (value("--workload=", V))
      O.Workload = V;
    else if (value("--seed=", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (value("--seconds=", V))
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (value("--trace=", V))
      O.Trace = V == "1";
    else if (value("--server=", V))
      O.Server = V;
    else if (value("--workdir=", V))
      O.WorkDir = V;
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--corrupt-expected")
      O.CorruptExpected = true;
    else {
      std::fprintf(stderr, "e2e-loadgen: unrecognized argument '%s'\n",
                   A.c_str());
      return false;
    }
  }
  if (O.Server.empty() || !Workload::isKnown(O.Workload) || O.Seconds <= 0) {
    std::fprintf(stderr, "e2e-loadgen: need --server=PATH, --workload="
                         "spec-uniform|interference|edit-storm and "
                         "--seconds > 0\n");
    return false;
  }
  O.Cores = std::max(1u, std::thread::hardware_concurrency());
  return true;
}

/// The spawned ssalive-server. Killed with the load generator
/// (PR_SET_PDEATHSIG) and always reaped by the destructor.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() { stop(); }

  /// Starts the server on an ephemeral loopback port and waits for the
  /// port file; returns the port, or 0 on failure.
  /// A non-negative \p Cpu confines the server to that core.
  std::uint16_t start(const std::string &Binary, unsigned Threads,
                      const std::string &PortFile, int Cpu) {
    ::unlink(PortFile.c_str());
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0)
      return 0;
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        _exit(127);
      if (Cpu >= 0) {
        cpu_set_t Set;
        CPU_ZERO(&Set);
        CPU_SET(Cpu, &Set);
        ::sched_setaffinity(0, sizeof(Set), &Set);
      }
      std::string PortArg = "--port-file=" + PortFile;
      std::string ThreadsArg = "--threads=" + std::to_string(Threads);
      ::execl(Binary.c_str(), Binary.c_str(), "--tcp=127.0.0.1:0",
              PortArg.c_str(), ThreadsArg.c_str(),
              static_cast<char *>(nullptr));
      _exit(127);
    }
    for (int Try = 0; Try != 1000; ++Try) {
      std::ifstream In(PortFile);
      unsigned Port = 0;
      if (In >> Port && Port != 0 && Port <= 65535) {
        ::unlink(PortFile.c_str());
        return static_cast<std::uint16_t>(Port);
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return 0;
      }
      ::usleep(10000);
    }
    return 0;
  }

  /// Peak resident set of the server (VmHWM), in MiB.
  double peakRssMiB() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
    return 0;
  }

  /// Waits briefly for a shut-down server to exit, then terminates it.
  void stop() {
    if (Pid <= 0)
      return;
    int Status = 0;
    for (int Try = 0; Try != 200; ++Try) {
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      if (Try == 100)
        ::kill(Pid, SIGTERM);
      ::usleep(10000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }

private:
  pid_t Pid = -1;
};

/// Confines the calling thread to the first CPU it may run on and the
/// server to the last, for the 1-core figure; restores the thread's mask on
/// destruction. Inactive (server CPU -1) with fewer than two CPUs.
class OneCorePinning {
public:
  explicit OneCorePinning(bool Enable) {
    if (!Enable || ::sched_getaffinity(0, sizeof(Saved), &Saved) != 0 ||
        CPU_COUNT(&Saved) < 2)
      return;
    int First = -1;
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved)) {
        First = First < 0 ? C : First;
        ServerCpu = C;
      }
    cpu_set_t Mine;
    CPU_ZERO(&Mine);
    CPU_SET(First, &Mine);
    Pinned = ::sched_setaffinity(0, sizeof(Mine), &Mine) == 0;
  }
  ~OneCorePinning() {
    if (Pinned)
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  OneCorePinning(const OneCorePinning &) = delete;
  OneCorePinning &operator=(const OneCorePinning &) = delete;

  int serverCpu() const { return Pinned ? ServerCpu : -1; }

private:
  cpu_set_t Saved;
  int ServerCpu = -1;
  bool Pinned = false;
};

int connectLoopback(std::uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

void closeAll(std::vector<int> &Fds) {
  for (int &Fd : Fds)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

/// Asks the server to shut down over the first connection, closes every
/// connection and reaps the process.
void shutdown(std::vector<int> &Fds, ServerProcess &Server) {
  std::vector<std::uint8_t> Reply;
  if (!Fds.empty() && Fds[0] >= 0)
    (void)proto::roundTrip(Fds[0], Fds[0], proto::encodeShutdown(), Reply);
  closeAll(Fds);
  Server.stop();
}

/// Frames attempted and failed. A frame fails on a transport failure, an
/// Error reply, or any reply that is not byte-identical to the oracle's.
struct Tally {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  void add(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
};

/// Sends one frame and checks the reply; false only on transport failure.
bool exchange(int Fd, const std::vector<std::uint8_t> &Request,
              const std::vector<std::uint8_t> &Expected,
              std::vector<std::uint8_t> &Reply, Tally &T) {
  ++T.Attempted;
  if (Fd < 0 || !proto::roundTrip(Fd, Fd, Request, Reply)) {
    ++T.Failed;
    return false;
  }
  T.Failed += Reply != Expected;
  return true;
}

/// One set-up round: every connection connects, loads the module and makes
/// the cold pass over its values, concurrently. Returns the wall time from
/// the first connect until every session is warm.
double setupRound(const Workload &W, std::uint16_t Port,
                  std::vector<int> &Fds, Tally &T) {
  unsigned C = W.connections();
  Fds.assign(C, -1);
  std::vector<Tally> Per(C);
  auto body = [&](unsigned Conn) {
    std::vector<std::uint8_t> Reply;
    Fds[Conn] = connectLoopback(Port);
    if (!exchange(Fds[Conn], W.loadRequest(), W.loadExpected(), Reply,
                  Per[Conn]))
      return;
    for (const Frame &Fr : W.cover(Conn))
      if (!exchange(Fds[Conn], Fr.Request, Fr.Expected, Reply, Per[Conn]))
        return;
  };
  auto T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned Conn = 1; Conn < C; ++Conn)
    Threads.emplace_back(body, Conn);
  body(0);
  for (std::thread &Th : Threads)
    Th.join();
  double Secs = secondsBetween(T0, Clock::now());
  for (const Tally &P : Per)
    T.add(P);
  return Secs;
}

/// What one timed phase saw, client side.
struct Phase {
  std::vector<double> QueryUs, EditUs, PostEditUs;
  /// Per QueryUs entry: when the reply arrived (seconds of the phase's
  /// clock) and how many queries the frame carried.
  std::vector<std::pair<double, std::uint32_t>> QueryDone;
  std::uint64_t Queries = 0;        ///< In query frames the server answered.
  std::uint64_t UntimedQueries = 0; ///< Session resets, clock stopped.
  std::uint64_t QueryFrames = 0;
  std::uint64_t EditFrames = 0;
  double Elapsed = 0; ///< Seconds, excluding session resets.
  Tally T;

  double qps() const { return Elapsed > 0 ? Queries / Elapsed : 0; }
};

/// The closed loop: every connection sends its stream back to back for
/// \p Seconds, wrapping around at its end. An edit-storm wrap first resets
/// the session to the initial module with the clock stopped: its replies
/// depend on the whole edit history. \p Cursor carries each connection's
/// position across phases.
Phase runPhase(Workload &W, const std::vector<int> &Fds,
               std::vector<std::size_t> &Cursor, double Seconds) {
  unsigned C = W.connections();
  std::vector<Phase> Per(C);
  std::atomic<bool> Go{false};
  Clock::time_point Start;
  auto body = [&](unsigned Conn) {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    Phase &P = Per[Conn];
    P.QueryUs.reserve(1 << 16);
    std::vector<std::uint8_t> Reply;
    double Paused = 0;
    Clock::time_point End = Start;
    for (;;) {
      if (secondsBetween(Start, Clock::now()) - Paused >= Seconds)
        break;
      if (Cursor[Conn] == W.stream(Conn).size()) {
        Cursor[Conn] = 0;
        if (W.resetsOnWrap()) {
          auto P0 = Clock::now();
          bool Delivered =
              exchange(Fds[Conn], W.loadRequest(), W.loadExpected(), Reply,
                       P.T);
          for (const Frame &Fr : W.cover(Conn)) {
            Delivered = Delivered && exchange(Fds[Conn], Fr.Request,
                                              Fr.Expected, Reply, P.T);
            P.UntimedQueries += Delivered ? Fr.Queries : 0;
          }
          Paused += secondsBetween(P0, Clock::now());
          if (!Delivered)
            break;
        }
        continue;
      }
      const Frame &Fr = W.stream(Conn)[Cursor[Conn]++];
      auto T0 = Clock::now();
      bool Delivered =
          exchange(Fds[Conn], Fr.Request, Fr.Expected, Reply, P.T);
      End = Clock::now();
      double Us = secondsBetween(T0, End) * 1e6;
      if (!Delivered)
        break;
      if (Fr.IsEdit) {
        ++P.EditFrames;
        P.EditUs.push_back(Us);
        continue;
      }
      ++P.QueryFrames;
      P.Queries += Fr.Queries;
      P.QueryUs.push_back(Us);
      P.QueryDone.emplace_back(secondsBetween(Start, End) - Paused,
                               Fr.Queries);
      if (Fr.PostEdit)
        P.PostEditUs.push_back(Us);
    }
    P.Elapsed = secondsBetween(Start, End) - Paused;
  };
  std::vector<std::thread> Threads;
  for (unsigned Conn = 1; Conn < C; ++Conn)
    Threads.emplace_back(body, Conn);
  Start = Clock::now();
  Go.store(true, std::memory_order_release);
  body(0);
  for (std::thread &Th : Threads)
    Th.join();

  Phase Out;
  for (const Phase &P : Per) {
    Out.QueryUs.insert(Out.QueryUs.end(), P.QueryUs.begin(), P.QueryUs.end());
    Out.QueryDone.insert(Out.QueryDone.end(), P.QueryDone.begin(),
                         P.QueryDone.end());
    Out.EditUs.insert(Out.EditUs.end(), P.EditUs.begin(), P.EditUs.end());
    Out.PostEditUs.insert(Out.PostEditUs.end(), P.PostEditUs.begin(),
                          P.PostEditUs.end());
    Out.Queries += P.Queries;
    Out.UntimedQueries += P.UntimedQueries;
    Out.QueryFrames += P.QueryFrames;
    Out.EditFrames += P.EditFrames;
    Out.Elapsed = std::max(Out.Elapsed, P.Elapsed);
    Out.T.add(P.T);
  }
  return Out;
}

/// Nearest-rank percentile; sorts \p V.
double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(P / 100 * V.size()));
  return V[std::min(V.size(), std::max<std::size_t>(Rank, 1)) - 1];
}

/// The end-to-end figures of a timed phase. The phase is cut into
/// one-second windows; each window gets its queries per second and its p50
/// and p90 round trip, and each figure is the median over the windows. A
/// burst of load from elsewhere on the host that covers less than half of
/// the run cannot move them; a slower server moves every window.
struct Figures {
  double Qps = 0, P50 = 0, P90 = 0;
};

Figures windowedFigures(const Phase &P, double Seconds) {
  std::size_t N = std::max<std::size_t>(1, std::size_t(Seconds));
  double Len = Seconds / N;
  std::vector<double> Queries(N, 0), LastReply(N, 0);
  std::vector<std::vector<double>> Us(N);
  for (std::size_t I = 0; I != P.QueryUs.size(); ++I) {
    // A reply that lands after the deadline closes the last window.
    double At = P.QueryDone[I].first;
    std::size_t W = std::min(N - 1, std::size_t(At / Len));
    Queries[W] += P.QueryDone[I].second;
    LastReply[W] = std::max(LastReply[W], At);
    Us[W].push_back(P.QueryUs[I]);
  }
  // A window's rate is over the time since the previous window's last
  // reply, so every second of the phase is counted once.
  std::vector<double> Qps, P50, P90;
  double Prev = 0;
  for (std::size_t W = 0; W != N; ++W) {
    if (Us[W].empty())
      continue;
    if (LastReply[W] > Prev)
      Qps.push_back(Queries[W] / (LastReply[W] - Prev));
    Prev = LastReply[W];
    P50.push_back(percentile(Us[W], 50));
    P90.push_back(percentile(Us[W], 90));
  }
  return {percentile(Qps, 50), percentile(P50, 50), percentile(P90, 50)};
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / V.size();
}

using Snapshot = std::map<std::string, telemetry::Metric>;

/// Fetches the server's registry through the Metrics opcode.
bool snapshot(int Fd, Snapshot &Out, std::size_t &ReplyBytes) {
  std::vector<std::uint8_t> Reply;
  if (!proto::roundTrip(Fd, Fd, proto::encodeMetricsRequest(), Reply) ||
      Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::MetricsReply))
    return false;
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  std::vector<telemetry::Metric> Ms;
  if (!proto::decodeMetrics(R, Ms))
    return false;
  for (telemetry::Metric &M : Ms)
    Out[M.Name] = std::move(M);
  ReplyBytes = Reply.size();
  return true;
}

/// Registry differences over the timed phase.
struct Delta {
  const Snapshot &Before, &After;

  double counter(const std::string &Name) const {
    return double(value(After, Name)) - double(value(Before, Name));
  }
  /// Mean of the observations a histogram gained.
  double histMean(const std::string &Name) const {
    auto A = After.find(Name), B = Before.find(Name);
    if (A == After.end())
      return 0;
    double Count = double(A->second.Hist.Count);
    double Sum = double(A->second.Hist.Sum);
    if (B != Before.end()) {
      Count -= double(B->second.Hist.Count);
      Sum -= double(B->second.Hist.Sum);
    }
    return Count > 0 ? Sum / Count : 0;
  }
  double gauge(const std::string &Name) const {
    return double(static_cast<std::int64_t>(value(After, Name)));
  }
  double sumByPrefix(const std::string &Prefix) const {
    double S = 0;
    for (const auto &[Name, M] : After)
      if (Name.rfind(Prefix, 0) == 0)
        S += counter(Name);
    return S;
  }

private:
  static std::uint64_t value(const Snapshot &S, const std::string &Name) {
    auto It = S.find(Name);
    return It == S.end() ? 0 : It->second.Value;
  }
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

/// Metric name -> (value, unit), printed in name order.
class Report {
public:
  void put(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {std::isfinite(Value) ? Value : 0, Unit};
  }
  double get(const std::string &Name) const {
    auto It = Metrics.find(Name);
    return It == Metrics.end() ? 0 : It->second.first;
  }
  void print(bool Correct, std::uint64_t Attempted,
             std::uint64_t Failed) const {
    for (const auto &[Name, VU] : Metrics)
      std::printf("  %-36s %16.6f %s\n", Name.c_str(), VU.first,
                  VU.second.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    bool First = true;
    for (const auto &[Name, VU] : Metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), VU.first,
                  VU.second.c_str());
      First = false;
    }
    std::printf("}}\n");
  }

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
};

void describeLatency(const char *What, std::vector<double> V) {
  if (V.empty())
    return;
  std::size_t N = V.size();
  double P50 = percentile(V, 50), P90 = percentile(V, 90),
         P99 = percentile(V, 99);
  std::printf("%s: %zu samples, p50 %.1f us, p90 %.1f us (%zu beyond), "
              "p99 %.1f us (%zu beyond)\n",
              What, N, P50, P90, N - std::size_t(std::ceil(0.90 * N)), P99,
              N - std::size_t(std::ceil(0.99 * N)));
}

int run(const Options &O) {
  proto::ignoreSigpipe();
  auto GenStart = Clock::now();
  Workload W(O.Workload, O.Seed, O.Tiny, O.Cores);
  if (O.CorruptExpected)
    W.corruptFirstExpected();
  proto::WireReader Loaded(W.loadExpected().data() + 1,
                          W.loadExpected().size() - 1);
  unsigned Funcs = Loaded.u32();
  unsigned long long Blocks = Loaded.u64(), Values = Loaded.u64();
  std::printf("workload %s, seed %llu: %u functions, %llu blocks, %llu "
              "values; %u connection(s), server --threads=%u, %zu frames "
              "per stream, generated in %.2f s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              Funcs, Blocks, Values, W.connections(), W.serverThreads(),
              W.stream(0).size(), secondsBetween(GenStart, Clock::now()));

  // Set up five times, each time on a freshly started server, and keep the
  // last: the median tames the noise of a sub-second figure, and the kept
  // server's peak RSS covers exactly one set-up and the timed phase.
  Tally Total;
  std::vector<int> Fds;
  std::vector<double> Setups;
  OneCorePinning Pinning(W.oneCoreServer());
  ServerProcess Server;
  const std::string PortFile =
      O.WorkDir + "/e2e-" + std::to_string(::getpid()) + ".port";
  const unsigned Rounds = O.Tiny ? 2 : 5;
  for (unsigned R = 0; R != Rounds; ++R) {
    if (R != 0)
      shutdown(Fds, Server);
    std::uint16_t Port = Server.start(O.Server, W.serverThreads(), PortFile,
                                      Pinning.serverCpu());
    if (Port == 0) {
      std::fprintf(stderr, "e2e-loadgen: server did not start\n");
      return 2;
    }
    Setups.push_back(setupRound(W, Port, Fds, Total));
  }

  std::vector<std::size_t> Cursor(W.connections(), 0);
  Phase Reference;
  if (O.Trace)
    Reference = runPhase(W, Fds, Cursor, O.Seconds);
  Snapshot Before, After;
  std::size_t BeforeReplyBytes = 0, AfterReplyBytes = 0;
  bool HaveBefore = snapshot(Fds[0], Before, BeforeReplyBytes);
  Phase Main = runPhase(W, Fds, Cursor, O.Seconds);
  bool HaveAfter = snapshot(Fds[0], After, AfterReplyBytes);
  double RssMiB = Server.peakRssMiB();
  shutdown(Fds, Server);
  Total.add(Main.T);
  Total.add(Reference.T);

  // Telemetry reconciliation: the server's own counts of the timed phase
  // must equal what this client sent.
  Delta D{Before, After};
  struct Check {
    const char *Series;
    double Want;
  } Checks[] = {
      {"ssalive_server_queries_total",
       double(Main.Queries + Main.UntimedQueries)},
      {"ssalive_driver_queries_total",
       double(Main.Queries + Main.UntimedQueries)},
      {"ssalive_server_requests_edit_cfg_total", double(Main.EditFrames)}};
  for (const Check &Ck : Checks) {
    ++Total.Attempted;
    double Got = HaveBefore && HaveAfter ? D.counter(Ck.Series) : -1;
    if (Got != Ck.Want) {
      ++Total.Failed;
      std::fprintf(stderr, "reconcile FAIL: %s moved by %.0f, client sent "
                           "%.0f\n",
                   Ck.Series, Got, Ck.Want);
    }
  }

  Report Rep;
  Figures Fig = windowedFigures(Main, O.Seconds);
  Rep.put("qps", Fig.Qps, "queries/s");
  Rep.put("frame_p50_us", Fig.P50, "us");
  Rep.put("frame_p90_us", Fig.P90, "us");
  std::vector<double> SortedSetups = Setups;
  Rep.put("setup_s", percentile(SortedSetups, 50), "s");
  Rep.put("server_rss_mb", RssMiB, "MiB");
  describeLatency("QueryBatch round trip", Main.QueryUs);
  describeLatency("EditCFG round trip", Main.EditUs);
  describeLatency("first QueryBatch after an edit", Main.PostEditUs);
  std::printf("set-up rounds (s):");
  for (double S : Setups)
    std::printf(" %.4f", S);
  std::printf("\ntimed phase: %llu queries in %llu query frames and %llu "
              "edit frames over %.3f s (%.0f queries/s overall)\n",
              static_cast<unsigned long long>(Main.Queries),
              static_cast<unsigned long long>(Main.QueryFrames),
              static_cast<unsigned long long>(Main.EditFrames), Main.Elapsed,
              Main.qps());
  std::printf("failed_frac: %.6g (%llu of %llu frames and checks)\n",
              ratio(double(Total.Failed), double(Total.Attempted)),
              static_cast<unsigned long long>(Total.Failed),
              static_cast<unsigned long long>(Total.Attempted));

  if (O.Trace) {
    std::vector<double> E = Main.EditUs, PE = Main.PostEditUs;
    Rep.put("edit_p50_us", percentile(E, 50), "us");
    Rep.put("edit_p99_us", percentile(E, 99), "us");
    Rep.put("post_edit_frame_p50_us", percentile(PE, 50), "us");
    Rep.put("trace.qps_ratio",
            ratio(Fig.Qps, windowedFigures(Reference, O.Seconds).Qps),
            "ratio");

    // server layer: where a QueryBatch round trip goes. The handle time is
    // the server's own per-frame histogram; the rest is transport.
    double Queries = D.counter("ssalive_server_queries_total");
    double QueryFrames = D.counter("ssalive_server_requests_query_batch_total");
    double RtUs = mean(Main.QueryUs);
    double HandleUs = D.histMean("ssalive_server_query_frame_ns") / 1e3;
    double BatchUs = D.histMean("ssalive_driver_query_batch_ns") / 1e3;
    double PrecomputeUs = D.histMean("ssalive_driver_precompute_ns") / 1e3;
    Rep.put("server.rt_mean_us", RtUs, "us");
    Rep.put("server.handle_us", HandleUs, "us");
    Rep.put("server.read_write_us", RtUs - HandleUs, "us");
    Rep.put("server.codec_us", HandleUs - BatchUs - PrecomputeUs, "us");
    // The bracketing Metrics frames are not query traffic: the first
    // reply and the second request land inside the deltas.
    Rep.put("server.rx_bytes_per_query",
            ratio(D.counter("ssalive_server_rx_bytes_total") - 5, Queries),
            "bytes");
    Rep.put("server.tx_bytes_per_query",
            ratio(D.counter("ssalive_server_tx_bytes_total") - 4 -
                      double(BeforeReplyBytes),
                  Queries),
            "bytes");
    Rep.put("server.errors", D.sumByPrefix("ssalive_server_errors_"),
            "count");

    // pipeline layer. The driver's per-frame "precompute" includes the
    // warm prepared-cache ensure sweep, which is query-path work:
    // precompute_ensure_share states how much of it that sweep is.
    double Chunks = D.counter("ssalive_driver_chunks_total");
    Rep.put("pipeline.batch_us", BatchUs, "us");
    Rep.put("pipeline.precompute_us", PrecomputeUs, "us");
    Rep.put("pipeline.chunks_per_frame",
            ratio(Chunks, D.counter("ssalive_driver_batches_total")), "count");
    Rep.put("pipeline.steal_frac",
            ratio(D.counter("ssalive_driver_steals_total"), Chunks), "ratio");
    Rep.put("pipeline.journal_gaps",
            D.counter("ssalive_analysis_journal_gap_total"), "count");

    // core layer, from the registry.
    double DriverQueries = D.counter("ssalive_driver_queries_total");
    double Hits = D.counter("ssalive_prepared_hits_total");
    double Builds = D.counter("ssalive_prepared_builds_total");
    double Rebuilds = D.counter("ssalive_prepared_rebuilds_total");
    Snapshot Empty;
    Rep.put("core.precompute_ms",
            Delta{Empty, After}.histMean("ssalive_livecheck_precompute_ns") /
                1e6,
            "ms");
    Rep.put("core.targets_visited_per_query",
            ratio(D.counter("ssalive_engine_targets_visited_total"),
                  DriverQueries),
            "count");
    Rep.put("core.use_tests_per_query",
            ratio(D.counter("ssalive_engine_use_tests_total"), DriverQueries),
            "count");
    Rep.put("core.prepared_hit_frac", ratio(Hits, Hits + Builds + Rebuilds),
            "ratio");
    Rep.put("core.epoch_drops_per_edit",
            ratio(D.counter("ssalive_prepared_epoch_drops_total"),
                  D.counter("ssalive_server_edits_applied_total")),
            "count");
    Rep.put("core.prepared_bytes", D.gauge("ssalive_prepared_arena_bytes"),
            "bytes");

    // support layer.
    Rep.put("support.pool_tasks_per_frame",
            ratio(D.counter("ssalive_pool_tasks_total"), QueryFrames),
            "count");
    Rep.put("support.scratch_reuse_frac",
            ratio(D.counter("ssalive_pool_reuses_total"),
                  D.counter("ssalive_pool_acquires_total")),
            "ratio");

    // The in-process replay of the same stream, from the initial module.
    std::map<std::string, std::pair<double, const char *>> Layers;
    std::uint64_t Bad =
        e2e::replayLayers(W, W.serverThreads(), O.Tiny ? 4 : 64, Layers);
    ++Total.Attempted;
    if (Bad != 0 && !O.CorruptExpected) {
      ++Total.Failed;
      std::fprintf(stderr, "replay FAIL: %llu in-process answers differ "
                           "from the oracle\n",
                   static_cast<unsigned long long>(Bad));
    }
    for (const auto &[Name, VU] : Layers)
      Rep.put(Name, VU.first, VU.second);
    Rep.put("pipeline.precompute_ensure_share",
            ratio(Rep.get("core.ensure_us"), PrecomputeUs), "ratio");
  }

  Rep.print(Total.Failed == 0, Total.Attempted, Total.Failed);
  return Total.Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2e-loadgen: %s\n", E.what());
    return 2;
  }
}
