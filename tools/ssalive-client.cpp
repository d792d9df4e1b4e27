//===- tools/ssalive-client.cpp - Liveness server client CLI --------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives a running (or freshly spawned) ssalive-server through the wire
// protocol: loads a module, streams query batches and CFG-edit commands,
// and optionally verifies every reply byte-for-byte against an in-process
// BatchLivenessDriver oracle built from the exact bytes that were sent.
//
//   ssalive-client --connect=/path/sock [options]      talk to a server
//   ssalive-client --connect-tcp=[HOST:]PORT [options] over TCP (IPv4)
//   ssalive-client --spawn=./ssalive-server [options]  spawn one first
//     --transport=pipe|unix|tcp  with --spawn: speak over stdin/stdout
//                             pipes (default), a temporary unix socket,
//                             or TCP on a loopback ephemeral port
//     --backend=NAME          propagated|dataflow|path-exploration
//     --generate=N            synthesize N SPEC-profile functions
//                             (default 8 when no module file is given)
//     --seed=S --queries=N --batch=K --repeat=R
//     --edits=E               CFG-edit commands sent between repeats,
//                             routed through the server's refresh plane
//     --threads=N             pool threads for a spawned server
//     --verify                byte-compare every reply against the oracle
//     --metrics               fetch the server's telemetry registry via
//                             the Metrics opcode and print a summary
//     --metrics-out=PATH      write that dump as Prometheus text
//     [module.ssair]          load a module file instead of synthesizing
//
// Exit status: 0 = success, 1 = usage/transport failure, 2 = a reply
// differed from the oracle.
//
//===----------------------------------------------------------------------===//

#include "ToolUtil.h"
#include "pipeline/BatchLivenessDriver.h"
#include "server/Protocol.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ssalive;
namespace proto = ssalive::protocol;

namespace {

struct CliOptions {
  std::string ConnectPath;
  std::string ConnectTcpHost; ///< With ConnectTcpPort != 0 or HasConnectTcp.
  std::uint16_t ConnectTcpPort = 0;
  bool HasConnectTcp = false;
  std::string SpawnBinary;
  bool UnixTransport = false;
  bool TcpTransport = false;
  BatchBackend Backend = BatchBackend::LiveCheckPropagated;
  unsigned Generate = 0;
  std::uint64_t Seed = 42;
  std::size_t Queries = 200000;
  std::size_t Batch = 4096;
  unsigned Repeat = 2;
  unsigned Edits = 0;
  unsigned Threads = 1;
  bool Verify = false;
  bool Metrics = false;
  std::string MetricsOutPath;
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
    if (Arg.rfind("--connect=", 0) == 0) {
      Opts.ConnectPath = Arg.substr(10);
    } else if (Arg.rfind("--connect-tcp=", 0) == 0) {
      std::string Spec = Arg.substr(14);
      std::size_t Colon = Spec.rfind(':');
      std::string PortStr =
          Colon == std::string::npos ? Spec : Spec.substr(Colon + 1);
      if (Colon != std::string::npos)
        Opts.ConnectTcpHost = Spec.substr(0, Colon);
      if (!parseUnsigned(PortStr.c_str(), N) || N == 0 || N > 65535) {
        std::fprintf(stderr, "bad --connect-tcp spec '%s' (want "
                             "[HOST:]PORT)\n",
                     Spec.c_str());
        return false;
      }
      Opts.ConnectTcpPort = static_cast<std::uint16_t>(N);
      Opts.HasConnectTcp = true;
    } else if (Arg.rfind("--spawn=", 0) == 0) {
      Opts.SpawnBinary = Arg.substr(8);
    } else if (Arg == "--transport=pipe") {
      Opts.UnixTransport = Opts.TcpTransport = false;
    } else if (Arg == "--transport=unix") {
      Opts.UnixTransport = true;
      Opts.TcpTransport = false;
    } else if (Arg == "--transport=tcp") {
      Opts.TcpTransport = true;
      Opts.UnixTransport = false;
    } else if (Arg.rfind("--backend=", 0) == 0) {
      if (!parseBatchBackend(Arg.substr(10), Opts.Backend)) {
        std::fprintf(stderr, "unknown backend '%s'\n", Arg.c_str() + 10);
        return false;
      }
    } else if (Arg.rfind("--generate=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 11, N) && N != 0) {
      Opts.Generate = static_cast<unsigned>(N);
    } else if (Arg.rfind("--seed=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 7, N)) {
      Opts.Seed = N;
    } else if (Arg.rfind("--queries=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 10, N)) {
      Opts.Queries = N;
    } else if (Arg.rfind("--batch=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 8, N) && N != 0) {
      Opts.Batch = N;
    } else if (Arg.rfind("--repeat=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 9, N) && N != 0) {
      Opts.Repeat = static_cast<unsigned>(N);
    } else if (Arg.rfind("--edits=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 8, N)) {
      Opts.Edits = static_cast<unsigned>(N);
    } else if (Arg.rfind("--threads=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 10, N)) {
      Opts.Threads = static_cast<unsigned>(N);
    } else if (Arg == "--verify") {
      Opts.Verify = true;
    } else if (Arg == "--metrics") {
      Opts.Metrics = true;
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      Opts.Metrics = true;
      Opts.MetricsOutPath = Arg.substr(14);
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  unsigned Endpoints = (!Opts.ConnectPath.empty() ? 1 : 0) +
                       (Opts.HasConnectTcp ? 1 : 0) +
                       (!Opts.SpawnBinary.empty() ? 1 : 0);
  if (Endpoints != 1) {
    std::fprintf(stderr,
                 "exactly one of --connect=PATH, --connect-tcp=[HOST:]PORT, "
                 "or --spawn=BINARY is required\n");
    return false;
  }
  if (Opts.InputPath.empty() && Opts.Generate == 0)
    Opts.Generate = 8;
  return true;
}

/// The transport endpoint: fds plus the spawned server (if any).
struct Connection {
  int InFd = -1;  ///< Replies arrive here.
  int OutFd = -1; ///< Requests go here.
  pid_t Child = -1;
  std::string SocketPath; ///< Unlinked on close when we created it.
  std::string PortFile;   ///< Ditto, for a spawned TCP server.

  void close() {
    if (OutFd >= 0 && OutFd != InFd)
      ::close(OutFd);
    if (InFd >= 0)
      ::close(InFd);
    InFd = OutFd = -1;
    if (Child > 0) {
      // A --stdio server exits on pipe EOF, but a --socket server keeps
      // accepting until a protocol Shutdown — which a client bailing out
      // on a verification failure never sent. Give the child a moment to
      // exit on its own, then terminate it; blocking in waitpid here
      // would turn every post-connect failure into a hang.
      int Status = 0;
      bool Exited = false;
      for (int Try = 0; Try != 100; ++Try) {
        if (::waitpid(Child, &Status, WNOHANG) == Child) {
          Exited = true;
          break;
        }
        ::usleep(10000);
      }
      if (!Exited) {
        ::kill(Child, SIGTERM);
        ::waitpid(Child, &Status, 0);
      }
      Child = -1;
    }
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
    if (!PortFile.empty())
      ::unlink(PortFile.c_str());
  }
};

bool spawnPipeServer(const CliOptions &Opts, Connection &Conn) {
  int ToServer[2], FromServer[2];
  if (::pipe(ToServer) != 0 || ::pipe(FromServer) != 0) {
    std::perror("pipe");
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("fork");
    return false;
  }
  if (Pid == 0) {
    ::dup2(ToServer[0], 0);
    ::dup2(FromServer[1], 1);
    ::close(ToServer[0]);
    ::close(ToServer[1]);
    ::close(FromServer[0]);
    ::close(FromServer[1]);
    std::string ThreadsArg = "--threads=" + std::to_string(Opts.Threads);
    ::execl(Opts.SpawnBinary.c_str(), Opts.SpawnBinary.c_str(), "--stdio",
            ThreadsArg.c_str(), static_cast<char *>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  ::close(ToServer[0]);
  ::close(FromServer[1]);
  Conn.OutFd = ToServer[1];
  Conn.InFd = FromServer[0];
  Conn.Child = Pid;
  return true;
}

int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int connectTcp(const std::string &Host, std::uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  const char *HostC = Host.empty() ? "127.0.0.1" : Host.c_str();
  if (::inet_pton(AF_INET, HostC, &Addr.sin_addr) != 1)
    return -1;
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

bool spawnUnixServer(const CliOptions &Opts, Connection &Conn) {
  std::string Path = "/tmp/ssalive-client-" + std::to_string(::getpid()) +
                     ".sock";
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("fork");
    return false;
  }
  if (Pid == 0) {
    std::string SocketArg = "--socket=" + Path;
    std::string ThreadsArg = "--threads=" + std::to_string(Opts.Threads);
    ::execl(Opts.SpawnBinary.c_str(), Opts.SpawnBinary.c_str(),
            SocketArg.c_str(), ThreadsArg.c_str(),
            static_cast<char *>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  // The server needs a moment to bind; retry for up to ~5 seconds.
  for (int Try = 0; Try != 250; ++Try) {
    int Fd = connectUnix(Path);
    if (Fd >= 0) {
      Conn.InFd = Conn.OutFd = Fd;
      Conn.Child = Pid;
      Conn.SocketPath = Path;
      return true;
    }
    ::usleep(20000);
  }
  std::fprintf(stderr, "could not connect to spawned server at %s\n",
               Path.c_str());
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, nullptr, 0);
  return false;
}

bool spawnTcpServer(const CliOptions &Opts, Connection &Conn) {
  // The server binds an ephemeral loopback port and publishes it through
  // a port file (write-then-rename on its side, so a parsed read is a
  // complete read).
  std::string PortFile =
      "/tmp/ssalive-client-" + std::to_string(::getpid()) + ".port";
  ::unlink(PortFile.c_str());
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("fork");
    return false;
  }
  if (Pid == 0) {
    std::string PortFileArg = "--port-file=" + PortFile;
    std::string ThreadsArg = "--threads=" + std::to_string(Opts.Threads);
    ::execl(Opts.SpawnBinary.c_str(), Opts.SpawnBinary.c_str(),
            "--tcp=127.0.0.1:0", PortFileArg.c_str(), ThreadsArg.c_str(),
            static_cast<char *>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  for (int Try = 0; Try != 250; ++Try) {
    std::ifstream In(PortFile);
    unsigned Port = 0;
    if (In >> Port && Port != 0 && Port <= 65535) {
      int Fd = connectTcp("127.0.0.1", static_cast<std::uint16_t>(Port));
      if (Fd >= 0) {
        Conn.InFd = Conn.OutFd = Fd;
        Conn.Child = Pid;
        Conn.PortFile = PortFile;
        return true;
      }
    }
    ::usleep(20000);
  }
  std::fprintf(stderr, "spawned TCP server never published a port at %s\n",
               PortFile.c_str());
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, nullptr, 0);
  return false;
}

/// Sends one request and reads one reply; false on transport failure.
bool roundTrip(Connection &Conn, const std::vector<std::uint8_t> &Request,
               std::vector<std::uint8_t> &Reply) {
  return proto::roundTrip(Conn.InFd, Conn.OutFd, Request, Reply);
}

void describeMismatch(const char *What,
                      const std::vector<std::uint8_t> &Got,
                      const std::vector<std::uint8_t> &Want) {
  std::size_t FirstDiff = 0;
  while (FirstDiff < Got.size() && FirstDiff < Want.size() &&
         Got[FirstDiff] == Want[FirstDiff])
    ++FirstDiff;
  std::fprintf(stderr,
               "FAIL: %s reply differs from oracle (reply %zu bytes, "
               "expected %zu, first difference at byte %zu)\n",
               What, Got.size(), Want.size(), FirstDiff);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;
  proto::ignoreSigpipe();

  // ---- The module and its in-process oracle. The oracle is parsed from
  // the exact text shipped to the server, so both sides assign identical
  // value/block ids and start at identical CFG epochs.
  std::string Text;
  if (!Opts.InputPath.empty()) {
    Text = tool::readFileOrEmpty(Opts.InputPath);
    if (Text.empty())
      return 1;
  } else {
    Text = tool::moduleToText(tool::synthesizeModule(Opts.Generate,
                                                     Opts.Seed));
  }
  ModuleParseResult Oracle = parseModule(Text);
  if (!Oracle.Error.empty()) {
    std::fprintf(stderr, "module does not parse: %s\n",
                 Oracle.Error.c_str());
    return 1;
  }
  std::vector<const Function *> OracleFuncs;
  std::uint64_t TotalBlocks = 0, TotalValues = 0;
  for (const auto &F : Oracle.Funcs) {
    OracleFuncs.push_back(F.get());
    TotalBlocks += F->numBlocks();
    TotalValues += F->numValues();
  }
  // The oracle is a single-threaded driver on the same backend. For the
  // LiveCheck backend it answers through the engine's block-id entry
  // points, which re-walk the value's def-use chain per query: the server
  // answers through its prepared caches, so every --verify byte-compare
  // also checks them against state they do not share.
  BatchOptions OOpts;
  OOpts.Backend = Opts.Backend;
  OOpts.Threads = 1;
  BatchLivenessDriver OracleDriver(OracleFuncs, OOpts);
  auto oracleAnswers = [&](const std::vector<BatchQuery> &Chunk) {
    if (!batchBackendUsesLiveCheck(Opts.Backend))
      return OracleDriver.run(Chunk).Answers;
    return tool::blockIdLiveCheckAnswers(
        OracleFuncs, OracleDriver.analysisManager(), Chunk);
  };

  // ---- Transport.
  Connection Conn;
  if (!Opts.ConnectPath.empty()) {
    int Fd = connectUnix(Opts.ConnectPath);
    if (Fd < 0) {
      std::fprintf(stderr, "cannot connect to %s\n",
                   Opts.ConnectPath.c_str());
      return 1;
    }
    Conn.InFd = Conn.OutFd = Fd;
  } else if (Opts.HasConnectTcp) {
    int Fd = connectTcp(Opts.ConnectTcpHost, Opts.ConnectTcpPort);
    if (Fd < 0) {
      std::fprintf(stderr, "cannot connect to %s:%u\n",
                   Opts.ConnectTcpHost.empty() ? "127.0.0.1"
                                               : Opts.ConnectTcpHost.c_str(),
                   Opts.ConnectTcpPort);
      return 1;
    }
    Conn.InFd = Conn.OutFd = Fd;
  } else if (Opts.TcpTransport) {
    if (!spawnTcpServer(Opts, Conn))
      return 1;
  } else if (Opts.UnixTransport) {
    if (!spawnUnixServer(Opts, Conn))
      return 1;
  } else {
    if (!spawnPipeServer(Opts, Conn))
      return 1;
  }

  int Exit = 0;
  std::vector<std::uint8_t> Reply;
  auto fail = [&](int Code) {
    Exit = Code;
    Conn.close();
    return Code;
  };

  // A shed frame: the server answered Error(Overloaded) WITHOUT
  // dispatching it.
  auto isOverloaded = [](const std::vector<std::uint8_t> &R) {
    return R.size() >= 3 &&
           R[0] == static_cast<std::uint8_t>(proto::Opcode::Error) &&
           (static_cast<std::uint16_t>(R[1]) |
            (static_cast<std::uint16_t>(R[2]) << 8)) ==
               static_cast<std::uint16_t>(proto::ErrorCode::Overloaded);
  };
  // Dispatched-frame round trip. Overloaded replies are retryable by
  // protocol contract — back off and resend the frame instead of
  // surfacing them.
  auto rt = [&](const std::vector<std::uint8_t> &Request,
                std::vector<std::uint8_t> &R) {
    for (int Try = 0;; ++Try) {
      if (!roundTrip(Conn, Request, R))
        return false;
      if (!isOverloaded(R))
        return true;
      if (Try == 1000) {
        std::fprintf(stderr, "server still overloaded after %d retries\n",
                     Try);
        return false;
      }
      ::usleep(2000);
    }
  };

  // ---- Load.
  if (!rt(proto::encodeLoadModule(static_cast<std::uint8_t>(Opts.Backend),
                                  static_cast<std::uint8_t>(
                                      QueryPlane::Prepared),
                                  Text),
          Reply)) {
    std::fprintf(stderr, "transport failure during load-module\n");
    return fail(1);
  }
  {
    std::vector<std::uint8_t> Want = proto::encodeModuleLoaded(
        static_cast<std::uint32_t>(Oracle.Funcs.size()), TotalBlocks,
        TotalValues);
    if (Reply != Want) {
      describeMismatch("load-module", Reply, Want);
      return fail(2);
    }
  }
  std::printf("ssalive-client: loaded %zu functions (%llu blocks, %llu "
              "values), backend=%s\n",
              Oracle.Funcs.size(),
              static_cast<unsigned long long>(TotalBlocks),
              static_cast<unsigned long long>(TotalValues),
              batchBackendName(Opts.Backend));

  // ---- Query/edit runs.
  RandomEngine EditRng(Opts.Seed * 31 + 7);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 4096;
  std::uint64_t TotalQueries = 0;
  for (unsigned Run = 0; Run != Opts.Repeat; ++Run) {
    std::vector<BatchQuery> Workload = BatchLivenessDriver::generateWorkload(
        OracleFuncs, Opts.Seed + Run, Opts.Queries);
    if (Workload.empty()) {
      std::fprintf(stderr, "no queryable values in the module\n");
      return fail(1);
    }
    double Millis = 0;
    for (std::size_t Begin = 0; Begin < Workload.size();
         Begin += Opts.Batch) {
      std::size_t End = std::min(Workload.size(), Begin + Opts.Batch);
      std::vector<proto::QueryItem> Items;
      Items.reserve(End - Begin);
      for (std::size_t I = Begin; I != End; ++I)
        Items.push_back({Workload[I].FuncIndex, Workload[I].ValueId,
                         Workload[I].BlockId, Workload[I].IsLiveOut});
      auto Request = proto::encodeQueryBatch(Items);
      auto T0 = std::chrono::steady_clock::now();
      if (!rt(Request, Reply)) {
        std::fprintf(stderr, "transport failure during query batch\n");
        return fail(1);
      }
      Millis += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
      TotalQueries += End - Begin;
      if (Opts.Verify) {
        std::vector<BatchQuery> Chunk(Workload.begin() + Begin,
                                      Workload.begin() + End);
        std::vector<std::uint8_t> Want =
            proto::encodeAnswers(oracleAnswers(Chunk));
        if (Reply != Want) {
          describeMismatch("query-batch", Reply, Want);
          std::fprintf(stderr, "  replay: --seed=%llu run %u batch at %zu\n",
                       static_cast<unsigned long long>(Opts.Seed), Run,
                       Begin);
          return fail(2);
        }
      }
    }
    std::printf("  run %u%s: %zu queries in %.2f ms (%.0f q/s)%s\n", Run + 1,
                Run == 0 ? " (cold)" : " (warm)", Workload.size(), Millis,
                Millis > 0 ? double(Workload.size()) / (Millis / 1e3) : 0,
                Opts.Verify ? ", replies oracle-identical" : "");

    // CFG edits between runs: chosen on the oracle copy, shipped as
    // deterministic replays, consumed by the server's refresh plane.
    if (Opts.Edits != 0 && Run + 1 != Opts.Repeat) {
      std::vector<proto::EditItem> Items;
      std::vector<std::pair<std::uint8_t, std::uint64_t>> Expect;
      for (unsigned E = 0; E != Opts.Edits; ++E) {
        unsigned FI = EditRng.nextBelow(
            static_cast<unsigned>(Oracle.Funcs.size()));
        Function &F = *Oracle.Funcs[FI];
        auto M = mutateFunctionCFG(F, EditRng, MOpts);
        if (!M)
          continue;
        if (batchBackendUsesLiveCheck(Opts.Backend))
          OracleDriver.analysisManager().refresh(F);
        Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                         M->To, M->To2});
        Expect.emplace_back(1, F.cfgVersion());
      }
      OracleDriver.notifyCFGEdited();
      if (!Items.empty()) {
        if (!rt(proto::encodeEditBatch(Items), Reply)) {
          std::fprintf(stderr, "transport failure during edit batch\n");
          return fail(1);
        }
        std::vector<std::uint8_t> Want = proto::encodeEditApplied(Expect);
        if (Opts.Verify && Reply != Want) {
          describeMismatch("edit-cfg", Reply, Want);
          return fail(2);
        }
        std::printf("  applied %zu CFG edits through the server's refresh "
                    "plane\n",
                    Items.size());
      }
    }
  }

  // ---- Stats + shutdown (shutdown only when we own the server).
  if (rt(proto::encodeStats(), Reply) && !Reply.empty() &&
      Reply[0] == static_cast<std::uint8_t>(proto::Opcode::StatsReply)) {
    proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
    std::uint64_t Served = R.u64();
    std::uint64_t Positives = R.u64();
    std::uint64_t Applied = R.u64();
    std::printf("  server: %llu queries (%llu live), %llu edits applied\n",
                static_cast<unsigned long long>(Served),
                static_cast<unsigned long long>(Positives),
                static_cast<unsigned long long>(Applied));
    if (Served != TotalQueries) {
      std::fprintf(stderr, "FAIL: server counted %llu queries, client sent "
                           "%llu\n",
                   static_cast<unsigned long long>(Served),
                   static_cast<unsigned long long>(TotalQueries));
      return fail(2);
    }
  }
  // ---- Metrics: the process-wide telemetry registry over the wire.
  if (Opts.Metrics) {
    if (!rt(proto::encodeMetricsRequest(), Reply) ||
        Reply.empty() ||
        Reply[0] != static_cast<std::uint8_t>(proto::Opcode::MetricsReply)) {
      std::fprintf(stderr, "FAIL: no MetricsReply to the Metrics request\n");
      return fail(2);
    }
    proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
    std::vector<telemetry::Metric> Metrics;
    if (!proto::decodeMetrics(R, Metrics)) {
      std::fprintf(stderr, "FAIL: MetricsReply body does not decode\n");
      return fail(2);
    }
    std::printf("  metrics: %zu series from the server registry\n",
                Metrics.size());
    for (const telemetry::Metric &M : Metrics) {
      if (M.Kind == telemetry::MetricKind::Histogram) {
        std::printf(
            "    %-44s count=%llu p50=%lluns p99=%lluns\n", M.Name.c_str(),
            static_cast<unsigned long long>(M.Hist.Count),
            static_cast<unsigned long long>(
                telemetry::histogramPercentile(M.Hist, 50)),
            static_cast<unsigned long long>(
                telemetry::histogramPercentile(M.Hist, 99)));
      } else {
        std::printf("    %-44s %llu%s\n", M.Name.c_str(),
                    static_cast<unsigned long long>(M.Value),
                    M.Kind == telemetry::MetricKind::Gauge ? " (gauge)" : "");
      }
    }
    if (!Opts.MetricsOutPath.empty()) {
      std::ofstream Out(Opts.MetricsOutPath, std::ios::trunc);
      if (!Out) {
        std::fprintf(stderr, "cannot write %s\n",
                     Opts.MetricsOutPath.c_str());
        return fail(1);
      }
      Out << telemetry::toPrometheusText(Metrics);
      std::printf("  metrics: Prometheus dump written to %s\n",
                  Opts.MetricsOutPath.c_str());
    }
  }

  if (Conn.Child > 0)
    (void)rt(proto::encodeShutdown(), Reply);
  Conn.close();
  return Exit;
}
