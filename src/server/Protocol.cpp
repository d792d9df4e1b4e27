//===- server/Protocol.cpp - Liveness server wire protocol ----------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <cerrno>
#include <csignal>
#include <mutex>
#include <sys/uio.h>
#include <unistd.h>

using namespace ssalive;
using namespace ssalive::protocol;

std::vector<std::uint8_t>
protocol::encodeLoadModule(std::uint8_t Backend, std::uint8_t Plane,
                           const std::string &ModuleText) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::LoadModule));
  W.u8(Backend);
  W.u8(Plane);
  W.raw(ModuleText.data(), ModuleText.size());
  return W.take();
}

std::vector<std::uint8_t>
protocol::encodeQueryBatch(const std::vector<QueryItem> &Qs) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::QueryBatch));
  W.u32(static_cast<std::uint32_t>(Qs.size()));
  for (const QueryItem &Q : Qs) {
    W.u32(Q.FuncIndex);
    W.u32(Q.ValueId);
    W.u32(Q.BlockId);
    W.u8(Q.IsLiveOut ? 1 : 0);
  }
  return W.take();
}

std::vector<std::uint8_t>
protocol::encodeEditBatch(const std::vector<EditItem> &Es) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::EditCFG));
  W.u32(static_cast<std::uint32_t>(Es.size()));
  for (const EditItem &E : Es) {
    W.u8(E.Kind);
    W.u32(E.FuncIndex);
    W.u32(E.From);
    W.u32(E.To);
    W.u32(E.To2);
  }
  return W.take();
}

std::vector<std::uint8_t> protocol::encodeStats() {
  return {static_cast<std::uint8_t>(Opcode::Stats)};
}

std::vector<std::uint8_t> protocol::encodeMetricsRequest() {
  return {static_cast<std::uint8_t>(Opcode::Metrics)};
}

std::vector<std::uint8_t> protocol::encodeShutdown() {
  return {static_cast<std::uint8_t>(Opcode::Shutdown)};
}

std::vector<std::uint8_t>
protocol::encodeModuleLoaded(std::uint32_t NumFuncs, std::uint64_t TotalBlocks,
                             std::uint64_t TotalValues) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::ModuleLoaded));
  W.u32(NumFuncs);
  W.u64(TotalBlocks);
  W.u64(TotalValues);
  return W.take();
}

std::vector<std::uint8_t>
protocol::encodeAnswers(const std::vector<std::uint8_t> &Answers) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::Answers));
  W.u32(static_cast<std::uint32_t>(Answers.size()));
  W.raw(Answers.data(), Answers.size());
  return W.take();
}

std::vector<std::uint8_t> protocol::encodeEditApplied(
    const std::vector<std::pair<std::uint8_t, std::uint64_t>> &Results) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::EditApplied));
  W.u32(static_cast<std::uint32_t>(Results.size()));
  for (const auto &[Applied, Epoch] : Results) {
    W.u8(Applied);
    W.u64(Epoch);
  }
  return W.take();
}

std::vector<std::uint8_t> protocol::encodeStatsReply(const StatsWire &S) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::StatsReply));
  W.u64(S.Queries);
  W.u64(S.Positives);
  W.u64(S.EditsApplied);
  W.u64(S.EditsRejected);
  W.u64(S.CacheHits);
  W.u64(S.CacheMisses);
  W.u64(S.Invalidations);
  W.u64(S.Refreshes);
  W.u32(S.NumFuncs);
  W.u32(S.Threads);
  return W.take();
}

std::vector<std::uint8_t> protocol::encodeMetricsReply(
    const std::vector<telemetry::Metric> &Metrics) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::MetricsReply));
  W.u32(static_cast<std::uint32_t>(Metrics.size()));
  for (const telemetry::Metric &M : Metrics) {
    W.u8(static_cast<std::uint8_t>(M.Kind));
    W.u16(static_cast<std::uint16_t>(M.Name.size()));
    W.raw(M.Name.data(), M.Name.size());
    switch (M.Kind) {
    case telemetry::MetricKind::Counter:
    case telemetry::MetricKind::Gauge:
      W.u64(M.Value);
      break;
    case telemetry::MetricKind::Histogram:
      W.u64(M.Hist.Count);
      W.u64(M.Hist.Sum);
      W.u16(static_cast<std::uint16_t>(telemetry::NumHistogramBuckets));
      for (std::uint64_t B : M.Hist.Buckets)
        W.u64(B);
      break;
    }
  }
  return W.take();
}

bool protocol::decodeMetrics(WireReader &R,
                             std::vector<telemetry::Metric> &Out) {
  std::uint32_t Count = R.u32();
  for (std::uint32_t I = 0; I != Count; ++I) {
    telemetry::Metric M;
    std::uint8_t Kind = R.u8();
    std::uint16_t NameLen = R.u16();
    if (!R.ok() || Kind > 2 || R.remaining() < NameLen)
      return false;
    M.Kind = static_cast<telemetry::MetricKind>(Kind);
    M.Name.reserve(NameLen); // Bounded by the check above, never by wire.
    for (std::uint16_t J = 0; J != NameLen; ++J)
      M.Name.push_back(static_cast<char>(R.u8()));
    switch (M.Kind) {
    case telemetry::MetricKind::Counter:
    case telemetry::MetricKind::Gauge:
      M.Value = R.u64();
      break;
    case telemetry::MetricKind::Histogram: {
      M.Hist.Count = R.u64();
      M.Hist.Sum = R.u64();
      std::uint16_t NBuckets = R.u16();
      // A peer speaking a different bucket vocabulary is a protocol
      // mismatch, and a lying count must never drive a loop past the
      // payload: both land here.
      if (!R.ok() || NBuckets > telemetry::NumHistogramBuckets ||
          R.remaining() < std::size_t(NBuckets) * 8)
        return false;
      for (std::uint16_t B = 0; B != NBuckets; ++B)
        M.Hist.Buckets[B] = R.u64();
      break;
    }
    }
    if (!R.ok())
      return false;
    Out.push_back(std::move(M));
  }
  return R.ok() && R.atEnd();
}

std::vector<std::uint8_t> protocol::encodeOk() {
  return {static_cast<std::uint8_t>(Opcode::Ok)};
}

std::vector<std::uint8_t> protocol::encodeError(ErrorCode Code,
                                                const std::string &Msg) {
  WireWriter W;
  W.u8(static_cast<std::uint8_t>(Opcode::Error));
  W.u16(static_cast<std::uint16_t>(Code));
  W.u32(static_cast<std::uint32_t>(Msg.size()));
  W.raw(Msg.data(), Msg.size());
  return W.take();
}

namespace {

/// Reads exactly \p Len bytes; returns the count actually read (short only
/// on EOF), or -1 on error.
ssize_t readFull(int Fd, std::uint8_t *Buf, std::size_t Len) {
  std::size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::read(Fd, Buf + Got, Len - Got);
    if (N == 0)
      return static_cast<ssize_t>(Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += static_cast<std::size_t>(N);
  }
  return static_cast<ssize_t>(Got);
}

/// Writes both iovecs fully, resuming partial writes where they stopped;
/// false on error. One writev call in the common case, so the frame header
/// and payload share a syscall (and a TCP segment under TCP_NODELAY).
bool writeFullVec(int Fd, iovec Iov[2]) {
  int First = 0;
  while (First != 2) {
    if (Iov[First].iov_len == 0) {
      ++First;
      continue;
    }
    ssize_t N = ::writev(Fd, Iov + First, 2 - First);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    std::size_t Put = static_cast<std::size_t>(N);
    while (First != 2 && Put >= Iov[First].iov_len) {
      Put -= Iov[First].iov_len;
      Iov[First].iov_len = 0;
      ++First;
    }
    if (First != 2 && Put != 0) {
      Iov[First].iov_base = static_cast<std::uint8_t *>(Iov[First].iov_base) +
                            Put;
      Iov[First].iov_len -= Put;
    }
  }
  return true;
}

} // namespace

ReadStatus protocol::readFrame(int Fd, std::vector<std::uint8_t> &Payload,
                               std::size_t MaxBytes) {
  std::uint8_t Header[4];
  ssize_t N = readFull(Fd, Header, sizeof(Header));
  if (N < 0)
    return ReadStatus::IoError;
  if (N == 0)
    return ReadStatus::Eof;
  if (N != sizeof(Header))
    return ReadStatus::Truncated;
  std::uint32_t Len = static_cast<std::uint32_t>(Header[0]) |
                      static_cast<std::uint32_t>(Header[1]) << 8 |
                      static_cast<std::uint32_t>(Header[2]) << 16 |
                      static_cast<std::uint32_t>(Header[3]) << 24;
  if (Len > MaxBytes)
    return ReadStatus::TooLarge;
  Payload.resize(Len);
  if (Len != 0) {
    N = readFull(Fd, Payload.data(), Len);
    if (N < 0)
      return ReadStatus::IoError;
    if (static_cast<std::size_t>(N) != Len)
      return ReadStatus::Truncated;
  }
  return ReadStatus::Ok;
}

void protocol::ignoreSigpipe() {
  static std::once_flag Once;
  std::call_once(Once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

bool protocol::roundTrip(int InFd, int OutFd,
                         const std::vector<std::uint8_t> &Request,
                         std::vector<std::uint8_t> &Reply,
                         std::size_t MaxBytes) {
  if (!writeFrame(OutFd, Request, MaxBytes))
    return false;
  return readFrame(InFd, Reply, MaxBytes) == ReadStatus::Ok;
}

bool protocol::writeFrame(int Fd, const std::vector<std::uint8_t> &Payload,
                          std::size_t MaxBytes) {
  if (Payload.size() > MaxBytes)
    return false;
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  std::uint8_t Header[4] = {static_cast<std::uint8_t>(Len),
                            static_cast<std::uint8_t>(Len >> 8),
                            static_cast<std::uint8_t>(Len >> 16),
                            static_cast<std::uint8_t>(Len >> 24)};
  iovec Iov[2] = {{Header, sizeof(Header)},
                  {const_cast<std::uint8_t *>(Payload.data()),
                   Payload.size()}};
  return writeFullVec(Fd, Iov);
}
