//===- server/Protocol.h - Liveness server wire protocol --------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary request/reply protocol of the liveness query
/// server. Every message travels as one frame:
///
///   u32le PayloadLength | Payload
///   Payload := u8 Opcode | Body
///
/// Requests:
///   LoadModule   u8 backend | u8 plane | <rest: .ssair module text>;
///                backend ids: 0 propagated, 5 dataflow, 6 path-exploration
///                (BatchBackend); plane ids: 0 block-id, 3 prepared
///                (QueryPlane). Every other id, including the retired
///                backends 1-4 and planes 1-2, is refused with
///                Error(BadBackend) / Error(BadPlane)
///   QueryBatch   u32 count | count x (u32 func | u32 value | u32 block |
///                u8 flags; bit0 = live-out)
///   EditCFG      u32 count | count x (u8 kind | u32 func | u32 from |
///                u32 to | u32 to2)   — kind mirrors workload::MutationKind
///   Stats        (empty)
///   Metrics      (empty) — full process-wide telemetry registry dump
///   Shutdown     (empty)
///
/// Replies:
///   ModuleLoaded u32 numFuncs | u64 totalBlocks | u64 totalValues
///   Answers      u32 count | count x u8 (0/1), positionally matching the
///                request — byte-identical to BatchLivenessDriver answers
///   EditApplied  u32 count | count x (u8 applied | u64 cfgEpoch)
///   StatsReply   u64 queries | u64 positives | u64 editsApplied |
///                u64 editsRejected | u64 cacheHits | u64 cacheMisses |
///                u64 invalidations | u64 refreshes | u32 numFuncs |
///                u32 threads
///   MetricsReply u32 count | count x (u8 kind | u16 nameLen | name |
///                payload); kind 0 counter / 1 gauge: u64 value; kind 2
///                histogram: u64 count | u64 sum | u16 nbuckets |
///                nbuckets x u64 bucket counts
///   Ok           (empty)
///   Error        u16 code | u32 msgLen | msg bytes
///
/// Retired ids, never reused: opcodes 0x07 and 0x87 (the session-resume
/// handshake and its reply) and error codes 10 and 12. A 0x07 request is
/// answered Error(UnknownOpcode) like any other unknown opcode.
///
/// A request answered Error(Overloaded) was shed before dispatch: it had no
/// effect on the session, and the client may retry it.
///
/// Every reply a session produces is a pure function of the request
/// sequence it has seen (answers are thread-count independent by the batch
/// driver's construction; edit epochs replay deterministically), which is
/// what lets the differential soak clients compare replies byte for byte
/// against an in-process oracle. The one deliberate exception is
/// MetricsReply: it reports the *process-wide* telemetry registry (all
/// sessions, all layers), so it is additive observability, not part of the
/// differential surface — StatsReply remains the per-session, byte-stable
/// report the oracles compare. Malformed input of any shape — truncated
/// body, trailing garbage, unknown opcode, out-of-range ids — yields a
/// well-formed Error reply, never a crash; an oversized *declared* frame
/// length is answered with Error(FrameTooLarge) and a connection close,
/// since the stream cannot be resynchronized past a frame that was never
/// read.
///
/// The encode helpers are shared by the server (producing replies), the
/// client (producing requests), and the test oracles (producing *expected*
/// reply bytes), so a byte-for-byte comparison compares semantics, not two
/// serializer implementations.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SERVER_PROTOCOL_H
#define SSALIVE_SERVER_PROTOCOL_H

#include "support/Telemetry.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ssalive::protocol {

/// Frames larger than this are rejected on both send and receive unless the
/// caller passes its own cap (the server makes it configurable).
constexpr std::size_t DefaultMaxFrameBytes = 16u << 20;

enum class Opcode : std::uint8_t {
  // Requests.
  LoadModule = 0x01,
  QueryBatch = 0x02,
  EditCFG = 0x03,
  Stats = 0x04,
  Shutdown = 0x05,
  Metrics = 0x06,
  // 0x07 is retired (see the file comment).
  // Replies.
  ModuleLoaded = 0x81,
  Answers = 0x82,
  EditApplied = 0x83,
  StatsReply = 0x84,
  Ok = 0x85,
  MetricsReply = 0x86,
  // 0x87 is retired (see the file comment).
  Error = 0xFF,
};

enum class ErrorCode : std::uint16_t {
  MalformedFrame = 1, ///< Body too short/long for its opcode.
  UnknownOpcode = 2,
  NoModule = 3,      ///< Query/edit before a successful LoadModule.
  BadModule = 4,     ///< Parse or SSA-verification failure.
  BadBackend = 5,
  BadPlane = 6,
  BadQuery = 7,      ///< Function/value/block id out of range.
  BadEdit = 8,       ///< Unknown edit kind or function id out of range.
  FrameTooLarge = 9, ///< Declared length exceeds the cap; fatal.
  // 10 is retired (see the file comment).
  Overloaded = 11,   ///< Shed: connection, session, or in-flight cap hit.
  // 12 is retired (see the file comment).
};

/// One liveness query on the wire (QueryBatch body element).
struct QueryItem {
  std::uint32_t FuncIndex = 0;
  std::uint32_t ValueId = 0;
  std::uint32_t BlockId = 0;
  bool IsLiveOut = false;
};

/// One CFG edit on the wire (EditCFG body element). Kind mirrors
/// MutationKind: 0 AddEdge, 1 RemoveEdge, 2 RetargetBranch, 3 SplitBlock.
struct EditItem {
  std::uint8_t Kind = 0;
  std::uint32_t FuncIndex = 0;
  std::uint32_t From = 0;
  std::uint32_t To = 0;
  std::uint32_t To2 = 0;
};

/// StatsReply body, as plain data (both sides speak this struct).
struct StatsWire {
  std::uint64_t Queries = 0;
  std::uint64_t Positives = 0;
  std::uint64_t EditsApplied = 0;
  std::uint64_t EditsRejected = 0;
  std::uint64_t CacheHits = 0;
  std::uint64_t CacheMisses = 0;
  std::uint64_t Invalidations = 0;
  std::uint64_t Refreshes = 0;
  std::uint32_t NumFuncs = 0;
  std::uint32_t Threads = 0;
};

//===----------------------------------------------------------------------===//
// Bounds-checked little-endian readers/writers.
//===----------------------------------------------------------------------===//

/// Append-only payload builder (little-endian scalars).
class WireWriter {
public:
  void u8(std::uint8_t V) { Bytes.push_back(V); }
  void u16(std::uint16_t V) { scalar(V); }
  void u32(std::uint32_t V) { scalar(V); }
  void u64(std::uint64_t V) { scalar(V); }
  void raw(const void *Data, std::size_t Len) {
    const auto *P = static_cast<const std::uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Len);
  }

  std::vector<std::uint8_t> take() { return std::move(Bytes); }

private:
  template <class T> void scalar(T V) {
    for (unsigned I = 0; I != sizeof(T); ++I)
      Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }
  std::vector<std::uint8_t> Bytes;
};

/// Cursor over a received payload. Every accessor checks bounds; an
/// underflow latches !ok() and returns zero, so decoders can read a whole
/// fixed-shape body and test ok() once — garbage never indexes anything.
class WireReader {
public:
  WireReader(const std::uint8_t *Data, std::size_t Len)
      : P(Data), E(Data + Len) {}

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }

  /// The remaining bytes, viewed in place (consumes them).
  std::string_view rest() {
    std::string_view S(reinterpret_cast<const char *>(P),
                       static_cast<std::size_t>(E - P));
    P = E;
    return S;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(E - P); }
  bool atEnd() const { return P == E; }
  bool ok() const { return Good; }

private:
  template <class T> T scalar() {
    if (static_cast<std::size_t>(E - P) < sizeof(T)) {
      Good = false;
      P = E;
      return 0;
    }
    T V = 0;
    for (unsigned I = 0; I != sizeof(T); ++I)
      V |= static_cast<T>(static_cast<T>(P[I]) << (8 * I));
    P += sizeof(T);
    return V;
  }

  const std::uint8_t *P;
  const std::uint8_t *E;
  bool Good = true;
};

//===----------------------------------------------------------------------===//
// Payload encoders (shared by client, server, and test oracles).
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> encodeLoadModule(std::uint8_t Backend,
                                           std::uint8_t Plane,
                                           const std::string &ModuleText);
std::vector<std::uint8_t> encodeQueryBatch(const std::vector<QueryItem> &Qs);
std::vector<std::uint8_t> encodeEditBatch(const std::vector<EditItem> &Es);
std::vector<std::uint8_t> encodeStats();
std::vector<std::uint8_t> encodeMetricsRequest();
std::vector<std::uint8_t> encodeShutdown();

std::vector<std::uint8_t> encodeModuleLoaded(std::uint32_t NumFuncs,
                                             std::uint64_t TotalBlocks,
                                             std::uint64_t TotalValues);
std::vector<std::uint8_t>
encodeAnswers(const std::vector<std::uint8_t> &Answers);
/// One (applied, epoch) pair per edit, in request order.
std::vector<std::uint8_t> encodeEditApplied(
    const std::vector<std::pair<std::uint8_t, std::uint64_t>> &Results);
std::vector<std::uint8_t> encodeStatsReply(const StatsWire &S);
/// Full registry dump (typically Registry::global().snapshot()).
std::vector<std::uint8_t>
encodeMetricsReply(const std::vector<telemetry::Metric> &Metrics);
std::vector<std::uint8_t> encodeOk();
std::vector<std::uint8_t> encodeError(ErrorCode Code, const std::string &Msg);

/// Decodes a MetricsReply body (\p R positioned after the opcode byte).
/// Fully bounds-checked and allocation-safe against adversarial frames: a
/// lying count or bucket total never pre-reserves memory — every element is
/// read through the latching reader and decoding stops at the first
/// underflow or malformed field (unknown kind, oversized bucket count),
/// returning false with \p Out holding only fully-decoded entries.
bool decodeMetrics(WireReader &R, std::vector<telemetry::Metric> &Out);

//===----------------------------------------------------------------------===//
// Frame transport over file descriptors (pipes and sockets alike).
//===----------------------------------------------------------------------===//

enum class ReadStatus {
  Ok,        ///< A whole frame landed in the buffer.
  Eof,       ///< Clean close before any byte of a frame.
  Truncated, ///< Close mid-frame.
  TooLarge,  ///< Declared length exceeds the cap (frame not consumed).
  IoError,   ///< read() failed.
};

/// Reads one frame into \p Payload. Retries on EINTR and partial reads.
ReadStatus readFrame(int Fd, std::vector<std::uint8_t> &Payload,
                     std::size_t MaxBytes = DefaultMaxFrameBytes);

/// Writes the length prefix and \p Payload as ONE gathered writev — header
/// and payload leave in a single syscall (and, under TCP_NODELAY, a single
/// segment), and a crash can no longer strand a bare header on the wire.
/// Retries on EINTR and partial writes; returns false on I/O error or a
/// payload above \p MaxBytes.
bool writeFrame(int Fd, const std::vector<std::uint8_t> &Payload,
                std::size_t MaxBytes = DefaultMaxFrameBytes);

/// Ignores SIGPIPE process-wide (idempotent). A peer hanging up mid-reply
/// must surface as a write() error, not kill the server; every transport
/// endpoint (server, client, tests) calls this before first I/O.
void ignoreSigpipe();

/// Client-side convenience: sends \p Request on \p OutFd and reads one
/// reply frame from \p InFd into \p Reply. Returns false on any transport
/// failure. Pass the same fd twice for a socket.
bool roundTrip(int InFd, int OutFd, const std::vector<std::uint8_t> &Request,
               std::vector<std::uint8_t> &Reply,
               std::size_t MaxBytes = DefaultMaxFrameBytes);

} // namespace ssalive::protocol

#endif // SSALIVE_SERVER_PROTOCOL_H
