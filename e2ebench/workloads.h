//===- e2ebench/workloads.h - Seeded traffic mixes and their oracle -------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three traffic mixes of the end-to-end benchmark, generated from a
/// seed before anything is timed. Every frame carries the request payload
/// and the reply payload an independent oracle produced for it: an
/// in-process server::Session on the Dataflow backend and the block-id
/// plane, fed the same request sequence (CFG edits included), exactly as
/// `ssalive-client --verify` checks the server. The timed loop therefore
/// only compares bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_E2EBENCH_WORKLOADS_H
#define SSALIVE_E2EBENCH_WORKLOADS_H

#include "ir/Function.h"
#include "pipeline/BatchLivenessDriver.h"
#include "server/Protocol.h"
#include "server/SessionManager.h"
#include "support/RandomEngine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/// One request of the stream with the reply the oracle expects for it.
struct Frame {
  bool IsEdit = false;
  /// The first QueryBatch after an EditCFG frame: it pays for the epoch
  /// drops and the prepared-entry rebuilds the edit caused.
  bool PostEdit = false;
  std::uint32_t Queries = 0; ///< QueryBatch frames only.
  std::vector<std::uint8_t> Request;
  std::vector<std::uint8_t> Expected;
};

/// A generated workload: the module text, and per connection the set-up
/// cover and the timed stream, each frame with its expected reply.
class Workload {
public:
  static bool isKnown(const std::string &Name);

  /// Generates the module and every connection's stream for \p Name from
  /// \p Seed. \p Tiny shrinks every size for the self-test. \p Cores is the
  /// machine's core count, which sizes connections and server threads.
  Workload(const std::string &Name, std::uint64_t Seed, bool Tiny,
           unsigned Cores);
  ~Workload();

  unsigned connections() const { return Connections; }
  /// The --threads value the server is started with.
  unsigned serverThreads() const { return ServerThreads; }
  /// edit-storm is the 1-core figure: its server is confined to one core
  /// and the load generator's connection runs on another.
  bool oneCoreServer() const { return Name == "edit-storm"; }

  /// LoadModule in the production configuration (propagated backend,
  /// prepared plane) and the ModuleLoaded reply the oracle expects.
  const std::vector<std::uint8_t> &loadRequest() const { return LoadReq; }
  const std::vector<std::uint8_t> &loadExpected() const { return LoadExp; }
  const std::string &moduleText() const { return Text; }

  /// The setup pass of connection \p C: one query per (function, value) its
  /// stream touches, so every value is prepared before timing starts.
  const std::vector<Frame> &cover(unsigned C) const { return Covers[C]; }

  /// The timed stream of connection \p C, replayed cyclically. Query-only
  /// answers do not depend on history; the edit-storm stream changes the
  /// session's CFGs, so before it wraps around the session must be reset
  /// to the initial module (reload plus the cover pass, untimed).
  const std::vector<Frame> &stream(unsigned C) const { return Streams[C]; }
  bool resetsOnWrap() const { return Name == "edit-storm"; }

  /// Flips one byte of the first timed frame's expected reply, so a run
  /// must report it failed: the self-test's proof that the latch trips.
  void corruptFirstExpected() { Streams[0].front().Expected.back() ^= 1; }

private:
  struct EditLane;

  void generateModule(std::uint64_t Seed);
  std::vector<Frame> coverFor(const std::vector<ssalive::BatchQuery> &Qs);
  void generateSpecUniform(std::uint64_t Seed);
  void generateInterference(std::uint64_t Seed);
  void generateEditStorm(std::uint64_t Seed);

  std::string Name;
  bool Tiny;
  unsigned Cores;
  unsigned Connections = 1;
  unsigned ServerThreads = 1;
  std::string Text;
  std::vector<std::string> FuncTexts;
  std::vector<std::uint8_t> LoadReq, LoadExp;
  std::vector<std::vector<Frame>> Covers, Streams;

  /// The generator's own copy of the module, parsed back from the shipped
  /// text so its value and block ids are the server's and the oracle's.
  std::vector<std::unique_ptr<ssalive::Function>> Gen;
  std::vector<const ssalive::Function *> GenPtrs;

  std::unique_ptr<ssalive::server::SessionManager> OracleManager;
  std::unique_ptr<ssalive::server::Session> Oracle;
};

/// Decodes a QueryBatch request payload back into batch queries (the
/// in-process replay feeds the same frames to the pipeline directly).
std::vector<ssalive::BatchQuery>
decodeQueries(const std::vector<std::uint8_t> &Request);
/// Decodes an EditCFG request payload.
std::vector<ssalive::protocol::EditItem>
decodeEdits(const std::vector<std::uint8_t> &Request);

} // namespace e2e

#endif // SSALIVE_E2EBENCH_WORKLOADS_H
