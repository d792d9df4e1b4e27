//===- e2ebench/replay.h - In-process per-layer replay ----------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's second half: the same frame stream the server answered,
/// replayed in-process with a timer around each call into a module's public
/// functions (ir, analysis, core, pipeline, server). Nothing inside src/ is
/// instrumented; the replay only calls and times.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_E2EBENCH_REPLAY_H
#define SSALIVE_E2EBENCH_REPLAY_H

#include "workloads.h"

#include <map>
#include <string>

namespace e2e {

/// Replays the setup cover and up to \p MaxQueryFrames query frames of
/// connection 0's stream of \p W, from the initial module. Writes the
/// per-layer figures into \p Out as (value, unit) under their metric
/// names; returns the number of replies or answers that disagreed with the
/// oracle.
std::uint64_t
replayLayers(const Workload &W, unsigned Threads, std::size_t MaxQueryFrames,
             std::map<std::string, std::pair<double, const char *>> &Out);

} // namespace e2e

#endif // SSALIVE_E2EBENCH_REPLAY_H
