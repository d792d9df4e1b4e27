//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker-thread pool with task submission and blocking,
/// caller-participating parallelFor/runPerWorker calls. The pipeline layer
/// uses it to fan per-function analysis construction and query streams
/// across cores; everything else in the project stays single-threaded and
/// never pays for it.
///
/// ## Caller participation and the helper budget
///
/// A blocking call splits its range into tickets (grain-sized chunks for
/// parallelFor, logical worker slots for runPerWorker). The calling thread
/// claims tickets itself until none is left; each ticket is claimed
/// exactly once, through one atomic counter, by whichever thread gets there
/// first. Pool threads join a call only as *helpers*, and helpers are woken
/// against a pool-wide budget of numThreads() tokens:
///
///   * every active caller holds one token for the duration of its call;
///   * a caller wakes at most one helper per spare token (and never more
///     than it has tickets to share); a helper returns its token when it
///     finishes.
///
/// So one caller on an idle N-thread pool runs with N-1 helpers, while N
/// concurrent callers (the liveness server's sessions on a shared pool)
/// each run alone on their own thread — no handoff, no wake-up latency —
/// and a 1-thread pool never leaves the calling thread at all.
///
/// A helper woken for a call that has already finished (the caller drained
/// every ticket before the helper was scheduled) returns without touching
/// the caller's state: the call's body lives on the caller's stack, and a
/// call returns only after every helper that entered it has left. Because
/// the caller never waits for a helper to *start*, a call completes even
/// when every pool thread is blocked — including when it is issued from
/// inside a pool task.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SUPPORT_THREADPOOL_H
#define SSALIVE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ssalive {

/// Fixed-size pool of worker threads draining a shared task queue.
///
/// Tasks must not throw (the project builds without exceptions in mind;
/// a throwing task would terminate). Destruction waits for all queued
/// tasks to finish.
class ThreadPool {
public:
  /// Creates \p NumThreads workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(unsigned NumThreads = 0);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task for execution by some worker.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished executing (not merely
  /// been dequeued).
  void wait();

  /// Runs \p Body(I) for every I in [Begin, End) and blocks until all
  /// iterations are done. Iterations are claimed in contiguous chunks of
  /// \p GrainSize by the calling thread and by any helpers the budget
  /// allows (see the file comment), so each index runs exactly once on
  /// some thread. With an empty range this returns immediately. Any number
  /// of threads may issue independent calls on one shared pool; each
  /// returns as soon as its own iterations are done.
  void parallelFor(std::size_t Begin, std::size_t End,
                   const std::function<void(std::size_t)> &Body,
                   std::size_t GrainSize = 1);

  /// Runs \p Body(WorkerIndex) exactly once for each of the numThreads()
  /// logical worker indices and blocks until all are done. Indices are
  /// claimed like parallelFor iterations: the caller may run several of
  /// them itself. This is the shape the batch driver wants: each
  /// invocation owns slot WorkerIndex of a per-worker results array, so
  /// aggregation needs no locks.
  void runPerWorker(const std::function<void(unsigned)> &Body);

private:
  struct Call;
  /// Runs tickets [0, Tickets) through \p Run(Ctx, Ticket) on the calling
  /// thread plus budgeted helpers; returns when every ticket has run.
  void runTickets(std::size_t Tickets, void (*Run)(const void *, std::size_t),
                  const void *Ctx);
  /// Takes one spare helper token, if the budget has one.
  bool takeToken();
  void workerLoop();

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  unsigned Busy = 0;
  bool Stopping = false;
  /// Helper budget: numThreads() minus active callers minus woken helpers.
  /// Goes negative when more callers than threads are active.
  std::atomic<int> Tokens{0};
};

} // namespace ssalive

#endif // SSALIVE_SUPPORT_THREADPOOL_H
