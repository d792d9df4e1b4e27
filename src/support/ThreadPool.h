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
/// first. Pool threads join a call only as *helpers*, and a call wakes at
/// most
///
///   numThreads() - max(seats, active callers) - helpers already woken
///
/// of them (and never more than it has tickets to share); a helper leaves
/// the count when it finishes.
///
///   * An active caller is a thread inside parallelFor/runPerWorker.
///   * A seat is held across calls by a long-lived client of the pool —
///     the liveness server takes one per open session (takeSeat /
///     releaseSeat). A session spends part of every round trip outside the
///     pool (reading, decoding, encoding, writing); its seat keeps the core
///     it runs on out of the budget then too, so another session's call
///     cannot wake helpers that compete with its connection thread. Its
///     own calls run inside its seat and are not charged twice: the budget
///     counts max(seats, callers), not the sum.
///   * An idle seat holder keeps its seat. That can cost another caller
///     helpers, never an answer.
///
/// So one caller (seated or not) on an otherwise idle N-thread pool runs
/// with N-1 helpers; N seats on an N-thread pool, or N concurrent callers,
/// leave each call alone on its own thread — no handoff, no wake-up
/// latency — and a 1-thread pool never leaves the calling thread at all.
/// The budget is advisory: it decides only how many helpers are woken, not
/// which tickets exist or who may claim them, so answers never depend on
/// it. Callers that take no seat (a batch driver over its own pool) see
/// zero seats.
///
/// A helper woken for a call that has already finished (the caller drained
/// every ticket before the helper was scheduled) returns without touching
/// the caller's state: the call's body lives on the caller's stack, and a
/// call returns only after every helper that entered it has left. Because
/// the caller never waits for a helper to *start*, a call completes even
/// when every pool thread is blocked — including when it is issued from
/// inside a pool task.
///
/// Telemetry: ssalive_pool_helper_wakes_total counts woken helpers, and
/// ssalive_pool_helper_wakes_unused_total those that ran no ticket (their
/// call had finished, or every ticket was already claimed);
/// ssalive_pool_seats and ssalive_pool_threads are the levels the budget
/// is computed from.
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

  /// Holds one seat until the matching releaseSeat(): the holder's core is
  /// kept out of the helper budget across calls (see the file comment).
  void takeSeat();
  void releaseSeat();
  unsigned seats() const {
    return static_cast<unsigned>(Seats.load(std::memory_order_relaxed));
  }

private:
  struct Call;
  /// Runs tickets [0, Tickets) through \p Run(Ctx, Ticket) on the calling
  /// thread plus budgeted helpers; returns when every ticket has run.
  void runTickets(std::size_t Tickets, void (*Run)(const void *, std::size_t),
                  const void *Ctx);
  /// Counts one more woken helper, if the budget has room for it.
  bool takeHelper();
  void workerLoop();

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  unsigned Busy = 0;
  bool Stopping = false;
  /// The helper budget's inputs: numThreads() - max(Seats, Callers) -
  /// Helpers helpers may be woken.
  std::atomic<int> Seats{0};
  std::atomic<int> Callers{0};
  std::atomic<int> Helpers{0};
};

} // namespace ssalive

#endif // SSALIVE_SUPPORT_THREADPOOL_H
