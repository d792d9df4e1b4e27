//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <memory>

using namespace ssalive;

namespace {

/// Pool-wide telemetry: the queue-depth gauge tracks Queue.size() and is
/// only ever touched inside sections that already hold the pool mutex, so
/// it costs no extra synchronization.
struct PoolTelemetry {
  telemetry::Counter Tasks{"ssalive_pool_tasks_total"};
  telemetry::Gauge QueueDepth{"ssalive_pool_queue_depth"};

  static const PoolTelemetry &get() {
    static PoolTelemetry T;
    return T;
  }
};

} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0) {
    NumThreads = std::thread::hardware_concurrency();
    if (NumThreads == 0)
      NumThreads = 1;
  }
  Tokens.store(static_cast<int>(NumThreads), std::memory_order_relaxed);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop();
      PoolTelemetry::get().QueueDepth.add(-1);
      ++Busy;
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --Busy;
      if (Busy == 0 && Queue.empty())
        AllIdle.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push(std::move(Task));
    PoolTelemetry::get().Tasks.inc();
    PoolTelemetry::get().QueueDepth.add(1);
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Busy == 0 && Queue.empty(); });
}

/// Shared state of one blocking call that woke helpers. Helpers hold it
/// by shared_ptr, so a helper scheduled after the call returned still finds
/// valid memory — but it sees Finished and leaves without calling Run,
/// whose context lives on the (gone) caller's stack.
struct ThreadPool::Call {
  Call(std::size_t Tickets, void (*Run)(const void *, std::size_t),
       const void *Ctx)
      : Tickets(Tickets), Run(Run), Ctx(Ctx) {}

  /// Claims and runs tickets until none is left.
  void drain() {
    for (;;) {
      std::size_t T = Next.fetch_add(1, std::memory_order_relaxed);
      if (T >= Tickets)
        return;
      Run(Ctx, T);
    }
  }

  /// A helper's whole visit: enter unless the call is over, drain, leave.
  void help() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Finished)
        return;
      ++Active;
    }
    drain();
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--Active == 0)
      Left.notify_all();
  }

  /// The caller's end of the call: no helper may enter from here on, and
  /// the ones inside must leave before the caller's stack unwinds.
  void finish() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Finished = true;
    Left.wait(Lock, [this] { return Active == 0; });
  }

  std::atomic<std::size_t> Next{1}; ///< Ticket 0 is the caller's own.
  const std::size_t Tickets;
  void (*const Run)(const void *, std::size_t);
  const void *const Ctx;
  std::mutex Mutex;
  std::condition_variable Left;
  unsigned Active = 0;
  bool Finished = false;
};

bool ThreadPool::takeToken() {
  int T = Tokens.load(std::memory_order_relaxed);
  while (T > 0)
    if (Tokens.compare_exchange_weak(T, T - 1, std::memory_order_relaxed))
      return true;
  return false;
}

void ThreadPool::runTickets(std::size_t Tickets,
                            void (*Run)(const void *, std::size_t),
                            const void *Ctx) {
  if (Tickets == 0)
    return;
  // The caller's own token, held for the whole call: N concurrent callers
  // on an N-thread pool leave no spare token, so none of them hands work
  // to another thread.
  Tokens.fetch_sub(1, std::memory_order_relaxed);
  std::size_t Helpers = 0;
  while (Helpers + 1 < Tickets && Helpers + 1 < numThreads() && takeToken())
    ++Helpers;
  if (Helpers == 0) {
    for (std::size_t T = 0; T != Tickets; ++T)
      Run(Ctx, T);
  } else {
    // Ticket 0 is the caller's: it starts on its own share (the first
    // chunk, or logical worker 0) while the helpers wake, instead of
    // racing a freshly woken helper for it and then waiting on that
    // helper's cold cache.
    auto C = std::make_shared<Call>(Tickets, Run, Ctx);
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      for (std::size_t H = 0; H != Helpers; ++H) {
        Queue.push([this, C] {
          C->help();
          Tokens.fetch_add(1, std::memory_order_relaxed);
        });
        PoolTelemetry::get().Tasks.inc();
        PoolTelemetry::get().QueueDepth.add(1);
      }
    }
    for (std::size_t H = 0; H != Helpers; ++H)
      WorkAvailable.notify_one();
    Run(Ctx, 0);
    C->drain();
    C->finish();
  }
  Tokens.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::parallelFor(std::size_t Begin, std::size_t End,
                             const std::function<void(std::size_t)> &Body,
                             std::size_t GrainSize) {
  if (Begin >= End)
    return;
  if (GrainSize == 0)
    GrainSize = 1;
  struct Range {
    std::size_t Begin, End, Grain;
    const std::function<void(std::size_t)> &Body;
  } R{Begin, End, GrainSize, Body};
  runTickets((End - Begin + GrainSize - 1) / GrainSize,
             [](const void *Ctx, std::size_t T) {
               const Range &R = *static_cast<const Range *>(Ctx);
               std::size_t Lo = R.Begin + T * R.Grain;
               std::size_t Hi = R.End - Lo < R.Grain ? R.End : Lo + R.Grain;
               for (std::size_t I = Lo; I != Hi; ++I)
                 R.Body(I);
             },
             &R);
}

void ThreadPool::runPerWorker(const std::function<void(unsigned)> &Body) {
  runTickets(numThreads(),
             [](const void *Ctx, std::size_t T) {
               (*static_cast<const std::function<void(unsigned)> *>(Ctx))(
                   static_cast<unsigned>(T));
             },
             &Body);
}
