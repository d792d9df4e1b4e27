//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <memory>

using namespace ssalive;

namespace {

/// Pool-wide telemetry: the queue-depth gauge tracks Queue.size() and is
/// only ever touched inside sections that already hold the pool mutex, so
/// it costs no extra synchronization. The threads and seats gauges sum over
/// every live pool in the process.
struct PoolTelemetry {
  telemetry::Counter Tasks{"ssalive_pool_tasks_total"};
  telemetry::Gauge QueueDepth{"ssalive_pool_queue_depth"};
  telemetry::Gauge Threads{"ssalive_pool_threads"};
  telemetry::Gauge Seats{"ssalive_pool_seats"};
  telemetry::Counter HelperWakes{"ssalive_pool_helper_wakes_total"};
  telemetry::Counter HelperWakesUnused{
      "ssalive_pool_helper_wakes_unused_total"};

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
  PoolTelemetry::get().Threads.add(NumThreads);
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
  PoolTelemetry::get().Threads.add(-static_cast<std::int64_t>(numThreads()));
}

void ThreadPool::takeSeat() {
  Seats.fetch_add(1, std::memory_order_relaxed);
  PoolTelemetry::get().Seats.add(1);
}

void ThreadPool::releaseSeat() {
  Seats.fetch_sub(1, std::memory_order_relaxed);
  PoolTelemetry::get().Seats.add(-1);
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

  /// Claims and runs tickets until none is left; false if it ran none.
  bool drain() {
    bool Ran = false;
    for (;;) {
      std::size_t T = Next.fetch_add(1, std::memory_order_relaxed);
      if (T >= Tickets)
        return Ran;
      Run(Ctx, T);
      Ran = true;
    }
  }

  /// A helper's whole visit: enter unless the call is over, drain, leave.
  /// False if the helper ran no ticket.
  bool help() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Finished)
        return false;
      ++Active;
    }
    bool Ran = drain();
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--Active == 0)
      Left.notify_all();
    return Ran;
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

bool ThreadPool::takeHelper() {
  // A seat holder's own call is inside its seat: count the larger of the
  // two, never their sum.
  const int Held = std::max(Seats.load(std::memory_order_relaxed),
                            Callers.load(std::memory_order_relaxed));
  int H = Helpers.load(std::memory_order_relaxed);
  while (static_cast<int>(numThreads()) - Held - H > 0)
    if (Helpers.compare_exchange_weak(H, H + 1, std::memory_order_relaxed))
      return true;
  return false;
}

void ThreadPool::runTickets(std::size_t Tickets,
                            void (*Run)(const void *, std::size_t),
                            const void *Ctx) {
  if (Tickets == 0)
    return;
  // The caller counts for the whole call: N concurrent callers (or N
  // seats) on an N-thread pool leave no room in the budget, so none of them
  // hands work to another thread.
  Callers.fetch_add(1, std::memory_order_relaxed);
  std::size_t Woken = 0;
  while (Woken + 1 < Tickets && Woken + 1 < numThreads() && takeHelper())
    ++Woken;
  if (Woken == 0) {
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
      for (std::size_t H = 0; H != Woken; ++H) {
        Queue.push([this, C] {
          if (!C->help())
            PoolTelemetry::get().HelperWakesUnused.inc();
          Helpers.fetch_sub(1, std::memory_order_relaxed);
        });
        PoolTelemetry::get().Tasks.inc();
        PoolTelemetry::get().QueueDepth.add(1);
      }
    }
    PoolTelemetry::get().HelperWakes.inc(Woken);
    for (std::size_t H = 0; H != Woken; ++H)
      WorkAvailable.notify_one();
    Run(Ctx, 0);
    C->drain();
    C->finish();
  }
  Callers.fetch_sub(1, std::memory_order_relaxed);
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
