//===- tests/support/ThreadPoolTest.cpp -----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "TestUtil.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

TEST(ThreadPool, ReportsRequestedSize) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.numThreads(), 3u);
  ThreadPool Default(0);
  EXPECT_GE(Default.numThreads(), 1u);
}

TEST(ThreadPool, SubmitAndWaitRunsEveryTask) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I != 100; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 100u);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<unsigned>> Hits(1000);
  Pool.parallelFor(0, Hits.size(),
                   [&Hits](std::size_t I) { Hits[I].fetch_add(1); },
                   /*GrainSize=*/7);
  for (std::size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, ParallelForEmptyAndSingletonRanges) {
  ThreadPool Pool(2);
  unsigned Count = 0;
  Pool.parallelFor(5, 5, [&Count](std::size_t) { ++Count; });
  EXPECT_EQ(Count, 0u);
  std::atomic<unsigned> One{0};
  Pool.parallelFor(7, 8, [&One](std::size_t I) {
    EXPECT_EQ(I, 7u);
    One.fetch_add(1);
  });
  EXPECT_EQ(One.load(), 1u);
}

TEST(ThreadPool, RunPerWorkerHandsOutEverySlotOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<unsigned>> Slots(4);
  Pool.runPerWorker([&Slots](unsigned W) {
    ASSERT_LT(W, 4u);
    Slots[W].fetch_add(1);
  });
  for (unsigned W = 0; W != 4; ++W)
    EXPECT_EQ(Slots[W].load(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<unsigned> Ran{0};
  {
    ThreadPool Pool(2);
    for (unsigned I = 0; I != 50; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No wait(): destruction itself must finish the queue.
  }
  EXPECT_EQ(Ran.load(), 50u);
}

TEST(ThreadPool, CallsCompleteWhileEveryWorkerIsBlocked) {
  // Every pool thread sits in a task that waits on a gate opened only after
  // the calls below returned: the calling thread must claim every index
  // itself, each exactly once.
  ThreadPool Pool(3);
  Gate Release;
  std::atomic<unsigned> Blocked{0};
  for (unsigned I = 0; I != Pool.numThreads(); ++I)
    Pool.submit([&] {
      Blocked.fetch_add(1);
      Release.wait();
    });
  while (Blocked.load() != Pool.numThreads())
    std::this_thread::yield();

  std::vector<std::atomic<unsigned>> Hits(500);
  std::vector<std::atomic<unsigned>> Slots(Pool.numThreads());
  bool InTime = finishesInTime(
      [&] {
        Pool.parallelFor(0, Hits.size(),
                         [&Hits](std::size_t I) { Hits[I].fetch_add(1); },
                         /*GrainSize=*/3);
        Pool.runPerWorker([&Slots](unsigned W) { Slots[W].fetch_add(1); });
      },
      [&] { Release.open(); });
  EXPECT_TRUE(InTime) << "a call waited for a blocked pool thread";
  Release.open();
  Pool.wait();
  for (std::size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
  for (std::size_t W = 0; W != Slots.size(); ++W)
    EXPECT_EQ(Slots[W].load(), 1u) << "worker slot " << W;
}

TEST(ThreadPool, ParallelForFromInsideAPoolTaskCompletes) {
  // The only pool thread issues a nested call: it has to run the call's
  // indices itself rather than wait for a worker that is itself.
  ThreadPool Pool(1);
  std::atomic<unsigned> Sum{0};
  std::promise<void> Done;
  std::future<void> DoneF = Done.get_future();
  Pool.submit([&] {
    Pool.parallelFor(0, 64, [&Sum](std::size_t I) {
      Sum.fetch_add(static_cast<unsigned>(I));
    });
    Done.set_value();
  });
  ASSERT_EQ(DoneF.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "nested parallelFor deadlocked on its own pool";
  Pool.wait();
  EXPECT_EQ(Sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPool, CallersBeyondTheBudgetStayOnTheirOwnThread) {
  // Caller A holds its token and has woken its one helper (both block
  // inside A's bodies), so a 2-thread pool has no spare token left: caller
  // B must answer its whole call on its own thread.
  ThreadPool Pool(2);
  Gate Release, AInside;
  std::atomic<bool> Signalled{false};
  std::thread A([&] {
    Pool.runPerWorker([&](unsigned) {
      if (!Signalled.exchange(true))
        AInside.open();
      Release.wait();
    });
  });
  AInside.wait();

  std::vector<std::thread::id> Ran(200);
  std::thread::id BId;
  bool InTime = finishesInTime(
      [&] {
        BId = std::this_thread::get_id();
        Pool.parallelFor(0, Ran.size(), [&Ran](std::size_t I) {
          Ran[I] = std::this_thread::get_id();
        });
      },
      [&] { Release.open(); });
  Release.open();
  A.join();
  ASSERT_TRUE(InTime) << "the second caller waited for busy pool threads";
  for (std::size_t I = 0; I != Ran.size(); ++I)
    EXPECT_EQ(Ran[I], BId) << "index " << I << " left the calling thread";
}

TEST(ThreadPool, OneThreadPoolNeverLeavesTheCaller) {
  ThreadPool Pool(1);
  std::vector<std::thread::id> Ran(100);
  Pool.parallelFor(0, Ran.size(), [&Ran](std::size_t I) {
    Ran[I] = std::this_thread::get_id();
  });
  std::thread::id Slot;
  Pool.runPerWorker([&Slot](unsigned) { Slot = std::this_thread::get_id(); });
  for (const std::thread::id &Id : Ran)
    EXPECT_EQ(Id, std::this_thread::get_id());
  EXPECT_EQ(Slot, std::this_thread::get_id());
}

namespace {

std::uint64_t helperWakes() {
  return telemetry::Registry::global().value(
      "ssalive_pool_helper_wakes_total");
}

std::uint64_t unusedHelperWakes() {
  return telemetry::Registry::global().value(
      "ssalive_pool_helper_wakes_unused_total");
}

/// Runs every worker slot of \p Pool behind a barrier that opens only once
/// all of them are inside at the same time, so the call finishes in time
/// only if numThreads() distinct threads ran it. Returns those threads.
std::set<std::thread::id> runBehindBarrier(ThreadPool &Pool, bool &InTime) {
  Gate AllIn;
  std::atomic<unsigned> Inside{0};
  std::mutex M;
  std::set<std::thread::id> Ran;
  InTime = finishesInTime(
      [&] {
        Pool.runPerWorker([&](unsigned) {
          {
            std::lock_guard<std::mutex> Lock(M);
            Ran.insert(std::this_thread::get_id());
          }
          if (Inside.fetch_add(1) + 1 == Pool.numThreads())
            AllIn.open();
          AllIn.wait();
        });
      },
      [&] { AllIn.open(); });
  return Ran;
}

} // namespace

TEST(ThreadPool, FullySeatedPoolKeepsEveryTicketOnTheCaller) {
  // Four seats on a four-thread pool leave no room in the helper budget:
  // a seat holder's calls run whole on its own thread and wake nobody.
  ThreadPool Pool(4);
  for (unsigned I = 0; I != 4; ++I)
    Pool.takeSeat();
  const std::uint64_t WakesBefore = helperWakes();
  std::vector<std::thread::id> Ran(300);
  Pool.parallelFor(0, Ran.size(), [&Ran](std::size_t I) {
    Ran[I] = std::this_thread::get_id();
  });
  std::vector<std::thread::id> Slots(Pool.numThreads());
  Pool.runPerWorker(
      [&Slots](unsigned W) { Slots[W] = std::this_thread::get_id(); });
  EXPECT_EQ(helperWakes(), WakesBefore);
  for (std::size_t I = 0; I != Ran.size(); ++I)
    EXPECT_EQ(Ran[I], std::this_thread::get_id()) << "index " << I;
  for (std::size_t W = 0; W != Slots.size(); ++W)
    EXPECT_EQ(Slots[W], std::this_thread::get_id()) << "worker slot " << W;
  for (unsigned I = 0; I != 4; ++I)
    Pool.releaseSeat();
}

TEST(ThreadPool, OneSeatStillWakesEveryOtherThread) {
  // A lone seat holder's call counts once, not twice: it keeps the caller
  // plus three helpers on a four-thread pool.
  ThreadPool Pool(4);
  Pool.takeSeat();
  const std::uint64_t WakesBefore = helperWakes();
  bool InTime = false;
  std::set<std::thread::id> Ran = runBehindBarrier(Pool, InTime);
  EXPECT_TRUE(InTime) << "a seat holder's call did not fan out";
  EXPECT_EQ(Ran.size(), 4u);
  EXPECT_EQ(helperWakes() - WakesBefore, 3u);
  Pool.releaseSeat();
  EXPECT_EQ(Pool.seats(), 0u);
}

TEST(ThreadPool, ReleasingSeatsRestoresTheBudget) {
  ThreadPool Pool(4);
  for (unsigned I = 0; I != 4; ++I)
    Pool.takeSeat();
  EXPECT_EQ(Pool.seats(), 4u);
  std::uint64_t WakesBefore = helperWakes();
  Pool.runPerWorker([](unsigned) {});
  EXPECT_EQ(helperWakes(), WakesBefore);

  for (unsigned I = 0; I != 4; ++I)
    Pool.releaseSeat();
  EXPECT_EQ(Pool.seats(), 0u);
  WakesBefore = helperWakes();
  bool InTime = false;
  std::set<std::thread::id> Ran = runBehindBarrier(Pool, InTime);
  EXPECT_TRUE(InTime) << "released seats still held the budget";
  EXPECT_EQ(Ran.size(), 4u);
  EXPECT_EQ(helperWakes() - WakesBefore, 3u);
}

TEST(ThreadPool, SeatedCallsCompleteWhileEveryWorkerIsBlocked) {
  // One seat leaves room for helpers, so the calls below wake some — but
  // every pool thread is parked on a gate, so the woken helpers arrive only
  // after the calls returned: the caller claims every ticket itself, and
  // each late helper is counted as an unused wake.
  ThreadPool Pool(4);
  Pool.takeSeat();
  Gate Release;
  std::atomic<unsigned> Blocked{0};
  for (unsigned I = 0; I != Pool.numThreads(); ++I)
    Pool.submit([&] {
      Blocked.fetch_add(1);
      Release.wait();
    });
  while (Blocked.load() != Pool.numThreads())
    std::this_thread::yield();

  const std::uint64_t WakesBefore = helperWakes();
  const std::uint64_t UnusedBefore = unusedHelperWakes();
  std::vector<std::atomic<unsigned>> Hits(500);
  std::vector<std::atomic<unsigned>> Slots(Pool.numThreads());
  bool InTime = finishesInTime(
      [&] {
        Pool.parallelFor(0, Hits.size(),
                         [&Hits](std::size_t I) { Hits[I].fetch_add(1); },
                         /*GrainSize=*/3);
        Pool.runPerWorker([&Slots](unsigned W) { Slots[W].fetch_add(1); });
      },
      [&] { Release.open(); });
  EXPECT_TRUE(InTime) << "a seated call waited for a blocked pool thread";
  Release.open();
  Pool.wait();
  for (std::size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
  for (std::size_t W = 0; W != Slots.size(); ++W)
    EXPECT_EQ(Slots[W].load(), 1u) << "worker slot " << W;
  const std::uint64_t Wakes = helperWakes() - WakesBefore;
  EXPECT_GT(Wakes, 0u);
  EXPECT_EQ(unusedHelperWakes() - UnusedBefore, Wakes);
  Pool.releaseSeat();
}
