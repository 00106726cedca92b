#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace {

TEST(ThreadPoolTest, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// GUARDRAIL_THREADS is read strictly: a malformed value falls back to the
// hardware count instead of being truncated to its numeric prefix.
TEST(ThreadPoolTest, DefaultThreadsReadsEnvStrictly) {
  const char* saved = std::getenv("GUARDRAIL_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  ::unsetenv("GUARDRAIL_THREADS");
  const int fallback = ThreadPool::DefaultThreads();
  ::setenv("GUARDRAIL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  for (const char* bad : {"4x", "2.5", "0", "-2", ""}) {
    ::setenv("GUARDRAIL_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << "'" << bad << "'";
  }
  if (saved == nullptr) {
    ::unsetenv("GUARDRAIL_THREADS");
  } else {
    ::setenv("GUARDRAIL_THREADS", restore.c_str(), 1);
  }
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor drains: every submitted task ran exactly once.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerPoolDrainsOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(0);
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, WorkStealingRebalancesSkewedTasks) {
  // One long task occupies a worker; the short tasks queued behind it (the
  // deques are filled round-robin) must be stolen by the other worker while
  // the first is blocked, or this test deadlocks on `release`.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> short_done{0};
  pool.Submit([gate] { gate.wait(); });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&short_done] { short_done.fetch_add(1); });
  }
  // The blocked worker holds half the deques' tasks; stealing lets the
  // other worker finish all short tasks anyway.
  for (int spin = 0; spin < 2000 && short_done.load() < 8; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(short_done.load(), 8);
  release.set_value();
}

TEST(ParallelForTest, RunsEveryItemIntoItsSlot) {
  ThreadPool pool(4);
  constexpr int64_t kItems = 10000;
  std::vector<int64_t> slots(kItems, -1);
  Status status = ParallelFor(&pool, kItems, [&slots](int64_t i) {
    slots[static_cast<size_t>(i)] = i * i;
  });
  ASSERT_TRUE(status.ok());
  for (int64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(slots[static_cast<size_t>(i)], i * i) << "slot " << i;
  }
}

TEST(ParallelForTest, MaxParallelismOneRunsInline) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> all_inline{true};
  ParallelForOptions options;
  options.max_parallelism = 1;
  Status status = ParallelFor(
      &pool, 64,
      [&](int64_t) {
        if (std::this_thread::get_id() != caller) all_inline.store(false);
      },
      options);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(all_inline.load());
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  Status status = ParallelFor(&pool, 8, [&](int64_t) {
    // Inner loop from inside a pool task: the inner caller participates, so
    // even a fully-busy pool makes progress.
    Status inner = ParallelFor(&pool, 16,
                               [&](int64_t) { total.fetch_add(1); });
    ASSERT_TRUE(inner.ok());
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, CancellationMidLoopSkipsRemainingItems) {
  ThreadPool pool(2);
  CancellationToken cancel;
  std::atomic<int64_t> ran{0};
  ParallelForOptions options;
  options.cancel = &cancel;
  options.cancel_stride = 1;  // Poll every item: expiry latency <= 1 body.
  options.min_items_per_chunk = 1;
  constexpr int64_t kItems = 100000;
  Status status = ParallelFor(
      &pool, kItems,
      [&](int64_t i) {
        ran.fetch_add(1);
        if (i == 0) cancel.RequestCancel();
      },
      options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  // Chunk 0 runs item 0 on some executor; every executor stops at its next
  // poll, so the vast majority of the range is skipped.
  EXPECT_LT(ran.load(), kItems);
}

TEST(ParallelForTest, AlreadyExpiredBudgetRunsNothing) {
  ThreadPool pool(2);
  CancellationToken cancel = CancellationToken::WithBudgetMillis(0);
  std::atomic<int64_t> ran{0};
  ParallelForOptions options;
  options.cancel = &cancel;
  options.cancel_stride = 1;
  Status status = ParallelFor(
      &pool, 1000, [&](int64_t) { ran.fetch_add(1); }, options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(1);
  Status status = ParallelFor(&pool, 0, [](int64_t) { FAIL(); });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelForTest, DeterministicSlotsAcrossThreadCounts) {
  constexpr int64_t kItems = 4096;
  auto run = [&](int workers, int max_parallelism) {
    ThreadPool pool(workers);
    std::vector<uint64_t> slots(kItems, 0);
    ParallelForOptions options;
    options.max_parallelism = max_parallelism;
    Status status = ParallelFor(
        &pool, kItems,
        [&slots](int64_t i) {
          uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
          slots[static_cast<size_t>(i)] = h ^ (h >> 31);
        },
        options);
    EXPECT_TRUE(status.ok());
    return slots;
  };
  std::vector<uint64_t> serial = run(0, 1);
  std::vector<uint64_t> parallel = run(7, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPoolTest, SharedPoolResizes) {
  ThreadPool::SetSharedWorkers(3);
  EXPECT_EQ(ThreadPool::Shared().num_workers(), 3);
  ThreadPool::SetSharedWorkers(1);
  EXPECT_EQ(ThreadPool::Shared().num_workers(), 1);
  // Leave the default-size behavior for other tests in this process.
  ThreadPool::SetSharedWorkers(ThreadPool::DefaultThreads() - 1);
}

TEST(ThreadPoolTest, MetricsCountTasks) {
  telemetry::ResetAllForTest();
  telemetry::EnableMetrics(true);
  {
    ThreadPool pool(2);
    Status status = ParallelFor(&pool, 256, [](int64_t) {});
    ASSERT_TRUE(status.ok());
  }
  EXPECT_GE(telemetry::MetricsRegistry::Instance().CounterValue(
                "thread_pool.parallel_for_calls"),
            1);
  telemetry::ResetAllForTest();
}

}  // namespace
}  // namespace guardrail
