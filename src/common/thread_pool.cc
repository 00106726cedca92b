#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "common/telemetry/metrics.h"

namespace guardrail {

ThreadPool::ThreadPool(int num_workers) {
  int n = std::max(0, num_workers);
  queues_.resize(static_cast<size_t>(std::max(1, n)));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // With zero workers nobody drained the queues; honor the run-exactly-once
  // contract by executing the leftovers on the destroying thread.
  for (auto& queue : queues_) {
    while (!queue.empty()) {
      std::function<void()> task = std::move(queue.front());
      queue.pop_front();
      task();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queues_[next_queue_++ % queues_.size()].push_back(std::move(task));
  }
  cv_.notify_one();
  GUARDRAIL_COUNTER_INC("thread_pool.tasks_submitted");
}

bool ThreadPool::NextTask(size_t worker_index, std::function<void()>* task) {
  auto& own = queues_[worker_index % queues_.size()];
  if (!own.empty()) {
    *task = std::move(own.front());
    own.pop_front();
    return true;
  }
  for (size_t k = 1; k < queues_.size(); ++k) {
    auto& victim = queues_[(worker_index + k) % queues_.size()];
    if (!victim.empty()) {
      *task = std::move(victim.back());
      victim.pop_back();
      GUARDRAIL_COUNTER_INC("thread_pool.tasks_stolen");
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, worker_index, &task] {
        return NextTask(worker_index, &task) || stop_;
      });
      if (!task) return;  // stop_ and every deque empty: drained.
    }
    task();
    GUARDRAIL_COUNTER_INC("thread_pool.tasks_executed");
  }
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("GUARDRAIL_THREADS")) {
    int64_t parsed = 0;
    if (ParseInt64(env, &parsed) && parsed > 0 && parsed <= INT32_MAX) {
      return static_cast<int>(parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex g_shared_pool_mu;
std::unique_ptr<ThreadPool>& SharedPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
int g_shared_pool_workers = -1;  // -1: size from DefaultThreads() - 1.

}  // namespace

ThreadPool& ThreadPool::Shared() {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  auto& slot = SharedPoolSlot();
  if (slot == nullptr) {
    int workers = g_shared_pool_workers >= 0
                      ? g_shared_pool_workers
                      : std::max(0, DefaultThreads() - 1);
    slot = std::make_unique<ThreadPool>(workers);
  }
  return *slot;
}

void ThreadPool::SetSharedWorkers(int num_workers) {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  g_shared_pool_workers = std::max(0, num_workers);
  auto& slot = SharedPoolSlot();
  if (slot != nullptr && slot->num_workers() != g_shared_pool_workers) {
    slot.reset();  // Recreated lazily at the new size.
  }
}

int ResolveThreads(int num_threads) {
  return num_threads > 0 ? num_threads : ThreadPool::DefaultThreads();
}

namespace {

/// Shared fork/join state for one ParallelFor. Chunks are claimed through an
/// atomic cursor; every claimed chunk decrements `chunks_left` whether its
/// bodies ran or were skipped by cancellation, so the count always reaches
/// zero and the caller's wait always terminates.
struct ParallelForState {
  const std::function<void(int64_t)>* body = nullptr;
  int64_t num_items = 0;
  int64_t chunk_size = 1;
  int64_t num_chunks = 0;
  const CancellationToken* cancel = nullptr;
  uint32_t cancel_stride = 64;

  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> chunks_left{0};
  std::atomic<bool> cancelled{false};

  std::mutex done_mu;
  std::condition_variable done_cv;
};

/// Claims and executes chunks until the cursor runs out. Runs on the caller
/// and on every helper task; safe to run after the loop finished (it simply
/// finds no chunk to claim).
void DrainChunks(const std::shared_ptr<ParallelForState>& state) {
  uint32_t countdown = 0;
  for (;;) {
    int64_t chunk = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state->num_chunks) return;
    if (!state->cancelled.load(std::memory_order_relaxed)) {
      int64_t begin = chunk * state->chunk_size;
      int64_t end = std::min(begin + state->chunk_size, state->num_items);
      for (int64_t i = begin; i < end; ++i) {
        if (state->cancel != nullptr) {
          if (countdown == 0) {
            countdown = state->cancel_stride;
            if (state->cancel->Cancelled()) {
              state->cancelled.store(true, std::memory_order_relaxed);
              break;
            }
          }
          --countdown;
        }
        (*state->body)(i);
      }
    }
    // Release pairs with the caller's acquire load: every slot write made by
    // this chunk's bodies is visible once the caller observes zero.
    if (state->chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::unique_lock<std::mutex> lock(state->done_mu);
      state->done_cv.notify_all();
    }
  }
}

}  // namespace

Status ParallelFor(ThreadPool* pool, int64_t num_items,
                   const std::function<void(int64_t)>& body,
                   const ParallelForOptions& options) {
  if (num_items <= 0) return Status::OK();

  int workers = pool != nullptr ? pool->num_workers() : 0;
  int parallelism = options.max_parallelism > 0
                        ? options.max_parallelism
                        : workers + 1;
  int helpers = std::min(parallelism - 1, workers);
  if (helpers < 0) helpers = 0;

  auto state = std::make_shared<ParallelForState>();
  state->body = &body;
  state->num_items = num_items;
  // Over-decompose by 4x relative to the executor count so stealing can
  // rebalance skewed bodies; chunking never affects results, only schedule.
  int64_t target_chunks = static_cast<int64_t>(helpers + 1) * 4;
  state->chunk_size = std::max<int64_t>(
      options.min_items_per_chunk,
      (num_items + target_chunks - 1) / target_chunks);
  state->num_chunks =
      (num_items + state->chunk_size - 1) / state->chunk_size;
  state->chunks_left.store(state->num_chunks, std::memory_order_relaxed);
  state->cancel = options.cancel;
  state->cancel_stride = std::max<uint32_t>(1, options.cancel_stride);

  GUARDRAIL_COUNTER_INC("thread_pool.parallel_for_calls");
  helpers = static_cast<int>(
      std::min<int64_t>(helpers, state->num_chunks - 1));
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([state] { DrainChunks(state); });
  }
  DrainChunks(state);

  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&state] {
      return state->chunks_left.load(std::memory_order_acquire) == 0;
    });
  }

  if (state->cancelled.load(std::memory_order_relaxed)) {
    GUARDRAIL_COUNTER_INC("thread_pool.parallel_for_cancelled");
    return options.cancel->CheckTimeout("parallel_for");
  }
  return Status::OK();
}

}  // namespace guardrail
