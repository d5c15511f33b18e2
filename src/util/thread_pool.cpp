#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

namespace sor::util {

namespace {

/// True on pool worker threads; parallel_for uses it to run nested regions
/// inline instead of blocking a worker on the queue it is serving.
thread_local bool tl_in_worker = false;

}  // namespace

/// Shared per-region state: an atomic work counter every participant pulls
/// from, a countdown of recruited workers, and the lowest-index exception.
struct ThreadPool::ForState {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<int> pending{0};
  std::mutex done_mutex;
  std::condition_variable done;
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_at = 0;  ///< index whose exception `error` holds
  /// Smallest throwing index seen so far (min-CAS); participants stop
  /// pulling past it.
  std::atomic<std::size_t> error_index{std::numeric_limits<std::size_t>::max()};

  /// Pulls iterations until the range is exhausted or an earlier iteration
  /// threw. Exception propagation is DETERMINISTIC: the rethrown exception
  /// is always the one from the smallest throwing index M, regardless of
  /// schedule. Proof sketch: fetch_add hands indices out in increasing
  /// order, and error_index only ever holds throwing indices — all >= M —
  /// so the stop test `i >= error_index` can never skip M; once M throws,
  /// the min-CAS plus the `i < error_at` guard below make its exception
  /// the stored one. Every iteration with index < M is likewise pulled
  /// (and drains) before participants stop.
  void drive() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n || i >= error_index.load(std::memory_order_acquire)) return;
      try {
        (*body)(i);
      } catch (...) {
        std::size_t cur = error_index.load(std::memory_order_relaxed);
        while (i < cur && !error_index.compare_exchange_weak(
                              cur, i, std::memory_order_acq_rel)) {
        }
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || i < error_at) {
          error = std::current_exception();
          error_at = i;
        }
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  int n = num_threads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  num_threads_ = n;
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  tl_in_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || tl_in_worker || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->body = &body;  // the caller blocks below, so the ref stays valid
  const int recruits =
      static_cast<int>(std::min(workers_.size(), n - 1));
  state->pending.store(recruits);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int i = 0; i < recruits; ++i) {
      jobs_.emplace_back([state] {
        state->drive();
        if (state->pending.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> done_lock(state->done_mutex);
          state->done.notify_one();
        }
      });
    }
  }
  wake_.notify_all();

  state->drive();  // the calling thread is participant number `recruits + 1`
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done.wait(lock, [&] { return state->pending.load() == 0; });
  }
  // Take the exception out of the shared state: a worker may still hold the
  // state and release the last reference to it, and must then not be the
  // thread that destroys the exception the caller is handling.
  if (state->error) {
    std::rethrow_exception(std::exchange(state->error, nullptr));
  }
}

}  // namespace sor::util
