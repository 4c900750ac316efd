#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace dqndock {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
    ++inFlight_;
  }
  cv_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock lock(mu_);
  idleCv_.wait(lock, [this] { return inFlight_ == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mu_);
      if (--inFlight_ == 0) idleCv_.notify_all();
    }
  }
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  parallelFor(begin, end, threadCount() + 1, fn);
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end, std::size_t maxParts,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t cap = std::min({n, threadCount() + 1, std::max<std::size_t>(1, maxParts)});
  if (cap <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + cap - 1) / cap;
  const std::size_t parts = (n + chunk - 1) / chunk;
  // Chunk boundaries are fixed by (n, parts); which thread runs a chunk
  // is not. The caller and parts-1 helper tasks claim chunk indices from
  // a shared counter, and the caller then waits only for chunks that a
  // running thread has claimed. It never runs a foreign queued task
  // while it waits, so a caller holding a lock (the fold-cache refold)
  // cannot re-enter it, and nested parallelFor calls cannot deadlock: if
  // every worker is busy, the caller claims every chunk itself. A helper
  // that starts after all chunks are claimed returns at once; it keeps
  // the counters alive through the shared_ptr and never touches `fn`.
  struct Claims {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };
  auto claims = std::make_shared<Claims>();
  auto runClaimed = [claims, &fn, begin, end, chunk, parts] {
    for (std::size_t p; (p = claims->next.fetch_add(1, std::memory_order_relaxed)) < parts;) {
      const std::size_t lo = begin + p * chunk;
      fn(lo, std::min(end, lo + chunk));
      claims->done.fetch_add(1, std::memory_order_release);
    }
  };
  for (std::size_t p = 1; p < parts; ++p) submit(runClaimed);
  runClaimed();
  while (claims->done.load(std::memory_order_acquire) < parts) std::this_thread::yield();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dqndock
