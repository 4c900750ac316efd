#pragma once

/// \file thread_pool.hpp
/// Work-sharing thread pool with a blocking parallel-for.
///
/// This is the CPU stand-in for METADOCK's GPU executor: the scoring
/// function fans receptor-atom tiles out across the pool, and the
/// metaheuristic schema evaluates pose populations in parallel. The pool
/// is created once and reused (no per-call thread spawn), following the
/// OpenMP worksharing model.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dqndock {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void waitIdle();

  /// Static-partition parallel for over [begin, end): the range is split
  /// into at most threadCount() + 1 contiguous chunks, each run as
  /// fn(chunkBegin, chunkEnd). Blocks until all chunks complete. The
  /// chunk boundaries depend only on the range and the part count; the
  /// calling thread claims chunks alongside the workers and runs nothing
  /// but `fn` while it waits, so nested calls (from a worker, or from a
  /// caller holding a lock that queued tasks might also take) cannot
  /// deadlock.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Same, but split into at most `maxParts` chunks (>= 1). Callers that
  /// know the per-chunk work is too small to amortize fan-out overhead
  /// (e.g. the NN GEMMs at paper shapes, where every extra worker
  /// re-streams the whole B matrix) cap the partition count instead of
  /// going fully serial; maxParts == 1 degenerates to an inline call.
  void parallelFor(std::size_t begin, std::size_t end, std::size_t maxParts,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed with default size).
  static ThreadPool& global();

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idleCv_;
  std::size_t inFlight_ = 0;
  bool stop_ = false;
};

}  // namespace dqndock
