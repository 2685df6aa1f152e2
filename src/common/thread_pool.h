// Fixed-size worker pool. The workflow engine hands it the fork branches
// that waited past the engine's hand-off deadline for a busy navigating
// thread, so a branch blocked on its sibling still gets the sibling run
// (virtual time is tracked separately); the load harness runs its
// closed-loop clients on one.
#ifndef FEDFLOW_COMMON_THREAD_POOL_H_
#define FEDFLOW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedflow {

/// A minimal fixed-size thread pool. Tasks are plain callables; completion is
/// coordinated by the caller (the workflow navigator keeps its own counts).
class ThreadPool {
 public:
  /// Starts `num_threads` workers. 0 starts no workers at all: the pool
  /// degrades to inline execution — Submit runs the task on the calling
  /// thread before returning. Useful for deterministic single-threaded
  /// harness runs where real concurrency would perturb virtual-time
  /// ordering.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. With zero workers, or once destruction has begun (the
  /// queue is no longer guaranteed to be drained by a worker), the task runs
  /// inline on the submitting thread instead of deadlocking or being
  /// silently dropped — every submitted task runs exactly once either way.
  void Submit(std::function<void()> task);

  /// True once the destructor has started tearing the pool down.
  bool shutdown_started() const;

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace fedflow

#endif  // FEDFLOW_COMMON_THREAD_POOL_H_
