#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

namespace fedflow {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after mu and cv so it is destroyed first: the waiter can see
  // the last increment before that task locks mu to notify, and the pool's
  // destructor joins the task before mu and cv go away.
  ThreadPool pool(4);
  const int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        // Notify under the lock: the waiter may otherwise satisfy its
        // predicate and destroy cv while notify_all is still running.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10),
              [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, ZeroThreadsDegradesToInlineExecution) {
  // Regression: a pool of size 0 used to clamp to 1 worker; callers wanting
  // deterministic single-threaded execution (the load harness) got a real
  // thread instead. Size 0 now starts no workers and Submit runs the task
  // inline on the calling thread, synchronously — no deadlock, no thread.
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::thread::id ran_on{};
  int order = 0;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); order = 1; });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(order, 1);  // completed before Submit returned
  // Re-entrant inline submission also completes (no queue involved).
  int nested = 0;
  pool.Submit([&] { pool.Submit([&] { nested = 7; }); });
  EXPECT_EQ(nested, 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }
  // After destruction all enqueued tasks ran (workers drain before exit).
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, StressManyProducersEnqueueFromPoolThreads) {
  // Re-entrant Submit: producer tasks running ON pool threads fan out child
  // tasks into the same pool. Exercises the queue under contention and the
  // lock ordering of Submit vs WorkerLoop (Submit must never be called while
  // a worker holds the queue mutex).
  ThreadPool pool(4);
  constexpr int kProducers = 16;
  constexpr int kChildrenPerProducer = 64;
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int p = 0; p < kProducers; ++p) {
    pool.Submit([&] {
      for (int c = 0; c < kChildrenPerProducer; ++c) {
        pool.Submit([&] {
          if (done.fetch_add(1) + 1 == kProducers * kChildrenPerProducer) {
            std::lock_guard<std::mutex> lock(mu);
            cv.notify_all();
          }
        });
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  bool finished = cv.wait_for(lock, std::chrono::seconds(30), [&] {
    return done.load() == kProducers * kChildrenPerProducer;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(done.load(), kProducers * kChildrenPerProducer);
}

TEST(ThreadPoolTest, SubmitDuringShutdownRunsTaskInline) {
  // Regression: a Submit racing the destructor could enqueue a task no
  // worker would ever pop — it silently never ran. Late tasks now run
  // inline on the submitting thread.
  auto pool = std::make_unique<ThreadPool>(1);
  ThreadPool* raw = pool.get();
  std::mutex mu;
  std::condition_variable cv;
  bool worker_pinned = false;
  bool release = false;
  // Pin the single worker so the destructor blocks in join() with the
  // shutdown flag already set.
  raw->Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    worker_pinned = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return worker_pinned; });
  }
  std::thread destroyer([&] { pool.reset(); });
  while (!raw->shutdown_started()) {
    std::this_thread::yield();
  }
  // The destructor has begun; a Submit now must still run the task —
  // synchronously, on this thread.
  std::thread::id ran_on{};
  raw->Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  destroyer.join();
}

TEST(ThreadPoolTest, ShutdownStartedFalseWhileAlive) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.shutdown_started());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int at_barrier = 0;
  // Two tasks that can only finish if both are running at the same time.
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++at_barrier;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return at_barrier == 2; });
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  bool both = cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return at_barrier == 2; });
  EXPECT_TRUE(both);
}

}  // namespace
}  // namespace fedflow
