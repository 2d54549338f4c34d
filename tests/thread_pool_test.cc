// Tests for the work-stealing thread pool: submission from outside and
// from worker threads, result and exception propagation through futures,
// cooperative cancellation, and destructor drain semantics.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dislock {
namespace {

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, SingleThreadExecutesEverything) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 50; ++i) {
    futures.push_back(pool.Submit([&, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 50 * 51 / 2);
}

TEST(ThreadPool, ZeroMeansOneWorkerPerHardwareThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPool, MovesNonCopyableResults) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      [] { return std::make_unique<std::string>("stolen"); });
  std::unique_ptr<std::string> result = future.get();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result, "stolen");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return 7; });
  auto boom = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    boom.get();
    FAIL() << "expected the task's exception to rethrow on get()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
}

TEST(ThreadPool, WorkerThreadsCanSubmit) {
  // Recursive fan-out: tasks submitted from workers land on the worker's
  // own deque and still complete (other workers steal them if needed).
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  auto root = pool.Submit([&] {
    std::vector<std::future<void>> children;
    for (int i = 0; i < 8; ++i) {
      children.push_back(pool.Submit([&] { ++leaves; }));
    }
    for (auto& c : children) c.get();
  });
  root.get();
  EXPECT_EQ(leaves.load(), 8);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ++ran; });
    }
    // No waiting here: ~ThreadPool must complete everything submitted.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ManySmallTasksFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> producers;
  std::mutex mu;
  std::vector<std::future<void>> futures;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto f = pool.Submit([&] { sum += 1; });
        std::lock_guard<std::mutex> lock(mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 4 * 200);
}

TEST(CancellationToken, CancelObservedByTasks) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::atomic<int> skipped{0};
  std::vector<std::future<void>> futures;
  // The first task cancels; later tasks poll the token at their start (the
  // same shape the safety engine uses) and skip their payload.
  pool.Submit([&] { token.Cancel(); }).get();
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&] {
      if (token.cancelled()) {
        ++skipped;
        return;
      }
      ++executed;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(skipped.load(), 16);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

}  // namespace
}  // namespace dislock
