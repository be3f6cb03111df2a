#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cool::util {
namespace {

// Restores the default thread-count resolution (and a clean COOL_THREADS)
// after each test so suites do not leak pool configuration into each other.
class Parallel : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("COOL_THREADS");
    set_thread_count(0);
  }
};

// A batch of `width` tasks that each wait until all `width` have started.
// No thread can run two of them, so the batch passes only when `width`
// distinct threads run it at once. The wait is bounded: a pool narrower
// than `width` fails the test instead of hanging it.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t width) : width_(width), ids_(width) {}

  // Called once per task; false if the others did not all arrive in time.
  bool arrive(std::size_t task) {
    ids_[task] = std::this_thread::get_id();
    started_.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started_.load() < width_) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out_.store(true);
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }

  bool timed_out() const { return timed_out_.load(); }
  std::size_t started() const { return started_.load(); }
  // Distinct threads that ran the batch.
  std::set<std::thread::id> threads() const {
    return {ids_.begin(), ids_.end()};
  }

 private:
  std::size_t width_;
  std::vector<std::thread::id> ids_;  // one slot per task index
  std::atomic<std::size_t> started_{0};
  std::atomic<bool> timed_out_{false};
};

TEST_F(Parallel, ParallelChunksCoverEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u}) {
    set_thread_count(threads);
    std::vector<int> hits(103, 0);
    // Tasks own disjoint indices, so unsynchronized writes are safe.
    parallel_chunks(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "index " << i << " at " << threads << " threads";
  }
}

TEST_F(Parallel, NestedParallelismRunsInlineWithoutDeadlock) {
  set_thread_count(4);
  std::vector<int> totals(8, 0);
  std::vector<int> inline_runs(8, 0);
  parallel_chunks(totals.size(), [&](std::size_t c) {
    // A nested call from a task must run inline (no pool re-entry).
    const auto outer = std::this_thread::get_id();
    parallel_chunks(10, [&](std::size_t) {
      totals[c] += 1;
      inline_runs[c] += std::this_thread::get_id() == outer;
    });
  });
  for (std::size_t c = 0; c < totals.size(); ++c) {
    EXPECT_EQ(totals[c], 10);
    EXPECT_EQ(inline_runs[c], 10);
  }
}

TEST_F(Parallel, FirstExceptionPropagatesAndPoolSurvives) {
  set_thread_count(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_chunks(64,
                               [&](std::size_t i) {
                                 ran.fetch_add(1);
                                 if (i == 17) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // The rethrow waits for the batch to drain: every task ran.
  EXPECT_EQ(ran.load(), 64);
  // The pool must still drain later batches normally.
  std::vector<int> hits(64, 0);
  parallel_chunks(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(Parallel, ThreadCountResolutionOrder) {
  // Explicit setting wins over the environment...
  setenv("COOL_THREADS", "3", 1);
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2u);
  // ...0 falls back to COOL_THREADS...
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 3u);
  // ...and an unparsable/absent variable falls back to the hardware.
  setenv("COOL_THREADS", "not-a-number", 1);
  EXPECT_EQ(thread_count(), hardware_threads());
  unsetenv("COOL_THREADS");
  EXPECT_EQ(thread_count(), hardware_threads());
}

TEST_F(Parallel, SingleThreadRunsCallerInline) {
  set_thread_count(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  parallel_chunks(ids.size(),
                  [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);  // no pool thread involved
}

TEST_F(Parallel, GlobalPoolTracksRequestedWidth) {
  // At width w the caller and w − 1 workers run a batch together.
  const auto caller = std::this_thread::get_id();
  for (const std::size_t width : {2u, 3u, 4u, 2u}) {
    set_thread_count(width);
    Rendezvous rendezvous(width);
    parallel_chunks(width, [&](std::size_t i) { rendezvous.arrive(i); });
    ASSERT_FALSE(rendezvous.timed_out())
        << "only " << rendezvous.started() << " of " << width
        << " tasks ran at once";
    const auto threads = rendezvous.threads();
    EXPECT_EQ(threads.size(), width);
    EXPECT_EQ(threads.count(caller), 1u) << "caller sat out at width " << width;
  }
}

TEST_F(Parallel, ExceptionFromCallersTaskPropagates) {
  set_thread_count(4);
  const auto caller = std::this_thread::get_id();
  Rendezvous rendezvous(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_chunks(4,
                               [&](std::size_t i) {
                                 rendezvous.arrive(i);
                                 if (std::this_thread::get_id() == caller)
                                   throw std::runtime_error("caller's task");
                                 finished.fetch_add(1);
                               }),
               std::runtime_error);
  ASSERT_FALSE(rendezvous.timed_out());
  EXPECT_EQ(finished.load(), 3);  // the workers' tasks all completed
  std::vector<int> hits(16, 0);
  parallel_chunks(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(Parallel, NestedCallFromCallersTaskRunsInline) {
  set_thread_count(4);
  const auto caller = std::this_thread::get_id();
  Rendezvous rendezvous(4);
  std::vector<int> hits(16, 0);
  std::atomic<int> nested_calls{0};
  parallel_chunks(4, [&](std::size_t i) {
    rendezvous.arrive(i);
    if (std::this_thread::get_id() != caller) return;
    nested_calls.fetch_add(1);
    // The caller holds the batch; re-entering the pool would deadlock.
    parallel_chunks(hits.size(), [&](std::size_t j) {
      hits[j] += std::this_thread::get_id() == caller;
    });
  });
  ASSERT_FALSE(rendezvous.timed_out());
  EXPECT_EQ(nested_calls.load(), 1);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(Parallel, BackToBackBatchesOfEverySize) {
  // Batches that end while a worker may still be waking: no task of one
  // batch may run under the next batch's job or count.
  set_thread_count(4);
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t size = 2; size <= hits.size(); ++size) {
      std::fill(hits.begin(), hits.end(), 0);
      parallel_chunks(size, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], i < size ? 1 : 0)
            << "index " << i << ", batch of " << size << ", round " << round;
    }
  }
}

TEST_F(Parallel, EmptyAndSingletonShapesAreNoOps) {
  set_thread_count(4);
  int calls = 0;
  parallel_chunks(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const auto caller = std::this_thread::get_id();
  parallel_chunks(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // one task runs inline
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace cool::util
