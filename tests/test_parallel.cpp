#include "util/parallel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
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

TEST_F(Parallel, ChunkRangesPartitionTheIndexSpace) {
  for (const std::size_t n : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (const std::size_t grain : {1u, 4u, 16u, 200u}) {
      const auto chunks = chunk_ranges(n, grain);
      ASSERT_EQ(chunks.size(), (n + grain - 1) / grain) << n << "/" << grain;
      std::size_t expected_begin = 0;
      for (const auto& chunk : chunks) {
        EXPECT_EQ(chunk.begin, expected_begin);
        EXPECT_GT(chunk.end, chunk.begin);
        EXPECT_LE(chunk.end - chunk.begin, grain);
        expected_begin = chunk.end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST_F(Parallel, ChunkRangesRejectZeroGrain) {
  EXPECT_THROW(chunk_ranges(10, 0), std::invalid_argument);
}

TEST_F(Parallel, ChunkGridIgnoresThreadCount) {
  // The grid is a pure function of (n, grain) — the determinism contract.
  set_thread_count(1);
  const auto serial = chunk_ranges(37, 5);
  set_thread_count(8);
  const auto parallel = chunk_ranges(37, 5);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].begin, parallel[c].begin);
    EXPECT_EQ(serial[c].end, parallel[c].end);
  }
}

TEST_F(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u}) {
    set_thread_count(threads);
    std::vector<int> hits(103, 0);
    // Chunks own disjoint ranges, so unsynchronized writes are safe.
    parallel_for(hits.size(), 7, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "index " << i << " at " << threads << " threads";
  }
}

TEST_F(Parallel, NestedParallelismRunsInlineWithoutDeadlock) {
  set_thread_count(4);
  std::vector<int> totals(8, 0);
  parallel_chunks(totals.size(), [&](std::size_t c) {
    // A nested call from a worker must run inline (no pool re-entry).
    parallel_for(10, 2, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) totals[c] += 1;
    });
  });
  for (const int total : totals) EXPECT_EQ(total, 10);
}

TEST_F(Parallel, FirstExceptionPropagatesAndPoolSurvives) {
  set_thread_count(4);
  EXPECT_THROW(
      parallel_for(64, 1,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must still drain later batches normally.
  std::vector<int> hits(64, 0);
  parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
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
  bool on_worker = true;
  parallel_chunks(4, [&](std::size_t) {
    on_worker = on_worker && ThreadPool::on_worker_thread();
  });
  EXPECT_FALSE(on_worker);  // serial bypass: no pool thread involved
}

TEST_F(Parallel, GlobalPoolTracksRequestedWidth) {
  set_thread_count(2);
  EXPECT_EQ(global_pool().worker_count(), 2u);
  set_thread_count(3);
  EXPECT_EQ(global_pool().worker_count(), 3u);
}

TEST_F(Parallel, EmptyAndSingletonShapesAreNoOps) {
  set_thread_count(4);
  int calls = 0;
  parallel_for(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 8, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace cool::util
