#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "telemetry/telemetry.h"

namespace memcim {
namespace {

/// Restores the default pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { set_parallel_threads(0); }
};

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  PoolGuard guard;
  set_parallel_threads(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, 1, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(Parallel, ChunksPartitionTheRange) {
  PoolGuard guard;
  set_parallel_threads(3);
  const std::size_t n = 5000;
  std::vector<int> marks(n, 0);
  parallel_for_chunks(0, n, 64, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) ++marks[i];
  });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0),
            static_cast<int>(n));
}

TEST(Parallel, EmptyAndTinyRanges) {
  PoolGuard guard;
  set_parallel_threads(4);
  bool ran = false;
  parallel_for_chunks(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // A range below 2·grain runs inline on the caller.
  std::vector<int> v(10, 0);
  parallel_for(0, 10, 1024, [&](std::size_t i) { v[i] = 1; });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 10);
}

TEST(Parallel, NestedParallelForRunsSerially) {
  PoolGuard guard;
  set_parallel_threads(4);
  const std::size_t outer = 64, inner = 64;
  std::vector<int> cells(outer * inner, 0);
  parallel_for(0, outer, 1, [&](std::size_t i) {
    // Nested call must not deadlock; it runs inline on this worker.
    parallel_for(0, inner, 1,
                 [&, i](std::size_t j) { cells[i * inner + j] = 1; });
  });
  EXPECT_EQ(std::accumulate(cells.begin(), cells.end(), 0),
            static_cast<int>(outer * inner));
}

TEST(Parallel, SetThreadsIsObserved) {
  PoolGuard guard;
  set_parallel_threads(2);
  EXPECT_EQ(parallel_threads(), 2u);
  set_parallel_threads(5);
  EXPECT_EQ(parallel_threads(), 5u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_threads(), 1u);
}

TEST(Parallel, DisjointWritesAreThreadCountInvariant) {
  PoolGuard guard;
  const std::size_t n = 4096;
  const auto compute = [n] {
    std::vector<double> out(n);
    parallel_for(0, n, 16, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 1; k <= 50; ++k)
        acc += 1.0 / static_cast<double>(i * 50 + k);
      out[i] = acc;
    });
    return out;
  };
  set_parallel_threads(1);
  const auto serial = compute();
  set_parallel_threads(7);
  const auto threaded = compute();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], threaded[i]);
}

TEST(Parallel, ChunkTallyIsCompleteWhenTheRegionReturns) {
  PoolGuard guard;
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const std::size_t threads = 4, count = 1000, grain = 150;
  set_parallel_threads(threads);
  // The partition rule of parallel_for_chunks: ceil(count / chunk) with
  // chunk = max(grain, ceil(count / pool size)) — 7 chunks here.
  const std::size_t chunk = std::max(grain, (count + threads - 1) / threads);
  const std::size_t n_chunks = (count + chunk - 1) / chunk;
  ASSERT_GT(n_chunks, 1u);
  telemetry::Counter& chunks =
      telemetry::Registry::global().counter("parallel.pool.chunks");
  // Every worker books a chunk before its completion signal, so the
  // submitter never observes a partial tally.  Repeated because a late
  // booking only shows when a worker finishes the last chunk.
  for (int rep = 0; rep < 200; ++rep) {
    chunks.reset();
    std::atomic<std::size_t> sink{0};
    parallel_for_chunks(0, count, grain, [&](std::size_t lo, std::size_t hi) {
      std::size_t acc = 0;
      for (std::size_t i = lo; i < hi; ++i) acc += i * i;
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
    ASSERT_EQ(chunks.value(), n_chunks) << "repetition " << rep;
  }
  telemetry::set_enabled(was_enabled);
}

}  // namespace
}  // namespace memcim
