// The work-stealing pool and its deterministic ParallelFor: chunk grids
// partition [0, n) exactly, every index is visited exactly once for any
// thread count, nested fan-out does not deadlock (the caller always drains
// its own grid), and ordered chunk reduction reproduces the serial sum.
#include "focq/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

namespace focq {
namespace {

TEST(EffectiveThreadsTest, NormalizesTheKnob) {
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(4), 4);
  EXPECT_EQ(EffectiveThreads(-3), 1);  // clamped up
  EXPECT_EQ(EffectiveThreads(0), HardwareThreads());
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ChunkGridTest, PartitionsTheRangeExactly) {
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 4097u}) {
    for (int workers : {0, 1, 2, 3, 8, 64}) {
      ChunkGrid grid = MakeChunkGrid(n, workers);
      ASSERT_GE(grid.num_chunks, 1u);
      ASSERT_LE(grid.num_chunks, std::max<std::size_t>(n, 1));
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < grid.num_chunks; ++c) {
        auto [begin, end] = grid.Bounds(c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ChunkGridTest, NormalizesTheWorkerKnobLikeParallelFor) {
  // Callers size per-chunk result arrays with MakeChunkGrid(n, knob) and run
  // ParallelFor(knob, n, ...); both must agree for every knob value — in
  // particular 0 ("all hardware threads") must not collapse to one worker.
  for (std::size_t n : {1u, 100u, 4097u}) {
    EXPECT_EQ(MakeChunkGrid(n, 0).num_chunks,
              MakeChunkGrid(n, HardwareThreads()).num_chunks);
    EXPECT_EQ(MakeChunkGrid(n, -3).num_chunks,
              MakeChunkGrid(n, 1).num_chunks);
  }
}

TEST(ChunkGridTest, SameParametersGiveSameGrid) {
  // The grid is a pure function of (n, workers) -- this is what makes the
  // chunk decomposition (and hence ordered reduction) deterministic.
  ChunkGrid a = MakeChunkGrid(12345, 8);
  ChunkGrid b = MakeChunkGrid(12345, 8);
  ASSERT_EQ(a.num_chunks, b.num_chunks);
  for (std::size_t c = 0; c < a.num_chunks; ++c) {
    EXPECT_EQ(a.Bounds(c), b.Bounds(c));
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  constexpr int kTasks = 500;
  std::atomic<int> done{0};
  std::atomic<int> remaining{kTasks};
  std::mutex mutex;
  std::condition_variable cv;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      done.fetch_add(1);
      // Decrement under the mutex: the waiter may return (and destroy `cv`)
      // as soon as it sees zero, so the last task must not touch `cv` after
      // publishing it.
      std::lock_guard<std::mutex> lock(mutex);
      if (remaining.fetch_sub(1) == 1) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return remaining.load() == 0; });
  EXPECT_EQ(done.load(), kTasks);
}

class ParallelForTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForTest, VisitsEachIndexExactlyOnce) {
  const int threads = GetParam();
  for (std::size_t n : {0u, 1u, 2u, 63u, 1024u, 10001u}) {
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    ParallelFor(threads, n,
                [&](std::size_t /*chunk*/, std::size_t begin,
                    std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    visits[i].fetch_add(1);
                  }
                });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " n " << n;
    }
  }
}

TEST_P(ParallelForTest, ChunkIndicesStayInsideTheCallerSizedGrid) {
  // Callers allocate per-chunk result arrays of size
  // MakeChunkGrid(n, knob).num_chunks and index them with the chunk id the
  // body receives; any id at or past that bound is an out-of-bounds write.
  const int threads = GetParam();
  for (std::size_t n : {1u, 7u, 1000u, 4097u}) {
    const std::size_t num_chunks = MakeChunkGrid(n, threads).num_chunks;
    std::atomic<std::size_t> max_chunk{0};
    ParallelFor(threads, n,
                [&](std::size_t chunk, std::size_t /*begin*/,
                    std::size_t /*end*/) {
                  std::size_t seen = max_chunk.load();
                  while (chunk > seen &&
                         !max_chunk.compare_exchange_weak(seen, chunk)) {
                  }
                });
    EXPECT_LT(max_chunk.load(), num_chunks) << "n " << n;
  }
}

TEST_P(ParallelForTest, OrderedChunkReductionMatchesSerialSum) {
  const int threads = GetParam();
  const std::size_t n = 5000;
  std::vector<std::int64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<std::int64_t>((i * 2654435761u) % 1000);
  }
  std::int64_t serial = std::accumulate(values.begin(), values.end(),
                                        std::int64_t{0});
  const std::size_t num_chunks = MakeChunkGrid(n, threads).num_chunks;
  std::vector<std::int64_t> partial(num_chunks, 0);
  ParallelFor(threads, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  partial[chunk] += values[i];
                }
              });
  std::int64_t total = 0;
  for (std::int64_t p : partial) total += p;
  EXPECT_EQ(total, serial);
}

TEST_P(ParallelForTest, NestedFanOutDoesNotDeadlock) {
  // Inner ParallelFor calls run on pool workers; the caller-participates
  // drain keeps them from waiting on each other.
  const int threads = GetParam();
  const std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<int>> visits(outer * inner);
  for (auto& v : visits) v.store(0);
  ParallelFor(threads, outer,
              [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                for (std::size_t o = begin; o < end; ++o) {
                  ParallelFor(threads, inner,
                              [&, o](std::size_t /*c*/, std::size_t b,
                                     std::size_t e) {
                                for (std::size_t i = b; i < e; ++i) {
                                  visits[o * inner + i].fetch_add(1);
                                }
                              });
                }
              });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "slot " << i;
  }
}

TEST_P(ParallelForTest, StressManySmallGrids) {
  const int threads = GetParam();
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 37);
    std::atomic<std::size_t> sum{0};
    ParallelFor(threads, n,
                [&](std::size_t /*chunk*/, std::size_t begin,
                    std::size_t end) {
                  std::size_t local = 0;
                  for (std::size_t i = begin; i < end; ++i) local += i + 1;
                  sum.fetch_add(local);
                });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForTest,
                         ::testing::Values(0, 1, 2, 4, 8));

}  // namespace
}  // namespace focq
