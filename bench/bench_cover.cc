// E5 -- Theorem 8.1: sparse (r, 2r)-neighbourhood covers. On nowhere dense
// families the construction runs in near-linear time and the maximum degree
// (clusters per vertex) stays tiny as n grows; on the clique control the
// exact-ball cover degenerates (degree = n) while the greedy sparse cover
// collapses to one cluster. Counters report degree and total cluster size,
// the two quantities the theorem bounds.
#include <benchmark/benchmark.h>

#include <cmath>

#include "focq/cover/neighborhood_cover.h"
#include "focq/graph/generators.h"

namespace focq {
namespace {

Graph MakeFamily(int family, std::size_t n, Rng* rng) {
  switch (family) {
    case 0: return MakeRandomTree(n, rng);
    case 1: {
      std::size_t side = static_cast<std::size_t>(std::sqrt(double(n)));
      return MakeGrid(side, side);
    }
    case 2: return MakeRandomBoundedDegree(n, 4, rng);
    default: return MakeClique(std::min<std::size_t>(n, 2000));
  }
}

const char* FamilyName(int family) {
  switch (family) {
    case 0: return "tree";
    case 1: return "grid";
    case 2: return "bounded_degree";
    default: return "clique";
  }
}

void ReportCover(benchmark::State& state, const Graph& g,
                 const NeighborhoodCover& cover, const MetricsSink& metrics) {
  state.counters["n"] = static_cast<double>(g.num_vertices());
  state.counters["clusters"] = static_cast<double>(cover.NumClusters());
  state.counters["max_degree"] = static_cast<double>(cover.MaxDegree());
  state.counters["total_cluster_size"] =
      static_cast<double>(cover.TotalClusterSize());
  // BFS vertices touched per build — the construction-cost counter the
  // near-linear-time claim is about (lands in BENCH_cover.json).
  if (state.iterations() > 0) {
    state.counters["cover.bfs_vertices"] =
        static_cast<double>(metrics.Counter("cover.bfs_vertices")) /
        static_cast<double>(state.iterations());
  }
}

void BM_SparseCover(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  std::uint32_t r = static_cast<std::uint32_t>(state.range(2));
  Rng rng(99);
  Graph g = MakeFamily(family, n, &rng);
  MetricsSink metrics;
  NeighborhoodCover cover;
  for (auto _ : state) {
    cover = SparseCover(g, r, /*num_threads=*/1, {.metrics = &metrics});
    benchmark::DoNotOptimize(cover.clusters.data());
  }
  state.SetLabel(FamilyName(family));
  ReportCover(state, g, cover, metrics);
}

void BM_ExactBallCover(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  std::uint32_t r = static_cast<std::uint32_t>(state.range(2));
  Rng rng(99);
  Graph g = MakeFamily(family, n, &rng);
  MetricsSink metrics;
  NeighborhoodCover cover;
  for (auto _ : state) {
    cover = ExactBallCover(g, r, /*num_threads=*/1, {.metrics = &metrics});
    benchmark::DoNotOptimize(cover.clusters.data());
  }
  state.SetLabel(FamilyName(family));
  ReportCover(state, g, cover, metrics);
}

void SparseArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2, 3}) {
    for (std::int64_t n : {4096, 16384, 65536}) {
      for (std::int64_t r : {1, 2, 4}) b->Args({family, n, r});
    }
  }
}

void ExactArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2, 3}) {
    for (std::int64_t n : {4096, 16384}) {
      for (std::int64_t r : {2}) b->Args({family, n, r});
    }
  }
}

BENCHMARK(BM_SparseCover)->Apply(SparseArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactBallCover)->Apply(ExactArgs)->Unit(benchmark::kMillisecond);

// E12 companion: thread scaling of cover construction (the parallel pass 2
// dominates; the greedy centre pass stays serial, bounding the speedup).
// Cluster counters must not move across the thread sweep.
void BM_SparseCoverThreads(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  std::uint32_t r = static_cast<std::uint32_t>(state.range(2));
  int threads = static_cast<int>(state.range(3));
  Rng rng(99);
  Graph g = MakeFamily(family, n, &rng);
  MetricsSink metrics;
  NeighborhoodCover cover;
  for (auto _ : state) {
    cover = SparseCover(g, r, threads, {.metrics = &metrics});
    benchmark::DoNotOptimize(cover.clusters.data());
  }
  state.SetLabel(FamilyName(family));
  state.counters["threads"] = static_cast<double>(threads);
  ReportCover(state, g, cover, metrics);
}

void SparseThreadArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2}) {
    for (std::int64_t r : {2, 4}) {
      for (std::int64_t threads : {1, 2, 4, 8}) {
        b->Args({family, 65536, r, threads});
      }
    }
  }
}

BENCHMARK(BM_SparseCoverThreads)
    ->Apply(SparseThreadArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace focq
