// E3 -- the main theorem's shape (Thm 5.5 / Cor 5.6): FOC1(P) counting with
// the locality-based engine scales near-linearly in ||A|| on nowhere dense
// classes, while the naive reference engine scales like n^(1+width). The
// benchmark reports both engines on the same query so the crossover and the
// asymptotic gap are visible, across three nowhere dense families (random
// trees, grids, bounded-degree random graphs) and one dense control
// (Erdos-Renyi with linear average degree would defeat locality constants).
#include <benchmark/benchmark.h>

#include <cmath>
#include <initializer_list>
#include <utility>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/metrics.h"
#include "focq/structure/encode.h"

namespace focq {
namespace {

// Registers focq pipeline counters on the benchmark, averaged per iteration
// (the sink accumulates across the timing loop). Counter names land verbatim
// in BENCH_scaling.json, so downstream scripts read e.g.
// "clterm.anchors_evaluated" next to the timings.
void AttachFocqCounters(
    benchmark::State& state, const MetricsSink& metrics,
    std::initializer_list<const char*> names) {
  const double iters = static_cast<double>(state.iterations());
  if (iters == 0) return;
  for (const char* name : names) {
    state.counters[name] =
        static_cast<double>(metrics.Counter(name)) / iters;
  }
}

Structure MakeFamily(int family, std::size_t n, Rng* rng) {
  switch (family) {
    case 0:
      return EncodeGraph(MakeRandomTree(n, rng));
    case 1: {
      std::size_t side = static_cast<std::size_t>(std::sqrt(double(n)));
      return EncodeGraph(MakeGrid(side, side));
    }
    default:
      return EncodeGraph(MakeRandomBoundedDegree(n, 4, rng));
  }
}

const char* FamilyName(int family) {
  switch (family) {
    case 0: return "tree";
    case 1: return "grid";
    default: return "bounded_degree";
  }
}

// phi(x): "x has at least two neighbours of degree exactly 2" -- a width-2,
// nesting-depth-2 FOC1 condition.
Formula ScalingCondition() {
  Var x = VarNamed("bsx"), y = VarNamed("bsy"), z = VarNamed("bsz");
  Formula deg2 = TermEq(Count({z}, Atom("E", {y, z})), Int(2));
  return Ge1(Sub(Count({y}, And(Atom("E", {x, y}), deg2)), Int(1)));
}

void BM_CountSolutionsLocal(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(77);
  Structure a = MakeFamily(family, n, &rng);
  Formula phi = ScalingCondition();
  MetricsSink metrics;
  EvalOptions options{Engine::kLocal, TermEngine::kBall};
  options.metrics = &metrics;
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["solutions"] = static_cast<double>(result);
  state.counters["ns_per_elem"] = benchmark::Counter(
      static_cast<double>(a.Order()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AttachFocqCounters(state, metrics,
                     {"plan.layers", "plan.basic_cl_terms",
                      "plan.fallback_relations", "clterm.anchors_evaluated",
                      "clterm.balls_fetched", "clterm.placements_checked"});
}

// Ablation: the same pipeline with cl-terms evaluated per cluster of a
// sparse neighbourhood cover (Section 8.2's strategy) instead of per-anchor
// ball exploration (Remark 6.3).
void BM_CountSolutionsCover(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(77);
  Structure a = MakeFamily(family, n, &rng);
  Formula phi = ScalingCondition();
  MetricsSink metrics;
  EvalOptions options{Engine::kLocal, TermEngine::kSparseCover};
  options.metrics = &metrics;
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["solutions"] = static_cast<double>(result);
  AttachFocqCounters(state, metrics,
                     {"cover.clusters", "cover.total_cluster_size",
                      "cover.bfs_vertices",
                      "cover_eval.clusters_materialized",
                      "clterm.anchors_evaluated"});
  // High-water mark, not a sum: report it undivided.
  state.counters["cover.max_degree"] =
      static_cast<double>(metrics.Counter("cover.max_degree"));
}

void BM_CountSolutionsNaive(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(77);
  Structure a = MakeFamily(family, n, &rng);
  Formula phi = ScalingCondition();
  MetricsSink metrics;
  EvalOptions options{Engine::kNaive, TermEngine::kBall};
  options.metrics = &metrics;
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["solutions"] = static_cast<double>(result);
  AttachFocqCounters(state, metrics, {"naive.tuples_enumerated"});
}

void LocalArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2}) {
    for (std::int64_t n : {1024, 4096, 16384, 65536}) b->Args({family, n});
  }
}

void NaiveArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2}) {
    for (std::int64_t n : {256, 512, 1024, 2048}) b->Args({family, n});
  }
}

BENCHMARK(BM_CountSolutionsLocal)->Apply(LocalArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountSolutionsCover)->Apply(LocalArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountSolutionsNaive)->Apply(NaiveArgs)->Unit(benchmark::kMillisecond);

// E12 -- thread scaling of the parallel engine. The same query and families
// as above, swept over worker counts; `solutions` must be identical across
// the sweep (the determinism contract) and time should drop until the
// per-chunk work no longer amortises the fan-out. See EXPERIMENTS.md, E12.
void BM_CountSolutionsLocalThreads(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  int threads = static_cast<int>(state.range(2));
  Rng rng(77);
  Structure a = MakeFamily(family, n, &rng);
  Formula phi = ScalingCondition();
  MetricsSink metrics;
  EvalOptions options{.engine = Engine::kLocal,
                      .term_engine = TermEngine::kBall,
                      .num_threads = threads};
  options.metrics = &metrics;
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["solutions"] = static_cast<double>(result);
  // Input-determined work counters: must not move across the thread sweep
  // (the determinism contract), which BENCH_scaling.json makes checkable.
  AttachFocqCounters(state, metrics,
                     {"clterm.anchors_evaluated", "clterm.balls_fetched",
                      "clterm.placements_checked"});
}

void BM_CountSolutionsCoverThreads(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  int threads = static_cast<int>(state.range(2));
  Rng rng(77);
  Structure a = MakeFamily(family, n, &rng);
  Formula phi = ScalingCondition();
  MetricsSink metrics;
  EvalOptions options{.engine = Engine::kLocal,
                      .term_engine = TermEngine::kSparseCover,
                      .num_threads = threads};
  options.metrics = &metrics;
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["solutions"] = static_cast<double>(result);
  AttachFocqCounters(state, metrics,
                     {"cover.clusters", "cover.bfs_vertices",
                      "cover_eval.clusters_materialized",
                      "clterm.anchors_evaluated"});
}

void BM_CountSolutionsNaiveThreads(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  Rng rng(77);
  Structure a = MakeFamily(2, n, &rng);
  Formula phi = ScalingCondition();
  EvalOptions options{.engine = Engine::kNaive,
                      .term_engine = TermEngine::kBall,
                      .num_threads = threads};
  CountInt result = 0;
  for (auto _ : state) {
    result = *CountSolutions(phi, a, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(FamilyName(2));
  state.counters["n"] = static_cast<double>(a.Order());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["solutions"] = static_cast<double>(result);
}

void LocalThreadArgs(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1, 2}) {
    for (std::int64_t n : {16384, 65536}) {
      for (std::int64_t threads : {1, 2, 4, 8}) b->Args({family, n, threads});
    }
  }
}

void NaiveThreadArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {1024, 2048}) {
    for (std::int64_t threads : {1, 2, 4, 8}) b->Args({n, threads});
  }
}

BENCHMARK(BM_CountSolutionsLocalThreads)
    ->Apply(LocalThreadArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_CountSolutionsCoverThreads)
    ->Apply(LocalThreadArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_CountSolutionsNaiveThreads)
    ->Apply(NaiveThreadArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Model checking a FOC1 sentence (Theorem 5.5's other half).
void BM_ModelCheckLocal(benchmark::State& state) {
  int family = static_cast<int>(state.range(0));
  std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(78);
  Structure a = MakeFamily(family, n, &rng);
  Var x = VarNamed("bmx"), y = VarNamed("bmy");
  Formula sentence =
      Exists(x, Pred(PredPrime(), {Count({y}, Atom("E", {x, y}))}));
  EvalOptions options{Engine::kLocal, TermEngine::kBall};
  for (auto _ : state) {
    bool v = *ModelCheck(sentence, a, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetLabel(FamilyName(family));
  state.counters["n"] = static_cast<double>(a.Order());
}

BENCHMARK(BM_ModelCheckLocal)->Apply(LocalArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace focq
