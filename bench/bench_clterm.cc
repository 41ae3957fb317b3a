// E21 -- compiled cl-term kernels on their own: the ball engine's
// EvaluateAll over the basic cl-terms of the end-to-end benchmark's
// cold_oneshot statements. The input is that benchmark's structure: a random
// graph of maximum degree 4 on n = 65,536 vertices with E symmetric and a
// unary R on ~30% of the vertices (||A|| ~ 275k), from a fixed seed, plus
// two marker relations standing in for the statements' inner counts
// (D3 = degree exactly 3, G2 = degree at least 2).
//   - BM_ClTerm/<kernel>/<threads>: one evaluation of the kernel's cl-term
//     (every basic of its decomposition) at every anchor.
// Counters (deterministic): `sum` of the values over all anchors and the
// clterm.* work of one evaluation. The label carries the time per kernel
// check (ns per clterm.placements_checked), which is a timing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "focq/graph/generators.h"
#include "focq/locality/cl_term.h"
#include "focq/locality/decompose.h"
#include "focq/logic/build.h"
#include "focq/obs/metrics.h"
#include "focq/structure/gaifman.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

constexpr std::size_t kN = 65536;

struct Input {
  Structure structure{Signature({{"E", 2}, {"R", 1}}), kN};
  Graph gaifman;
};

const Input& ColdInput() {
  static const Input* input = [] {
    auto* in = new Input;
    Rng rng(1);
    Graph g = MakeRandomBoundedDegree(kN, 4, &rng);
    for (auto [u, v] : g.Edges()) {
      in->structure.AddTuple(0, {u, v});
      in->structure.AddTuple(0, {v, u});
    }
    for (std::size_t v = 0; v < kN; ++v) {
      if (rng.NextBool(0.3)) {
        in->structure.AddTuple(1, {static_cast<ElemId>(v)});
      }
    }
    std::vector<ElemId> degree3, degree2plus;
    for (ElemId v = 0; v < kN; ++v) {
      if (g.Degree(v) == 3) degree3.push_back(v);
      if (g.Degree(v) >= 2) degree2plus.push_back(v);
    }
    in->structure.AddUnarySymbol("D3", degree3);
    in->structure.AddUnarySymbol("G2", degree2plus);
    in->gaifman = BuildGaifmanGraph(in->structure);
    return in;
  }();
  return *input;
}

// The cold_oneshot kernels: #(y). psi(x, y) for the unary ones, #(x). psi(x)
// for the ground width-1 one.
struct Kernel {
  const char* label;
  bool ground;
  Formula psi;
};

std::vector<Kernel> Kernels() {
  const Var x = VarNamed("x"), y = VarNamed("y");
  return {
      {"E(x,y)&R(y)", false, And(Atom("E", {x, y}), Atom("R", {y}))},
      {"E(x,y)", false, Atom("E", {x, y})},
      {"dist(x,y)<=2&R(y)", false, And(DistAtMost(x, y, 2), Atom("R", {y}))},
      {"E(x,y)&D3(y)", false, And(Atom("E", {x, y}), Atom("D3", {y}))},
      {"dist(x,y)<=1&R(y)", false, And(DistAtMost(x, y, 1), Atom("R", {y}))},
      {"R(x)&G2(x)", true, And(Atom("R", {x}), Atom("G2", {x}))},
  };
}

// The kernel's cl-term values summed over the anchors (its value if ground).
CountInt Evaluate(const Kernel& kernel, const ClTerm& term, int threads,
                  const Observer& obs) {
  const Input& in = ColdInput();
  ClTermBallEvaluator eval(in.structure, in.gaifman, threads, obs);
  if (kernel.ground) return *eval.EvaluateGround(term);
  const std::vector<CountInt> values = *eval.EvaluateAll(term);
  CountInt sum = 0;
  for (CountInt v : values) sum += v;
  return sum;
}

void BM_ClTerm(benchmark::State& state) {
  const Kernel kernel = Kernels()[state.range(0)];
  const int threads = static_cast<int>(state.range(1));
  const Var x = VarNamed("x"), y = VarNamed("y");
  const std::vector<Var> vars =
      kernel.ground ? std::vector<Var>{x} : std::vector<Var>{x, y};
  const ClTerm term = DecomposeCount(vars, !kernel.ground, kernel.psi)->term;

  MetricsSink metrics;
  const CountInt sum =
      Evaluate(kernel, term, threads, Observer{.metrics = &metrics});
  const EvalMetrics work = metrics.Snapshot();

  double seconds = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Evaluate(kernel, term, threads, {}));
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  }
  state.counters["sum"] = static_cast<double>(sum);
  for (const char* name :
       {"clterm.basics_evaluated", "clterm.anchors_evaluated",
        "clterm.balls_fetched", "clterm.placements_checked"}) {
    auto it = work.counters.find(name);
    state.counters[name] =
        static_cast<double>(it == work.counters.end() ? 0 : it->second);
  }
  const auto checks = work.counters.find("clterm.placements_checked");
  const double per_check =
      checks == work.counters.end() || checks->second == 0
          ? 0.0
          : seconds * 1e9 /
                (static_cast<double>(state.iterations()) * checks->second);
  state.SetLabel(std::string(kernel.label) +
                 " ns_per_check=" + std::to_string(per_check));
}
BENCHMARK(BM_ClTerm)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace focq
