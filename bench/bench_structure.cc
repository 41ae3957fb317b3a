// E17 -- the structure layer on its own: loading a serialised structure,
// copying it (the per-executor working copy) and probing it with atom tests.
// The input is the end-to-end benchmark's cold_oneshot structure: a random
// graph of maximum degree 4 on n = 65,536 vertices with E symmetric and a
// unary R on ~30% of the vertices (||A|| ~ 275k), from a fixed seed.
//   - BM_Load: ReadStructure of the text plus teardown of the result.
//   - BM_Copy: one Structure copy (its teardown runs outside the timing).
//   - BM_Holds: Holds(E, (u, v)) over every stored E tuple plus as many
//     random pairs (`probes`); `hits` counts the true answers.
// Every counter is deterministic, so only the timings may drift.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "focq/graph/generators.h"
#include "focq/structure/io.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

constexpr std::size_t kN = 65536;

const std::string& InputText() {
  static const std::string* text = [] {
    Rng rng(1);
    Graph g = MakeRandomBoundedDegree(kN, 4, &rng);
    Structure a(Signature({{"E", 2}, {"R", 1}}), kN);
    for (auto [u, v] : g.Edges()) {
      a.AddTuple(0, {u, v});
      a.AddTuple(0, {v, u});
    }
    for (std::size_t v = 0; v < kN; ++v) {
      if (rng.NextBool(0.3)) a.AddTuple(1, {static_cast<ElemId>(v)});
    }
    return new std::string(WriteStructure(a));
  }();
  return *text;
}

const Structure& Input() {
  static const Structure* a = new Structure(*ReadStructure(InputText()));
  return *a;
}

void BM_Load(benchmark::State& state) {
  const std::string& text = InputText();
  std::size_t size_norm = 0;
  for (auto _ : state) {
    Result<Structure> a = ReadStructure(text);
    size_norm = a->SizeNorm();
    benchmark::DoNotOptimize(size_norm);
  }
  state.counters["size_norm"] = static_cast<double>(size_norm);
}
BENCHMARK(BM_Load)->Unit(benchmark::kMillisecond);

void BM_Copy(benchmark::State& state) {
  const Structure& a = Input();
  std::optional<Structure> copy;
  for (auto _ : state) {
    copy.emplace(a);
    benchmark::DoNotOptimize(copy->relation(0).tuples().size());
    state.PauseTiming();
    copy.reset();
    state.ResumeTiming();
  }
  state.counters["bytes"] = static_cast<double>(a.ApproxBytes());
}
BENCHMARK(BM_Copy)->Unit(benchmark::kMillisecond);

void BM_Holds(benchmark::State& state) {
  const Structure& a = Input();
  std::vector<ElemId> probes;
  for (TupleSpan t : a.relation(0).tuples()) {
    probes.insert(probes.end(), t.begin(), t.end());
  }
  Rng rng(2);
  for (std::size_t i = 0, rows = a.relation(0).NumTuples(); i < rows; ++i) {
    probes.push_back(static_cast<ElemId>(rng.NextBelow(kN)));
    probes.push_back(static_cast<ElemId>(rng.NextBelow(kN)));
  }
  std::int64_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (std::size_t i = 0; i < probes.size(); i += 2) {
      hits += a.Holds(0, TupleSpan(probes.data() + i, 2)) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["probes"] = static_cast<double>(probes.size() / 2);
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_Holds)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace focq
