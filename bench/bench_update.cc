// E15 -- incremental maintenance vs cold rebuild under structure updates:
// a warm EvalContext absorbs a batch of tuple updates through ApplyUpdate
// (localized Gaifman/cover/sphere repair, DESIGN.md section 3e), versus
// applying the same updates to a bare structure and rebuilding the same
// artifact set (Gaifman graph, exact covers at radii 1 and 2, sphere types
// at radius 1) from scratch. The sweep crosses batch size (1, 16, 128) with
// structure class (sparse bounded-degree vs grid); counters separate repair
// work (clusters_rebuilt_per_batch, covers_invalidated) from rebuild work
// (cover_builds_per_batch) so benchdiff can assert the incremental path
// really repairs instead of rebuilding. BM_SessionUpdateQuery adds the
// end-to-end view: update + warm re-query through one Session.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/parser.h"
#include "focq/structure/encode.h"
#include "focq/structure/update.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

// Structure classes for the sweep. Sparse bounded-degree graphs are the
// paper's home turf (Lemma 6.3 cover sizes); the grid adds a locally dense
// regular class where repair regions are larger per edge.
Structure MakeClass(int cls, std::size_t n) {
  Rng rng(4242);
  Graph g = cls == 0 ? MakeRandomBoundedDegree(n, 4, &rng)
                     : MakeGrid(64, n / 64);
  Structure a = EncodeGraph(g);
  std::vector<ElemId> reds;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (rng.NextBool(0.3)) reds.push_back(e);
  }
  a.AddUnarySymbol("R", reds);
  return a;
}

const char* ClassName(int cls) { return cls == 0 ? "sparse" : "grid"; }

// The artifact set a warm radius-2 query session holds: forcing these on a
// fresh context is exactly what a cold rebuild pays per batch.
void ForceArtifacts(EvalContext* ctx, const Observer& obs = {}) {
  ctx->Gaifman(obs);
  ctx->Cover(1, CoverBackend::kExact, /*num_threads=*/1, obs);
  ctx->Cover(2, CoverBackend::kExact, /*num_threads=*/1, obs);
  ctx->SphereTypes(1, /*num_threads=*/1, obs);
}

// The next batch of edge toggles against the live structure: an existing
// tuple is deleted, a missing one inserted. Toggling keeps ||A|| roughly
// stationary over the run, so later iterations measure the same regime as
// early ones.
std::vector<TupleUpdate> NextBatch(const Structure& a, std::size_t size,
                                   Rng* rng) {
  std::vector<TupleUpdate> batch;
  batch.reserve(size);
  while (batch.size() < size) {
    ElemId u = static_cast<ElemId>(rng->NextBelow(a.universe_size()));
    ElemId v = static_cast<ElemId>(rng->NextBelow(a.universe_size()));
    if (u == v) continue;
    UpdateKind kind =
        a.Holds(0, {u, v}) ? UpdateKind::kDelete : UpdateKind::kInsert;
    batch.push_back(TupleUpdate{kind, 0, {u, v}});
  }
  return batch;
}

// Incremental path: one warm context; each iteration pushes a batch of
// updates through ApplyUpdate, which repairs the cached artifacts in place.
void BM_IncrementalUpdate(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  int cls = static_cast<int>(state.range(2));
  Structure a = MakeClass(cls, n);
  Rng rng(7);
  MetricsSink metrics;
  EvalContext ctx(a);
  ForceArtifacts(&ctx);
  const Observer opts{.metrics = &metrics};
  std::int64_t batches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<TupleUpdate> batch = NextBatch(a, batch_size, &rng);
    state.ResumeTiming();
    for (const TupleUpdate& u : batch) {
      Result<UpdateStats> applied = ctx.ApplyUpdate(&a, u, opts);
      if (!applied.ok()) {
        state.SkipWithError(applied.status().ToString().c_str());
      }
    }
    ++batches;
  }
  state.SetLabel(ClassName(cls));
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = static_cast<double>(batch_size);
  if (batches > 0) {
    state.counters["clusters_rebuilt_per_batch"] =
        static_cast<double>(metrics.Counter("cover.clusters.rebuilt")) /
        static_cast<double>(batches);
    state.counters["covers_invalidated"] =
        static_cast<double>(metrics.Counter("cache.invalidated.covers"));
    state.counters["cover_builds_per_batch"] =
        static_cast<double>(metrics.Counter("cover.builds")) /
        static_cast<double>(batches);
  }
}

// Cold baseline: the same update stream applied straight to the structure,
// then the same artifact set rebuilt from scratch on a fresh context.
void BM_ColdRebuild(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  int cls = static_cast<int>(state.range(2));
  Structure a = MakeClass(cls, n);
  Rng rng(7);
  MetricsSink metrics;
  const Observer opts{.metrics = &metrics};
  std::int64_t batches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<TupleUpdate> batch = NextBatch(a, batch_size, &rng);
    state.ResumeTiming();
    for (const TupleUpdate& u : batch) {
      Result<bool> changed = ApplyToStructure(&a, u);
      if (!changed.ok()) {
        state.SkipWithError(changed.status().ToString().c_str());
      }
    }
    EvalContext fresh(a);
    ForceArtifacts(&fresh, opts);
    benchmark::DoNotOptimize(fresh.cache_stats().bytes);
    ++batches;
  }
  state.SetLabel(ClassName(cls));
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = static_cast<double>(batch_size);
  if (batches > 0) {
    state.counters["cover_builds_per_batch"] =
        static_cast<double>(metrics.Counter("cover.builds")) /
        static_cast<double>(batches);
  }
}

// End-to-end view through the public API: apply one update, re-answer a
// radius-2 query warm. Compare against BM_QueryCold in bench_session.cc for
// the rebuild-per-query alternative.
void BM_SessionUpdateQuery(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  int cls = static_cast<int>(state.range(1));
  Structure a = MakeClass(cls, n);
  Foc1Query q;
  q.head_vars = {VarNamed("x")};
  q.condition = *ParseFormula("@ge1(#(y). (E(x, y)) - 2)");
  q.head_terms = {*ParseTerm("#(y). (dist(y, x) <= 2)")};
  Rng rng(7);
  EvalOptions options;
  options.term_engine = TermEngine::kExactCover;
  Session session(&a, options);
  {
    Result<QueryResult> prime = session.EvaluateQuery(q);
    if (!prime.ok()) state.SkipWithError(prime.status().ToString().c_str());
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<TupleUpdate> batch = NextBatch(a, 1, &rng);
    state.ResumeTiming();
    Result<UpdateStats> applied = session.ApplyUpdate(batch[0]);
    if (!applied.ok()) {
      state.SkipWithError(applied.status().ToString().c_str());
    }
    Result<QueryResult> r = session.EvaluateQuery(q);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(ClassName(cls));
  state.counters["n"] = static_cast<double>(n);
}

void SweepArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t batch : {1, 16, 128}) {
    for (std::int64_t cls : {0, 1}) b->Args({4096, batch, cls});
  }
}

BENCHMARK(BM_IncrementalUpdate)
    ->Apply(SweepArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdRebuild)->Apply(SweepArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SessionUpdateQuery)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace focq
