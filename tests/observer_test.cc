// Golden observation test: one fixed structure, six statements (check, unary
// count, ground term, unary query with a head term, binary query, one
// ApplyUpdate) under four engines at 1 and 4 threads. For each statement the
// test pins, literally:
//   * the span forest as (name, depth) in opening order — the names perfbench
//     reads its per-layer metrics from;
//   * the explain forest as (parent, kind, label) plus each node's
//     deterministic counters;
//   * the flat counters.
// All three are input-determined, so one expectation serves both thread
// counts. A change to the observation plumbing must leave every line intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/logic/parser.h"
#include "focq/obs/explain.h"
#include "focq/obs/metrics.h"
#include "focq/obs/trace.h"
#include "focq/structure/encode.h"

namespace focq {
namespace {

// A 10-vertex path with three red vertices.
Structure GoldenStructure() {
  Structure a = EncodeGraph(MakePath(10));
  a.AddUnarySymbol("R", {1, 4, 7});
  return a;
}

void RenderSpan(const TraceSpan& span, int depth, std::string* out) {
  *out += std::string(2 * static_cast<std::size_t>(depth), ' ') + span.name +
          "\n";
  for (const TraceSpan& child : span.children) {
    RenderSpan(child, depth + 1, out);
  }
}

std::string RenderCounters(const std::map<std::string, std::int64_t>& c) {
  std::string out;
  for (const auto& [name, value] : c) {
    out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

// The sinks of one statement run, rendered as one text block.
struct Observed {
  MetricsSink metrics;
  TraceSink trace;
  ExplainSink explain;

  void Install(EvalOptions* options) {
    options->metrics = &metrics;
    options->trace = &trace;
    options->explain = &explain;
  }

  std::string Render() const {
    std::string out = "spans:\n";
    for (const TraceSpan& root : trace.Spans()) RenderSpan(root, 1, &out);
    out += "explain:\n";
    ExplainReport report = explain.Snapshot();
    for (std::size_t i = 0; i < report.nodes.size(); ++i) {
      const PlanNode& node = report.nodes[i];
      out += "  " + std::to_string(node.id) + " <" +
             std::to_string(node.parent) + " " + node.kind + " [" +
             node.label + "]" + RenderCounters(report.profiles[i].counters) +
             "\n";
    }
    out += "counters:" + RenderCounters(metrics.Snapshot().counters) + "\n";
    return out;
  }
};

struct EngineCase {
  const char* name;
  Engine engine;
  TermEngine term_engine;
};

EvalOptions OptionsFor(const EngineCase& c, int threads) {
  EvalOptions options;
  options.engine = c.engine;
  options.term_engine = c.term_engine;
  options.num_threads = threads;
  options.approx.eps = 0.4;
  options.approx.delta = 0.2;
  options.approx.stratify = true;
  return options;
}

// Runs the six statements and returns one rendered block per statement.
std::vector<std::string> RunStatements(const EngineCase& c, int threads) {
  const Structure a = GoldenStructure();
  std::vector<std::string> blocks;
  auto observe = [&](auto&& body) {
    Observed obs;
    EvalOptions options = OptionsFor(c, threads);
    obs.Install(&options);
    body(options);
    blocks.push_back(obs.Render());
  };

  observe([&](const EvalOptions& options) {
    Result<bool> holds = ModelCheck(
        *ParseFormula("exists x. (R(x) & @ge1(#(y). (E(x, y)) - 1))"), a,
        options);
    ASSERT_TRUE(holds.ok()) << holds.status().ToString();
    EXPECT_TRUE(*holds);
  });
  observe([&](const EvalOptions& options) {
    Result<CountInt> count = CountSolutions(
        *ParseFormula("@ge1(#(y). (E(x, y)) - 1)"), a, options);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, 8);
  });
  observe([&](const EvalOptions& options) {
    Result<CountInt> value =
        EvaluateGroundTerm(*ParseTerm("#(x, y). (E(x, y) & R(y))"), a, options);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    if (c.engine != Engine::kApprox) {
      EXPECT_EQ(*value, 6);
    }
  });
  observe([&](const EvalOptions& options) {
    Foc1Query q;
    q.head_vars = {VarNamed("x")};
    q.condition = *ParseFormula("R(x)");
    q.head_terms = {*ParseTerm("#(y). (dist(x, y) <= 2)")};
    Result<QueryResult> result = EvaluateQuery(q, a, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 3u);
  });
  observe([&](const EvalOptions& options) {
    Foc1Query q;
    q.head_vars = {VarNamed("x"), VarNamed("y")};
    q.condition = *ParseFormula("E(x, y) & R(x)");
    q.head_terms = {*ParseTerm("#(z). (E(y, z))")};
    Result<QueryResult> result = EvaluateQuery(q, a, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 6u);
  });
  observe([&](const EvalOptions& options) {
    // A warm session (artifacts built unobserved) repairing one insert.
    Structure b = a;
    Session session(&b, options);
    session.context().Cover(1, CoverBackend::kSparse);
    session.context().SphereTypes(1);
    const std::optional<SymbolId> e = b.signature().Find("E");
    ASSERT_TRUE(e.has_value());
    Result<UpdateStats> stats =
        session.ApplyUpdate({UpdateKind::kInsert, *e, {0, 5}});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->changed);
  });
  return blocks;
}

constexpr EngineCase kEngines[] = {
    {"local_ball", Engine::kLocal, TermEngine::kBall},
    {"local_sparse_cover", Engine::kLocal, TermEngine::kSparseCover},
    {"approx_stratified", Engine::kApprox, TermEngine::kBall},
    {"naive", Engine::kNaive, TermEngine::kBall},
};

const char* const kStatements[] = {"check", "unary count", "ground term",
                                   "unary query", "binary query", "update"};

// The six blocks under "--- <statement>" headers, at 1 and 4 threads.
void ExpectGolden(const EngineCase& c, const std::string& expected) {
  for (int threads : {1, 4}) {
    std::vector<std::string> blocks = RunStatements(c, threads);
    ASSERT_EQ(blocks.size(), std::size(kStatements));
    std::string got;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      got += std::string("--- ") + kStatements[i] + "\n" + blocks[i];
    }
    EXPECT_EQ(got, expected) << c.name << ", threads=" << threads;
  }
}

}  // namespace

TEST(ObserverGolden, LocalBall) {
  ExpectGolden(kEngines[0], R"(--- check
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
    layer_0
      cl_term_eval
  residual_eval
explain:
  0 <-1 check [(exists x. ((R(x) & @ge1((#(y). (E(x, y)) + (-1 * 1))))))] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.layers=1 plan.max_width=2 plan.relations=1 residual.elements_checked=1
  1 <0 compile [formula]
  2 <0 plan [1 layers, 1 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1 mem.structure.bytes=40 residual.elements_checked=1
  3 <2 layer [L0 (1 relations)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  4 <3 relation [L1_ge1(x) := ge1(1 cl-terms)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  5 <4 cl-term [1 basics, 2 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28
  6 <2 residual [(exists x. ((R(x) & L1_ge1(x))))] residual.elements_checked=1
  7 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.fallback_relations=0 plan.layers=1 plan.max_radius=0 plan.max_width=2 plan.relations=1 residual.elements_checked=1
--- unary count
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
    layer_0
      cl_term_eval
  cl_term_eval
explain:
  0 <-1 term [#(x). (@ge1((#(y). (E(x, y)) + (-1 * 1))))] clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.basics_evaluated=2 clterm.placements_checked=38 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=2 plan.compilations=1 plan.layers=1 plan.max_width=2 plan.relations=1
  1 <0 compile [term]
  2 <0 plan [1 layers, 1 relations, 2 basic cl-terms] clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.basics_evaluated=2 clterm.placements_checked=38 materialize.marker_relations=1 mem.structure.bytes=40
  3 <2 layer [L0 (1 relations)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  4 <3 relation [L1_ge1(x) := ge1(1 cl-terms)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  5 <4 cl-term [1 basics, 2 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28
  6 <2 cl-term [ground 1 basics, 1 monomials, width<=1, r<=0] clterm.anchors_evaluated=10 clterm.basics_evaluated=1 clterm.placements_checked=10
  7 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
counters: clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.basics_evaluated=2 clterm.placements_checked=38 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=2 plan.compilations=1 plan.fallback_relations=0 plan.layers=1 plan.max_radius=0 plan.max_width=2 plan.relations=1
--- ground term
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
  cl_term_eval
explain:
  0 <-1 term [#(x, y). ((E(x, y) & R(y)))] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=1 plan.max_width=2
  1 <0 compile [term]
  2 <0 plan [0 layers, 0 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28
  3 <2 cl-term [ground 1 basics, 1 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28
  4 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=1 plan.fallback_relations=0 plan.layers=0 plan.max_radius=0 plan.max_width=2 plan.relations=0
--- unary query
spans:
  query_eval
    compile
    structure_copy
    gaifman_build
    materialize_layers
    residual_eval
    compile
    structure_copy
    materialize_layers
    cl_term_eval
explain:
  0 <-1 query [1 head vars, 1 head terms, condition R(x)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=44 ctx.cache.bytes=312 ctx.cache.hits=1 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=2 plan.max_radius=1 plan.max_width=2 residual.elements_checked=10
  1 <0 condition [R(x)] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.compilations=1 residual.elements_checked=10
  2 <1 compile [formula]
  3 <1 plan [0 layers, 0 relations, 0 basic cl-terms] residual.elements_checked=10
  4 <3 residual [R(x)] residual.elements_checked=10
  5 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  6 <0 head-term [#(y). (dist(x, y) <= 2)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=44 ctx.cache.hits=1 plan.basic_cl_terms=1 plan.compilations=1 plan.max_radius=1 plan.max_width=2
  7 <6 compile [term]
  8 <6 plan [0 layers, 0 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=44
  9 <8 cl-term [unary 1 basics, 1 monomials, width<=2, r<=1] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=44
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=44 ctx.cache.bytes=312 ctx.cache.hits=1 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=2 plan.fallback_relations=0 plan.layers=0 plan.max_radius=1 plan.max_width=2 plan.relations=0 residual.elements_checked=10
--- binary query
spans:
  query_eval
    gaifman_build
explain:
  0 <-1 query [2 head vars, 1 head terms, condition (E(x, y) & R(x))] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 query.candidates_verified=18
  1 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  2 <0 candidate-verify [2 head vars] query.candidates_verified=18
counters: ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 query.candidates_verified=18
--- update
spans:
  update_repair
explain:
  0 <-1 repair [insert E 0 5] cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.repairs=1
counters: cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.inserts=1 update.repairs=1
)");
}

TEST(ObserverGolden, LocalSparseCover) {
  ExpectGolden(kEngines[1], R"(--- check
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
    layer_0
      cover_build
      cl_term_eval
  residual_eval
explain:
  0 <-1 check [(exists x. ((R(x) & @ge1((#(y). (E(x, y)) + (-1 * 1))))))] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=568 ctx.cache.misses=2 gaifman.builds=1 materialize.marker_relations=1 mem.cover.bytes=256 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.layers=1 plan.max_width=2 plan.relations=1 residual.elements_checked=1
  1 <0 compile [formula]
  2 <0 plan [1 layers, 1 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 materialize.marker_relations=1 mem.cover.bytes=256 mem.structure.bytes=40 residual.elements_checked=1
  3 <2 layer [L0 (1 relations)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 materialize.marker_relations=1 mem.cover.bytes=256
  4 <3 relation [L1_ge1(x) := ge1(1 cl-terms)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 materialize.marker_relations=1 mem.cover.bytes=256
  5 <4 cl-term [1 basics, 2 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.radius=2 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
  6 <2 residual [(exists x. ((R(x) & L1_ge1(x))))] residual.elements_checked=1
  7 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  8 <-1 artifact [sparse cover r=2] cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=568 ctx.cache.misses=2 gaifman.builds=1 materialize.marker_relations=1 mem.cover.bytes=256 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.fallback_relations=0 plan.layers=1 plan.max_radius=0 plan.max_width=2 plan.relations=1 residual.elements_checked=1
--- unary count
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
    layer_0
      cover_build
      cl_term_eval
  cover_build
  cl_term_eval
explain:
  0 <-1 term [#(x). (@ge1((#(y). (E(x, y)) + (-1 * 1))))] clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.placements_checked=38 cover.bfs_vertices=78 cover.builds=2 cover.cluster_size_log2_2=2 cover.cluster_size_log2_3=7 cover.clusters=9 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=48 cover_eval.basics_evaluated=2 cover_eval.cluster_elements=48 cover_eval.clusters_materialized=9 ctx.cache.bytes=836 ctx.cache.misses=3 gaifman.builds=1 materialize.marker_relations=1 mem.cover.bytes=268 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=2 plan.compilations=1 plan.layers=1 plan.max_width=2 plan.relations=1
  1 <0 compile [term]
  2 <0 plan [1 layers, 1 relations, 2 basic cl-terms] clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.placements_checked=38 cover.bfs_vertices=78 cover.builds=2 cover.cluster_size_log2_2=2 cover.cluster_size_log2_3=7 cover.clusters=9 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=48 cover_eval.basics_evaluated=2 cover_eval.cluster_elements=48 cover_eval.clusters_materialized=9 ctx.cache.bytes=524 ctx.cache.misses=2 materialize.marker_relations=1 mem.cover.bytes=268 mem.structure.bytes=40
  3 <2 layer [L0 (1 relations)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 materialize.marker_relations=1 mem.cover.bytes=256
  4 <3 relation [L1_ge1(x) := ge1(1 cl-terms)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 materialize.marker_relations=1 mem.cover.bytes=256
  5 <4 cl-term [1 basics, 2 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.radius=2 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
  6 <2 cl-term [ground 1 basics, 1 monomials, width<=1, r<=0] clterm.anchors_evaluated=10 clterm.placements_checked=10 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_2=2 cover.cluster_size_log2_3=3 cover.clusters=5 cover.radius=1 cover.total_cluster_size=22 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=22 cover_eval.clusters_materialized=5 ctx.cache.bytes=268 ctx.cache.misses=1 mem.cover.bytes=12
  7 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  8 <-1 artifact [sparse cover r=2] cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
  9 <-1 artifact [sparse cover r=1] cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_2=2 cover.cluster_size_log2_3=3 cover.clusters=5 cover.total_cluster_size=22 ctx.cache.bytes=268 ctx.cache.misses=1 mem.cover.bytes=12
counters: clterm.anchors_evaluated=20 clterm.balls_fetched=10 clterm.placements_checked=38 cover.bfs_vertices=78 cover.builds=2 cover.cluster_size_log2_2=2 cover.cluster_size_log2_3=7 cover.clusters=9 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=48 cover_eval.basics_evaluated=2 cover_eval.cluster_elements=48 cover_eval.clusters_materialized=9 ctx.cache.bytes=836 ctx.cache.misses=3 gaifman.builds=1 materialize.marker_relations=1 mem.cover.bytes=268 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=2 plan.compilations=1 plan.fallback_relations=0 plan.layers=1 plan.max_radius=0 plan.max_width=2 plan.relations=1
--- ground term
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
  cover_build
  cl_term_eval
explain:
  0 <-1 term [#(x, y). ((E(x, y) & R(y)))] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=568 ctx.cache.misses=2 gaifman.builds=1 mem.cover.bytes=256 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=1 plan.max_width=2
  1 <0 compile [term]
  2 <0 plan [0 layers, 0 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
  3 <2 cl-term [ground 1 basics, 1 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.radius=2 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
  4 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  5 <-1 artifact [sparse cover r=2] cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 ctx.cache.bytes=256 ctx.cache.misses=1 mem.cover.bytes=256
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=28 cover.bfs_vertices=42 cover.builds=1 cover.cluster_size_log2_3=4 cover.clusters=4 cover.max_cluster_size=8 cover.max_degree=3 cover.total_cluster_size=26 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=26 cover_eval.clusters_materialized=4 ctx.cache.bytes=568 ctx.cache.misses=2 gaifman.builds=1 mem.cover.bytes=256 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=1 plan.fallback_relations=0 plan.layers=0 plan.max_radius=0 plan.max_width=2 plan.relations=0
--- unary query
spans:
  query_eval
    compile
    structure_copy
    gaifman_build
    materialize_layers
    residual_eval
    compile
    structure_copy
    materialize_layers
    cover_build
    cl_term_eval
explain:
  0 <-1 query [1 head vars, 1 head terms, condition R(x)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=44 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.total_cluster_size=20 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=20 cover_eval.clusters_materialized=2 ctx.cache.bytes=488 ctx.cache.hits=1 ctx.cache.misses=2 gaifman.builds=1 mem.cover.bytes=176 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=2 plan.max_radius=1 plan.max_width=2 residual.elements_checked=10
  1 <0 condition [R(x)] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.compilations=1 residual.elements_checked=10
  2 <1 compile [formula]
  3 <1 plan [0 layers, 0 relations, 0 basic cl-terms] residual.elements_checked=10
  4 <3 residual [R(x)] residual.elements_checked=10
  5 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  6 <0 head-term [#(y). (dist(x, y) <= 2)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=44 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.total_cluster_size=20 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=20 cover_eval.clusters_materialized=2 ctx.cache.bytes=176 ctx.cache.hits=1 ctx.cache.misses=1 mem.cover.bytes=176 plan.basic_cl_terms=1 plan.compilations=1 plan.max_radius=1 plan.max_width=2
  7 <6 compile [term]
  8 <6 plan [0 layers, 0 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=44 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.total_cluster_size=20 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=20 cover_eval.clusters_materialized=2 ctx.cache.bytes=176 ctx.cache.misses=1 mem.cover.bytes=176
  9 <8 cl-term [unary 1 basics, 1 monomials, width<=2, r<=1] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=44 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.radius=6 cover.total_cluster_size=20 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=20 cover_eval.clusters_materialized=2 ctx.cache.bytes=176 ctx.cache.misses=1 mem.cover.bytes=176
  10 <-1 artifact [sparse cover r=6] cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.total_cluster_size=20 ctx.cache.bytes=176 ctx.cache.misses=1 mem.cover.bytes=176
counters: clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.placements_checked=44 cover.bfs_vertices=36 cover.builds=1 cover.cluster_size_log2_4=2 cover.clusters=2 cover.max_cluster_size=10 cover.max_degree=2 cover.total_cluster_size=20 cover_eval.basics_evaluated=1 cover_eval.cluster_elements=20 cover_eval.clusters_materialized=2 ctx.cache.bytes=488 ctx.cache.hits=1 ctx.cache.misses=2 gaifman.builds=1 mem.cover.bytes=176 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.basic_cl_terms=1 plan.compilations=2 plan.fallback_relations=0 plan.layers=0 plan.max_radius=1 plan.max_width=2 plan.relations=0 residual.elements_checked=10
--- binary query
spans:
  query_eval
    gaifman_build
explain:
  0 <-1 query [2 head vars, 1 head terms, condition (E(x, y) & R(x))] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 query.candidates_verified=18
  1 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  2 <0 candidate-verify [2 head vars] query.candidates_verified=18
counters: ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 query.candidates_verified=18
--- update
spans:
  update_repair
explain:
  0 <-1 repair [insert E 0 5] cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.repairs=1
counters: cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.inserts=1 update.repairs=1
)");
}

TEST(ObserverGolden, ApproxStratified) {
  ExpectGolden(kEngines[2], R"(--- check
spans:
  compile
  structure_copy
  gaifman_build
  materialize_layers
    layer_0
      cl_term_eval
  residual_eval
explain:
  0 <-1 check [(exists x. ((R(x) & @ge1((#(y). (E(x, y)) + (-1 * 1))))))] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.layers=1 plan.max_width=2 plan.relations=1 residual.elements_checked=1
  1 <0 compile [formula]
  2 <0 plan [1 layers, 1 relations, 1 basic cl-terms] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1 mem.structure.bytes=40 residual.elements_checked=1
  3 <2 layer [L0 (1 relations)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  4 <3 relation [L1_ge1(x) := ge1(1 cl-terms)] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 materialize.marker_relations=1
  5 <4 cl-term [1 basics, 2 monomials, width<=2, r<=0] clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28
  6 <2 residual [(exists x. ((R(x) & L1_ge1(x))))] residual.elements_checked=1
  7 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
counters: approx.boolean_exact=1 clterm.anchors_evaluated=10 clterm.balls_fetched=10 clterm.basics_evaluated=1 clterm.placements_checked=28 ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 materialize.marker_relations=1 mem.gaifman.bytes=312 mem.structure.bytes=348 plan.basic_cl_terms=1 plan.compilations=1 plan.fallback_relations=0 plan.layers=1 plan.max_radius=0 plan.max_width=2 plan.relations=1 residual.elements_checked=1
--- unary count
spans:
  approx_eval
    gaifman_build
    hanf_typing
    approx_sample
explain:
  0 <-1 approx-term [#(x). (@ge1((#(y). (E(x, y)) + (-1 * 1))))] approx.budget=8 approx.count_terms_sampled=1 approx.max_frame=10 approx.sample_check_tuples=88 approx.sample_hits=6 approx.samples_drawn=8 approx.strata=4 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376
  1 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  2 <-1 artifact [sphere types r=1] ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  3 <0 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=88 approx.sample_hits=6 approx.samples_drawn=8 approx.strata=4
counters: approx.budget=8 approx.count_terms_sampled=1 approx.max_frame=10 approx.sample_check_tuples=88 approx.sample_hits=6 approx.samples_drawn=8 approx.strata=4 approx.strata_reused=0 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376
--- ground term
spans:
  approx_eval
    gaifman_build
    hanf_typing
    approx_sample
explain:
  0 <-1 approx-term [#(x, y). ((E(x, y) & R(y)))] approx.budget=8 approx.count_terms_sampled=1 approx.max_frame=100 approx.sample_check_tuples=8 approx.samples_drawn=8 approx.strata=4 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376
  1 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  2 <-1 artifact [sphere types r=1] ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  3 <0 estimate [#(2 vars) frame=100 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.samples_drawn=8 approx.strata=4
counters: approx.budget=8 approx.count_terms_sampled=1 approx.max_frame=100 approx.sample_check_tuples=8 approx.sample_hits=0 approx.samples_drawn=8 approx.strata=4 approx.strata_reused=0 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376
--- unary query
spans:
  query_eval
    compile
    structure_copy
    gaifman_build
    materialize_layers
    residual_eval
    hanf_typing
    approx_sample
    approx_sample
    approx_sample
explain:
  0 <-1 query [1 head vars, 1 head terms, condition R(x)] approx.budget=8 approx.count_terms_sampled=3 approx.max_frame=10 approx.sample_check_tuples=24 approx.sample_hits=14 approx.samples_drawn=24 approx.strata=12 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376 mem.structure.bytes=308 plan.compilations=1 residual.elements_checked=10
  1 <0 condition [R(x)] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312 mem.structure.bytes=308 plan.compilations=1 residual.elements_checked=10
  2 <1 compile [formula]
  3 <1 plan [0 layers, 0 relations, 0 basic cl-terms] residual.elements_checked=10
  4 <3 residual [R(x)] residual.elements_checked=10
  5 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  6 <0 approx-head-terms [1 terms over 3 rows] approx.budget=8 approx.count_terms_sampled=3 approx.max_frame=10 approx.sample_check_tuples=24 approx.sample_hits=14 approx.samples_drawn=24 approx.strata=12 ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  7 <-1 artifact [sphere types r=1] ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  8 <6 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=3 approx.samples_drawn=8 approx.strata=4
  9 <6 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=5 approx.samples_drawn=8 approx.strata=4
  10 <6 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=6 approx.samples_drawn=8 approx.strata=4
counters: approx.budget=8 approx.count_terms_sampled=3 approx.max_frame=10 approx.sample_check_tuples=24 approx.sample_hits=14 approx.samples_drawn=24 approx.strata=12 approx.strata_reused=0 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376 mem.structure.bytes=308 plan.basic_cl_terms=0 plan.compilations=1 plan.fallback_relations=0 plan.layers=0 plan.max_radius=0 plan.max_width=0 plan.relations=0 residual.elements_checked=10
--- binary query
spans:
  query_eval
    gaifman_build
    hanf_typing
    approx_sample
    approx_sample
    approx_sample
    approx_sample
    approx_sample
    approx_sample
explain:
  0 <-1 query [2 head vars, 1 head terms, condition (E(x, y) & R(x))] approx.budget=8 approx.count_terms_sampled=6 approx.max_frame=10 approx.sample_check_tuples=48 approx.sample_hits=9 approx.samples_drawn=48 approx.strata=24 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376 query.candidates_verified=18
  1 <-1 artifact [gaifman graph] ctx.cache.bytes=312 ctx.cache.misses=1 gaifman.builds=1 mem.gaifman.bytes=312
  2 <0 candidate-verify [2 head vars] query.candidates_verified=18
  3 <0 approx-head-terms [1 terms over 6 rows] approx.budget=8 approx.count_terms_sampled=6 approx.max_frame=10 approx.sample_check_tuples=48 approx.sample_hits=9 approx.samples_drawn=48 approx.strata=24 ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  4 <-1 artifact [sphere types r=1] ctx.cache.bytes=376 ctx.cache.misses=1 mem.spheres.bytes=376
  5 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.samples_drawn=8 approx.strata=4
  6 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=1 approx.samples_drawn=8 approx.strata=4
  7 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=2 approx.samples_drawn=8 approx.strata=4
  8 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=1 approx.samples_drawn=8 approx.strata=4
  9 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=3 approx.samples_drawn=8 approx.strata=4
  10 <3 estimate [#(1 vars) frame=10 samples=8 strata=4] approx.count_terms_sampled=1 approx.sample_check_tuples=8 approx.sample_hits=2 approx.samples_drawn=8 approx.strata=4
counters: approx.budget=8 approx.count_terms_sampled=6 approx.max_frame=10 approx.sample_check_tuples=48 approx.sample_hits=9 approx.samples_drawn=48 approx.strata=24 approx.strata_reused=0 ctx.cache.bytes=688 ctx.cache.misses=2 gaifman.builds=1 mem.gaifman.bytes=312 mem.spheres.bytes=376 query.candidates_verified=18
--- update
spans:
  update_repair
explain:
  0 <-1 repair [insert E 0 5] cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.repairs=1
counters: cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.inserts=1 update.repairs=1
)");
}

TEST(ObserverGolden, Naive) {
  ExpectGolden(kEngines[3], R"(--- check
spans:
  naive_eval
explain:
  0 <-1 naive-check [(exists x. ((R(x) & @ge1((#(y). (E(x, y)) + (-1 * 1))))))] naive.tuples_enumerated=12
counters: naive.tuples_enumerated=12
--- unary count
spans:
  naive_eval
explain:
  0 <-1 naive-count [@ge1((#(y). (E(x, y)) + (-1 * 1)))] naive.tuples_enumerated=110
counters: naive.tuples_enumerated=110
--- ground term
spans:
  naive_eval
explain:
  0 <-1 naive-term [#(x, y). ((E(x, y) & R(y)))] naive.tuples_enumerated=100
counters: naive.tuples_enumerated=100
--- unary query
spans:
  query_eval
    naive_eval
explain:
  0 <-1 query [1 head vars, 1 head terms, condition R(x)] naive.tuples_enumerated=30
counters: naive.tuples_enumerated=30
--- binary query
spans:
  query_eval
    naive_eval
explain:
  0 <-1 query [2 head vars, 1 head terms, condition (E(x, y) & R(x))] naive.tuples_enumerated=60
counters: naive.tuples_enumerated=60
--- update
spans:
  update_repair
explain:
  0 <-1 repair [insert E 0 5] cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.repairs=1
counters: cache.invalidated.covers=1 ctx.cache.bytes=880 hanf.retyped=5 update.gaifman.edges_added=1 update.inserts=1 update.repairs=1
)");
}

}  // namespace focq
