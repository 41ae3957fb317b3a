#include <gtest/gtest.h>

#include <optional>

#include "focq/core/removal_engine.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "test_util.h"

namespace focq {
namespace {

// The Section 8.2 recursion must agree with the ball evaluator on every
// input it accepts.
class RemovalEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(RemovalEngineTest, MatchesBallEvaluatorOnFamilies) {
  int family = GetParam();
  Rng rng(3000 + family);
  Var y1 = VarNamed("rey1"), y2 = VarNamed("rey2");
  for (int round = 0; round < 3; ++round) {
    Graph g;
    switch (family) {
      case 0: g = MakeRandomTree(60, &rng); break;
      case 1: g = MakeGrid(7, 8); break;
      default: g = MakeRandomBoundedDegree(60, 3, &rng); break;
    }
    Structure a = EncodeGraph(g);
    std::vector<ElemId> reds;
    for (ElemId e = 0; e < a.universe_size(); ++e) {
      if (rng.NextBool(0.4)) reds.push_back(e);
    }
    a.AddUnarySymbol("R", reds);
    Graph gaifman = BuildGaifmanGraph(a);

    // Quantifier-free width-2 kernel, radius 0 (the recursion's term
    // branching is exponential in radius * depth -- demonstrator scale).
    Formula kernel = test::RandomQuantifierFree({y1, y2}, 2, true, 1, &rng);
    PatternGraph edge(2, 0);
    edge.SetEdge(0, 1);
    BasicClTerm basic{{y1, y2}, /*unary=*/true, kernel, 0, edge};

    ClTermBallEvaluator ball(a, gaifman);
    Result<std::vector<CountInt>> expected = ball.EvaluateBasicAll(basic);
    ASSERT_TRUE(expected.ok());

    RemovalEngineOptions options;
    options.base_size = 20;  // force real recursion on these sizes
    options.max_depth = 4;
    Result<std::vector<CountInt>> actual =
        EvaluateBasicWithRemoval(a, gaifman, basic, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(*actual, *expected)
        << "family=" << family << "\n" << ToString(kernel);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, RemovalEngineTest,
                         ::testing::Values(0, 1, 2));

TEST(RemovalEngine, Width1Kernels) {
  Rng rng(3100);
  Structure a = EncodeGraph(MakeRandomTree(70, &rng));
  std::vector<ElemId> reds;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (rng.NextBool(0.5)) reds.push_back(e);
  }
  a.AddUnarySymbol("R", reds);
  Graph gaifman = BuildGaifmanGraph(a);
  Var y = VarNamed("rwy");
  BasicClTerm basic{{y}, true, Atom("R", {y}), 1, PatternGraph(1, 0)};
  RemovalEngineOptions options;
  options.base_size = 8;
  Result<std::vector<CountInt>> actual =
      EvaluateBasicWithRemoval(a, gaifman, basic, options);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    bool red = std::find(reds.begin(), reds.end(), e) != reds.end();
    EXPECT_EQ((*actual)[e], red ? 1 : 0);
  }
}

TEST(RemovalEngine, RejectsQuantifiedKernels) {
  Structure a = EncodeGraph(MakePath(10));
  Graph gaifman = BuildGaifmanGraph(a);
  Var y1 = VarNamed("rqy1"), y2 = VarNamed("rqy2"), z = VarNamed("rqz");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  BasicClTerm basic{{y1, y2}, true, Exists(z, Atom("E", {y1, z})), 1, edge};
  Result<std::vector<CountInt>> r =
      EvaluateBasicWithRemoval(a, gaifman, basic);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(RemovalEngine, ThreadKnobChangesNothingButSpeed) {
  // Regression: the per-level SparseCover builds used to hardcode one
  // thread, silently ignoring the caller's knob. Now the knob is threaded
  // through — and must stay a pure speed knob: values and every removal.*/
  // cover.* counter identical at threads 0, 1 and 4.
  Rng rng(3300);
  Structure a = EncodeGraph(MakeRandomTree(80, &rng));
  Graph gaifman = BuildGaifmanGraph(a);
  Var y1 = VarNamed("rty1"), y2 = VarNamed("rty2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  BasicClTerm basic{{y1, y2}, true, Atom("E", {y1, y2}), 0, edge};

  std::optional<std::vector<CountInt>> reference_values;
  std::optional<EvalMetrics> reference_metrics;
  for (int threads : {0, 1, 4}) {
    MetricsSink sink;
    RemovalEngineOptions options;
    options.base_size = 8;
    options.max_depth = 8;
    options.num_threads = threads;
    test::PoolFanOutProbe probe;
    Result<std::vector<CountInt>> actual = EvaluateBasicWithRemoval(
        a, gaifman, basic, options, {.metrics = &sink});
    probe.ExpectFannedOut(threads);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_GT(sink.Counter("removal.cover_builds"), 0);
    EvalMetrics snapshot = sink.Snapshot();
    if (!reference_values.has_value()) {
      reference_values = *actual;
      reference_metrics = snapshot;
    } else {
      EXPECT_EQ(*actual, *reference_values) << "threads=" << threads;
      EXPECT_EQ(snapshot.counters, reference_metrics->counters)
          << "threads=" << threads;
      EXPECT_TRUE(snapshot.values == reference_metrics->values)
          << "threads=" << threads;
    }
  }
}

TEST(RemovalEngine, DeepRecursionStillExact) {
  // Tiny base size + permissive depth: many removal levels on a path.
  Structure a = EncodeGraph(MakePath(60));
  Graph gaifman = BuildGaifmanGraph(a);
  Var y1 = VarNamed("rdy1"), y2 = VarNamed("rdy2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  BasicClTerm basic{{y1, y2}, true, Atom("E", {y1, y2}), 0, edge};
  RemovalEngineOptions options;
  options.base_size = 4;
  options.max_depth = 10;
  Result<std::vector<CountInt>> actual =
      EvaluateBasicWithRemoval(a, gaifman, basic, options);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  // On a path, #neighbours: endpoints 1, inner vertices 2.
  for (ElemId e = 0; e < 60; ++e) {
    EXPECT_EQ((*actual)[e], (e == 0 || e == 59) ? 1 : 2) << e;
  }
}

}  // namespace
}  // namespace focq
