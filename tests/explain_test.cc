// EXPLAIN / EXPLAIN ANALYZE: the plan tree is well-formed, per-node
// deterministic counters and byte high-water marks are bit-identical for
// every thread count, and the inclusive per-node durations nest (every
// node's children sum to at most the node itself).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/explain.h"
#include "focq/structure/encode.h"
#include "test_util.h"

namespace focq {
namespace {

Structure TestStructure() { return EncodeGraph(MakeGrid(5, 5)); }

Formula TestFormula() {
  Var x = VarNamed("epx"), y = VarNamed("epy");
  return Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(2)));
}

// Every child's parent link points back, ids are dense and in creation
// order, and each node appears in exactly one children list (or is a root).
void ExpectWellFormedForest(const ExplainReport& report) {
  ASSERT_EQ(report.nodes.size(), report.profiles.size());
  std::vector<int> referenced(report.nodes.size(), 0);
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const PlanNode& node = report.nodes[i];
    EXPECT_EQ(node.id, static_cast<int>(i));
    if (node.parent >= 0) {
      ASSERT_LT(node.parent, static_cast<int>(report.nodes.size()));
      EXPECT_LT(node.parent, node.id) << "parents are created first";
    }
    for (int child : node.children) {
      ASSERT_GE(child, 0);
      ASSERT_LT(child, static_cast<int>(report.nodes.size()));
      EXPECT_EQ(report.nodes[static_cast<std::size_t>(child)].parent, node.id);
      ++referenced[static_cast<std::size_t>(child)];
    }
    EXPECT_FALSE(node.kind.empty());
  }
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    EXPECT_EQ(referenced[i], report.nodes[i].parent >= 0 ? 1 : 0);
  }
}

TEST(Explain, PlanOnlyTreeShape) {
  Structure a = TestStructure();
  Formula phi = TestFormula();
  Result<EvalPlan> plan = CompileFormula(phi, a.signature());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  ExplainSink sink;
  PlanNodeIds ids = RegisterPlanNodes({.explain = &sink}, *plan);
  ExplainReport report = sink.Snapshot();

  EXPECT_FALSE(report.analyzed);
  ExpectWellFormedForest(report);
  ASSERT_GE(ids.root, 0);
  EXPECT_EQ(report.nodes[static_cast<std::size_t>(ids.root)].kind, "plan");
  ASSERT_FALSE(ids.layers.empty());
  for (std::size_t l = 0; l < ids.layers.size(); ++l) {
    const PlanNode& layer =
        report.nodes[static_cast<std::size_t>(ids.layers[l])];
    EXPECT_EQ(layer.kind, "layer");
    EXPECT_EQ(layer.parent, ids.root);
    for (int rel : ids.relations[l]) {
      EXPECT_EQ(report.nodes[static_cast<std::size_t>(rel)].parent,
                ids.layers[l]);
    }
  }
  ASSERT_GE(ids.residual, 0);
  EXPECT_EQ(report.nodes[static_cast<std::size_t>(ids.residual)].parent,
            ids.root);
  // Plain EXPLAIN measured nothing.
  for (const NodeProfile& profile : report.profiles) {
    EXPECT_EQ(profile.duration_ns, 0);
    EXPECT_EQ(profile.bytes_peak, 0);
    EXPECT_TRUE(profile.counters.empty());
  }
  // The text rendering mentions every node's kind at least once.
  std::string text = report.ToText();
  EXPECT_NE(text.find("plan:"), std::string::npos);
  EXPECT_NE(text.find("layer:"), std::string::npos);

  // With no sink the id map is populated with -1 so callers can index it
  // unconditionally.
  PlanNodeIds none = RegisterPlanNodes({}, *plan);
  EXPECT_EQ(none.root, -1);
  ASSERT_EQ(none.layers.size(), ids.layers.size());
  for (int layer : none.layers) EXPECT_EQ(layer, -1);
  EXPECT_EQ(none.residual, -1);
}

ExplainReport RunAnalyzed(int num_threads, TermEngine term_engine) {
  Structure a = TestStructure();
  Formula phi = TestFormula();
  MetricsSink metrics;
  ExplainSink explain;
  EvalOptions options;
  options.engine = Engine::kLocal;
  options.term_engine = term_engine;
  options.num_threads = num_threads;
  options.metrics = &metrics;
  options.explain = &explain;
  Result<CountInt> n = CountSolutions(phi, a, options);
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  // 5x5 grid, deg >= 3: 12 non-corner boundary + 9 interior vertices.
  if (n.ok()) EXPECT_EQ(*n, 21);
  return explain.Snapshot();
}

TEST(Explain, AnalyzeAttributesTimeBytesAndCounters) {
  ExplainReport report = RunAnalyzed(/*num_threads=*/1,
                                     TermEngine::kSparseCover);
  EXPECT_TRUE(report.analyzed);
  ExpectWellFormedForest(report);

  bool saw_duration = false, saw_bytes = false, saw_counters = false;
  for (const NodeProfile& profile : report.profiles) {
    saw_duration |= profile.duration_ns > 0;
    saw_bytes |= profile.bytes_peak > 0;
    saw_counters |= !profile.counters.empty();
  }
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_bytes);
  EXPECT_TRUE(saw_counters);

  // The cover build shows up as a root-level artifact node.
  bool saw_artifact = false;
  for (const PlanNode& node : report.nodes) {
    if (node.kind != "artifact") continue;
    saw_artifact = true;
    EXPECT_EQ(node.parent, -1);
  }
  EXPECT_TRUE(saw_artifact);

  // Inclusive timing: each node's children sum to at most the node itself
  // (the timers nest strictly on the coordinating thread). A small epsilon
  // absorbs clock granularity.
  for (const PlanNode& node : report.nodes) {
    std::int64_t child_sum = 0;
    for (int child : node.children) {
      child_sum += report.profiles[static_cast<std::size_t>(child)].duration_ns;
    }
    const NodeProfile& profile = report.profiles[static_cast<std::size_t>(node.id)];
    EXPECT_LE(child_sum, profile.duration_ns + profile.duration_ns / 100 + 10000)
        << "node " << node.id << " (" << node.kind << ": " << node.label
        << "): children sum " << child_sum << " > own " << profile.duration_ns;
  }
}

// The determinism contract: the forest shape, per-node counters and byte
// high-water marks are bit-identical for every thread count (fresh cold
// context each run); only durations may differ.
TEST(Explain, PerNodeCountersBitIdenticalAcrossThreadCounts) {
  for (TermEngine term_engine :
       {TermEngine::kBall, TermEngine::kSparseCover}) {
    ExplainReport baseline = RunAnalyzed(0, term_engine);
    for (int num_threads : {1, 4}) {
      test::PoolFanOutProbe probe;
      ExplainReport report = RunAnalyzed(num_threads, term_engine);
      probe.ExpectFannedOut(num_threads);
      ASSERT_EQ(report.nodes.size(), baseline.nodes.size())
          << "threads=" << num_threads;
      for (std::size_t i = 0; i < report.nodes.size(); ++i) {
        EXPECT_EQ(report.nodes[i].kind, baseline.nodes[i].kind);
        EXPECT_EQ(report.nodes[i].label, baseline.nodes[i].label);
        EXPECT_EQ(report.nodes[i].parent, baseline.nodes[i].parent);
        EXPECT_EQ(report.nodes[i].children, baseline.nodes[i].children);
        EXPECT_EQ(report.profiles[i].counters, baseline.profiles[i].counters)
            << "node " << i << " (" << report.nodes[i].kind << ": "
            << report.nodes[i].label << ") threads=" << num_threads;
        EXPECT_EQ(report.profiles[i].bytes_peak, baseline.profiles[i].bytes_peak)
            << "node " << i << " threads=" << num_threads;
      }
    }
  }
}

// Sinks installed or not, the answer is the same, and evaluation without an
// ExplainSink records nothing (null-safety of every instrumentation site).
TEST(Explain, SinkDoesNotChangeResults) {
  Structure a = TestStructure();
  Formula phi = TestFormula();
  EvalOptions plain;
  plain.engine = Engine::kLocal;
  Result<CountInt> expected = CountSolutions(phi, a, plain);
  ASSERT_TRUE(expected.ok());

  MetricsSink metrics;
  ExplainSink explain;
  EvalOptions instrumented = plain;
  instrumented.metrics = &metrics;
  instrumented.explain = &explain;
  Result<CountInt> observed = CountSolutions(phi, a, instrumented);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, *expected);
  EXPECT_FALSE(explain.Snapshot().nodes.empty());
}

}  // namespace
}  // namespace focq
