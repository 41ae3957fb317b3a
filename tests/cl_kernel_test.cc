// Differential tests of the compiled cl-term kernels (ClTermKernel): the
// ball and cover evaluators against naive counting of
// kernel /\ delta_{G,2r+1}, over random guarded FO+ kernels, every
// candidate-radius case (guards tighter than, equal to and looser than the
// separation, anchored on the BFS parent or not) and every thread count.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "focq/cover/cover_term.h"
#include "focq/cover/neighborhood_cover.h"
#include "focq/eval/naive_eval.h"
#include "focq/locality/cl_term.h"
#include "focq/locality/delta.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/obs/metrics.h"
#include "focq/structure/gaifman.h"
#include "test_util.h"

namespace focq {
namespace {

// #(y2..yk). (kernel & delta_{G,2r+1}) at y1 = e, for every element e.
std::vector<CountInt> NaiveAnchored(const Structure& a,
                                    const BasicClTerm& basic) {
  NaiveEvaluator naive(a);
  const std::vector<Var> counted(basic.vars.begin() + 1, basic.vars.end());
  const Term count = Count(
      counted, And(basic.kernel, DeltaFormula(basic.pattern,
                                              basic.Separation(), basic.vars)));
  std::vector<CountInt> out;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    Result<CountInt> v = naive.Evaluate(count, {{basic.vars[0], e}});
    EXPECT_TRUE(v.ok());
    out.push_back(v.ok() ? *v : -1);
  }
  return out;
}

// A random two-relation structure plus the unary marker relation M, the
// shape marker layers give the structures kernels run on.
Structure MarkedStructure(std::size_t n, Rng* rng) {
  Structure a = test::RandomColoredStructure(n, 1.3, 0.4, rng);
  std::vector<ElemId> marked;
  for (ElemId e = 0; e < n; ++e) {
    if (rng->NextBool(0.5)) marked.push_back(e);
  }
  a.AddUnarySymbol("M", marked);
  return a;
}

std::vector<PatternGraph> ConnectedPatterns(int k) {
  std::vector<PatternGraph> out;
  for (const PatternGraph& p : PatternGraph::AllGraphs(k)) {
    if (p.IsConnected()) out.push_back(p);
  }
  return out;
}

std::string Describe(const BasicClTerm& b) {
  return ToString(b.kernel) +
         " pattern=" + std::to_string(b.pattern.edge_mask()) +
         " r=" + std::to_string(b.radius);
}

TEST(ClTermKernel, RandomGuardedKernelsMatchNaive) {
  Rng rng(1717);
  const std::vector<Var> all = {VarNamed("cky1"), VarNamed("cky2"),
                                VarNamed("cky3")};
  for (int round = 0; round < 90; ++round) {
    const int k = 1 + round % 3;
    const std::vector<Var> vars(all.begin(), all.begin() + k);
    Structure a = MarkedStructure(11, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    const std::uint32_t r = static_cast<std::uint32_t>(rng.NextBelow(3));
    std::vector<Formula> parts;
    parts.reserve(3);
    parts.push_back(test::RandomGuardedKernel(vars, 2, true, 2, &rng));
    // Marker atoms, and top-level guards of every tightness relative to the
    // separation 2r+1.
    const Var marked = vars[rng.NextBelow(vars.size())];
    parts.push_back(rng.NextBool(0.5) ? Atom("M", {marked})
                                      : Not(Atom("M", {marked})));
    if (k > 1) {
      const std::size_t i = rng.NextBelow(k);
      const std::size_t j = (i + 1 + rng.NextBelow(k - 1)) % k;
      parts.push_back(DistAtMost(
          vars[i], vars[j],
          static_cast<std::uint32_t>(rng.NextBelow(2 * r + 3))));
    }
    const Formula kernel = And(parts);
    const std::vector<PatternGraph> patterns = ConnectedPatterns(k);
    const PatternGraph& pattern = patterns[rng.NextBelow(patterns.size())];
    const BasicClTerm basic{vars, /*unary=*/true, kernel, r, pattern};

    ClTermBallEvaluator ball(a, gaifman);
    Result<std::vector<CountInt>> got = ball.EvaluateBasicAll(basic);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, NaiveAnchored(a, basic)) << Describe(basic);
  }
}

// Width 3, every connected pattern (paths with a non-edge, the triangle),
// a top-level guard between every ordered pair of positions with bounds
// below, at and above the separation. In the triangle the third position's
// BFS parent is y1, so a guard dist(y2, y3) anchors it on a non-parent.
TEST(ClTermKernel, GuardTightnessAndAnchoringMatchNaive) {
  Rng rng(1718);
  const std::vector<Var> vars = {VarNamed("cgy1"), VarNamed("cgy2"),
                                 VarNamed("cgy3")};
  Structure a = MarkedStructure(12, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  ClTermBallEvaluator ball(a, gaifman);
  for (std::uint32_t r : {0u, 1u}) {
    const std::uint32_t sep = 2 * r + 1;
    for (const PatternGraph& pattern : ConnectedPatterns(3)) {
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          if (i == j) continue;
          for (std::uint32_t d : {0u, sep - 1, sep, sep + 1}) {
            const Formula kernel =
                And({DistAtMost(vars[i], vars[j], d), Atom("R", {vars[2]}),
                     Or(Atom("M", {vars[1]}), Atom("E", {vars[0], vars[1]}))});
            const BasicClTerm basic{vars, /*unary=*/true, kernel, r, pattern};
            Result<std::vector<CountInt>> got = ball.EvaluateBasicAll(basic);
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(*got, NaiveAnchored(a, basic)) << Describe(basic);
          }
        }
      }
    }
  }
}

// Forall-guards and nested guarded quantifiers, anchored at pattern
// variables and at outer quantified ones.
TEST(ClTermKernel, NestedGuardedQuantifiersMatchNaive) {
  Rng rng(1719);
  const Var y1 = VarNamed("cny1"), y2 = VarNamed("cny2");
  const Var z = VarNamed("cnz"), w = VarNamed("cnw");
  const std::vector<Formula> kernels = {
      GuardedForall(z, y2, 1, Or(Atom("R", {z}), Atom("M", {z}))),
      GuardedExists(z, y1, 2,
                    And(Not(Eq(z, y2)),
                        GuardedForall(w, z, 1,
                                      Or(Not(Atom("E", {z, w})),
                                         Atom("M", {w}))))),
      And(Atom("E", {y1, y2}),
          GuardedExists(z, y2, 1,
                        And(DistAtMost(z, y1, 2),
                            GuardedExists(w, z, 1,
                                          And(Atom("R", {w}),
                                              Not(DistAtMost(w, y1, 1))))))),
      And(DistAtMost(y1, y2, 1),
          GuardedForall(z, y1, 2, Or(DistAtMost(z, y2, 2), Atom("R", {z})))),
  };
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  for (int round = 0; round < 4; ++round) {
    Structure a = MarkedStructure(13, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    ClTermBallEvaluator ball(a, gaifman);
    for (const Formula& kernel : kernels) {
      for (std::uint32_t r : {0u, 1u, 2u}) {
        const BasicClTerm basic{{y1, y2}, /*unary=*/true, kernel, r, edge};
        Result<std::vector<CountInt>> got = ball.EvaluateBasicAll(basic);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, NaiveAnchored(a, basic)) << Describe(basic);
      }
    }
  }
}

// Binary and ternary atoms with their arguments bound in every order,
// repeated arguments, and hubs of high degree in both relations.
TEST(ClTermKernel, HigherArityAtomsMatchNaive) {
  Rng rng(1722);
  constexpr std::size_t kN = 30;
  Structure a(Signature({{"E", 2}, {"R", 1}, {"T", 3}}), kN);
  for (ElemId v = 1; v <= 20; ++v) {
    a.AddTuple(0, std::vector<ElemId>{0, v});
    a.AddTuple(2, std::vector<ElemId>{1, v, static_cast<ElemId>(v % 7)});
  }
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<ElemId>(rng.NextBelow(kN));
    const auto v = static_cast<ElemId>(rng.NextBelow(kN));
    const auto w = static_cast<ElemId>(rng.NextBelow(kN));
    a.AddTuple(0, std::vector<ElemId>{u, v});
    if (i % 2 == 0) a.AddTuple(2, std::vector<ElemId>{u, v, w});
    if (rng.NextBool(0.4)) a.AddTuple(1, std::vector<ElemId>{u});
  }
  a.AddTuple(2, std::vector<ElemId>{3, 3, 4});
  Graph gaifman = BuildGaifmanGraph(a);
  ClTermBallEvaluator ball(a, gaifman);
  const Var y1 = VarNamed("ciy1"), y2 = VarNamed("ciy2"),
            y3 = VarNamed("ciy3"), z = VarNamed("ciz");
  const std::vector<Formula> kernels = {
      And(Atom("E", {y1, y2}), Atom("E", {y2, y3})),
      Or(Atom("E", {y2, y1}), Atom("T", {y3, y1, y2})),
      And(Atom("T", {y1, y2, y3}), Not(Atom("T", {y2, y2, y1}))),
      Or(Atom("T", {y2, y3, y1}), Atom("T", {y1, y1, y2})),
      GuardedExists(z, y2, 1,
                    And(Atom("T", {z, y1, z}), Not(Atom("E", {z, y3})))),
      GuardedForall(z, y1, 1, Or(Not(Atom("E", {y1, z})), Atom("R", {z}))),
  };
  for (const Formula& kernel : kernels) {
    for (const PatternGraph& pattern : ConnectedPatterns(3)) {
      for (std::uint32_t r : {0u, 1u}) {
        const BasicClTerm basic{{y1, y2, y3}, /*unary=*/true, kernel, r,
                                pattern};
        Result<std::vector<CountInt>> got = ball.EvaluateBasicAll(basic);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, NaiveAnchored(a, basic)) << Describe(basic);
      }
    }
  }
}

// Ball = cover = naive at every thread count, with the clterm.* counters
// identical across thread counts and engines, and a real fan-out at 4.
TEST(ClTermKernel, BallCoverAndNaiveAgreeAtEveryThreadCount) {
  Rng rng(1720);
  const std::vector<Var> vars = {VarNamed("cty1"), VarNamed("cty2"),
                                 VarNamed("cty3")};
  Structure a = MarkedStructure(48, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  PatternGraph path(3, 0);
  path.SetEdge(0, 1);
  path.SetEdge(1, 2);
  const Formula kernel =
      And({DistAtMost(vars[1], vars[2], 1), Atom("M", {vars[2]}),
           GuardedExists(VarNamed("ctz"), vars[0], 1,
                         Atom("R", {VarNamed("ctz")}))});
  const BasicClTerm basic{vars, /*unary=*/true, kernel, 1, path};
  const std::vector<CountInt> expected = NaiveAnchored(a, basic);
  const NeighborhoodCover cover =
      SparseCover(gaifman, RequiredCoverRadius(basic));
  std::map<std::string, std::int64_t> reference;
  for (int threads : {0, 1, 2, 4, 8}) {
    for (bool use_cover : {false, true}) {
      MetricsSink metrics;
      const Observer obs{.metrics = &metrics};
      test::PoolFanOutProbe probe;
      Result<std::vector<CountInt>> got =
          use_cover ? ClTermCoverEvaluator(a, gaifman, cover, threads, obs)
                          .EvaluateBasicAll(basic)
                    : ClTermBallEvaluator(a, gaifman, threads, obs)
                          .EvaluateBasicAll(basic);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected) << "threads=" << threads
                                << " cover=" << use_cover;
      probe.ExpectFannedOut(threads);
      std::map<std::string, std::int64_t> clterm;
      for (const auto& [name, value] : metrics.Snapshot().counters) {
        if (name.starts_with("clterm.") &&
            name != "clterm.basics_evaluated") {
          clterm[name] = value;
        }
      }
      if (reference.empty()) reference = clterm;
      EXPECT_EQ(clterm, reference) << "threads=" << threads
                                   << " cover=" << use_cover;
    }
  }
}

// The candidate-radius rule, counted: for dist(y1, y2) <= 1 & R(y2) at
// r = 1 the candidates come from the 1-ball, not the 3-ball, so exactly
// sum_a |N_1(a)| placements are checked.
TEST(ClTermKernel, GuardTightensCandidateBall) {
  Rng rng(1721);
  Structure a = test::RandomColoredStructure(60, 1.5, 0.3, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  const Var y1 = VarNamed("cry1"), y2 = VarNamed("cry2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  const BasicClTerm basic{
      {y1, y2}, true, And(DistAtMost(y1, y2, 1), Atom("R", {y2})), 1, edge};
  MetricsSink metrics;
  ClTermBallEvaluator ball(a, gaifman, 1, Observer{.metrics = &metrics});
  Result<std::vector<CountInt>> got = ball.EvaluateBasicAll(basic);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, NaiveAnchored(a, basic));
  std::int64_t one_balls = 0;
  for (VertexId v = 0; v < gaifman.num_vertices(); ++v) {
    one_balls += 1 + static_cast<std::int64_t>(gaifman.Degree(v));
  }
  const auto counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters.at("clterm.placements_checked"), one_balls);
  EXPECT_EQ(counters.at("clterm.balls_fetched"),
            static_cast<std::int64_t>(a.universe_size()));
}

}  // namespace
}  // namespace focq
