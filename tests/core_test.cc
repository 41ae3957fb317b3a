#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/logic/parser.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"
#include "test_util.h"

namespace focq {
namespace {

EvalOptions Naive() { return EvalOptions{Engine::kNaive, TermEngine::kBall}; }
EvalOptions LocalBall() {
  return EvalOptions{Engine::kLocal, TermEngine::kBall};
}
EvalOptions LocalCover() {
  return EvalOptions{Engine::kLocal, TermEngine::kSparseCover};
}

TEST(Plan, CompilesDegreeQuery) {
  // "x has at least 2 neighbours": ge1(#(y).E(x,y) - 1).
  Var x = VarNamed("pcx"), y = VarNamed("pcy");
  Formula f = Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(1)));
  Signature sig({{"E", 2}});
  Result<EvalPlan> plan = CompileFormula(f, sig);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->layers.size(), 1u);
  ASSERT_EQ(plan->layers[0].size(), 1u);
  EXPECT_FALSE(plan->layers[0][0].fallback);
  EXPECT_EQ(plan->layers[0][0].arity, 1);
  // Residual: just the marker atom.
  EXPECT_EQ(plan->final_formula.kind(), ExprKind::kAtom);
  EvalPlan::Stats stats = plan->ComputeStats();
  EXPECT_EQ(stats.num_layers, 1u);
  EXPECT_EQ(stats.num_fallback_relations, 0u);
  EXPECT_GE(stats.num_basic_cl_terms, 1u);
}

TEST(Plan, NestedPredicatesMakeTwoLayers) {
  // ge1(#(y).( E(x,y) and ge1(#(z). E(y,z)) )): inner predicate forms layer
  // 1, outer layer 2.
  Var x = VarNamed("nlx"), y = VarNamed("nly"), z = VarNamed("nlz");
  Formula inner = Ge1(Count({z}, Atom("E", {y, z})));
  Formula f = Ge1(Count({y}, And(Atom("E", {x, y}), inner)));
  Result<EvalPlan> plan = CompileFormula(f, Signature({{"E", 2}}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->layers.size(), 2u);
}

TEST(Plan, UnguardedCountFallsBack) {
  // #(y).exists z E(y,z) -- the kernel's quantifier is unguarded, so the
  // layer is a (correct) fallback.
  Var x = VarNamed("ufx"), y = VarNamed("ufy"), z = VarNamed("ufz");
  Formula f = Ge1(Count({y}, And(Atom("E", {x, y}), Exists(z, Atom("E", {y, z})))));
  Result<EvalPlan> plan = CompileFormula(f, Signature({{"E", 2}}));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->layers.size(), 1u);
  EXPECT_TRUE(plan->layers[0][0].fallback);
}

TEST(Plan, ComputeStatsCountsFallbackRelations) {
  // The unguarded plan above, through the Stats lens: one relation, all of
  // it fallback, and no basic cl-terms (fallback defs carry no args).
  Var x = VarNamed("fsx"), y = VarNamed("fsy"), z = VarNamed("fsz");
  Formula f =
      Ge1(Count({y}, And(Atom("E", {x, y}), Exists(z, Atom("E", {y, z})))));
  Result<EvalPlan> plan = CompileFormula(f, Signature({{"E", 2}}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EvalPlan::Stats stats = plan->ComputeStats();
  EXPECT_EQ(stats.num_layers, 1u);
  EXPECT_EQ(stats.num_relations, 1u);
  EXPECT_EQ(stats.num_fallback_relations, 1u);
  EXPECT_EQ(stats.num_basic_cl_terms, 0u);
  EXPECT_EQ(stats.max_width, 0);
  EXPECT_EQ(stats.max_radius, 0u);
}

TEST(Plan, ComputeStatsOnTermShapedPlan) {
  // A ground width-2 count compiles to a term-shaped plan (no layers); its
  // decomposed final cl-term must still show up in the statistics.
  Var x = VarNamed("tsx"), y = VarNamed("tsy");
  Term t = Count({x, y}, And(Atom("E", {x, y}), Atom("E", {y, x})));
  Result<EvalPlan> plan = CompileTerm(t, Signature({{"E", 2}}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->is_term);
  ASSERT_TRUE(plan->final_term_decomposed);
  EvalPlan::Stats stats = plan->ComputeStats();
  EXPECT_EQ(stats.num_layers, 0u);
  EXPECT_EQ(stats.num_relations, 0u);
  EXPECT_GE(stats.num_basic_cl_terms, 1u);
  EXPECT_EQ(stats.max_width, 2);
}

// The grand differential test: local engine vs naive engine on random FOC1
// sentences over random sparse structures.
TEST(CoreApi, ModelCheckAgreesWithNaive) {
  Rng rng(2000);
  Var x = VarNamed("mcx"), y = VarNamed("mcy");
  int fast_paths = 0;
  for (int round = 0; round < 25; ++round) {
    Structure a = test::RandomColoredStructure(16, 1.3, 0.4, &rng);
    // Random FOC1 sentence: ge1 over a unary count with a guarded kernel,
    // wrapped in a guarded sentence-level quantifier shape.
    Formula kernel = test::RandomGuardedKernel({x, y}, 2, true, 1, &rng, 1);
    Term count = Count({y}, kernel);
    Formula numeric =
        rng.NextBool(0.5)
            ? Ge1(count)
            : TermEq(count, Int(static_cast<CountInt>(rng.NextBelow(3))));
    Formula sentence = Exists(x, numeric);
    Result<bool> naive = ModelCheck(sentence, a, Naive());
    Result<bool> local = ModelCheck(sentence, a, LocalBall());
    Result<bool> cover = ModelCheck(sentence, a, LocalCover());
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(cover.ok()) << cover.status().ToString();
    EXPECT_EQ(*naive, *local) << ToString(sentence);
    EXPECT_EQ(*naive, *cover) << ToString(sentence);
    ++fast_paths;
  }
  EXPECT_GT(fast_paths, 0);
}

TEST(CoreApi, CountSolutionsAgreesWithNaive) {
  Rng rng(2100);
  Var x = VarNamed("csx"), y = VarNamed("csy");
  for (int round = 0; round < 20; ++round) {
    Structure a = test::RandomColoredStructure(14, 1.4, 0.4, &rng);
    Formula kernel = test::RandomGuardedKernel({x, y}, 2, true, 1, &rng, 1);
    // phi(x) := ge1-style condition on x's local count.
    Formula phi = Ge1(Count({y}, kernel));
    Result<CountInt> naive = CountSolutions(phi, a, Naive());
    Result<CountInt> local = CountSolutions(phi, a, LocalBall());
    Result<CountInt> cover = CountSolutions(phi, a, LocalCover());
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(cover.ok());
    EXPECT_EQ(*naive, *local) << ToString(phi);
    EXPECT_EQ(*naive, *cover) << ToString(phi);
  }
}

TEST(CoreApi, GroundTermsAgreeWithNaive) {
  Rng rng(2200);
  Var x = VarNamed("gtx"), y = VarNamed("gty");
  for (int round = 0; round < 20; ++round) {
    Structure a = test::RandomColoredStructure(14, 1.4, 0.4, &rng);
    Formula kernel = test::RandomGuardedKernel({x, y}, 2, true, 1, &rng, 1);
    Term t = Add(Mul(Count({x, y}, kernel), Int(3)),
                 Count({x}, Atom("R", {x})));
    Result<CountInt> naive = EvaluateGroundTerm(t, a, Naive());
    Result<CountInt> local = EvaluateGroundTerm(t, a, LocalBall());
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    EXPECT_EQ(*naive, *local) << ToString(t);
  }
}

TEST(CoreApi, PrimeSumSentenceBothEngines) {
  // Example 3.2's first sentence on a path: n + 2(n-1) edges-tuples.
  Var x = VarNamed("psx"), y = VarNamed("psy");
  Formula f = Pred(PredPrime(), {Add(Count({x}, Eq(x, x)),
                                     Count({x, y}, Atom("E", {x, y})))});
  // Path with 5 vertices: 5 + 8 = 13, prime.
  Structure a = EncodeGraph(MakePath(5));
  EXPECT_TRUE(*ModelCheck(f, a, Naive()));
  EXPECT_TRUE(*ModelCheck(f, a, LocalBall()));
  // Path with 4 vertices: 4 + 6 = 10, not prime.
  Structure b = EncodeGraph(MakePath(4));
  EXPECT_FALSE(*ModelCheck(f, b, Naive()));
  EXPECT_FALSE(*ModelCheck(f, b, LocalBall()));
}

TEST(CoreApi, DeeplyNestedFoc1) {
  // Nodes whose number of neighbours with prime degree equals 1.
  Var x = VarNamed("dnx"), y = VarNamed("dny"), z = VarNamed("dnz");
  Formula prime_degree = Pred(PredPrime(), {Count({z}, Atom("E", {y, z}))});
  Formula phi =
      TermEq(Count({y}, And(Atom("E", {x, y}), prime_degree)), Int(1));
  Rng rng(2300);
  for (int round = 0; round < 10; ++round) {
    Structure a = test::RandomGraphStructure(15, 1.5, &rng);
    Result<CountInt> naive = CountSolutions(phi, a, Naive());
    Result<CountInt> local = CountSolutions(phi, a, LocalBall());
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    EXPECT_EQ(*naive, *local);
  }
}

TEST(CoreApi, RejectsNonSentences) {
  Var x = VarNamed("rjx");
  Structure a = EncodeGraph(MakePath(3));
  EXPECT_FALSE(ModelCheck(Atom("E", {x, x}), a).ok());
  EXPECT_FALSE(EvaluateGroundTerm(Count({}, Atom("E", {x, x})), a).ok());
}

// Unknown relation symbols and arity mismatches are kInvalidArgument at
// every entry point, under every engine (they used to abort the process).
TEST(CoreApi, RejectsUnknownSymbolsAndArityMismatches) {
  Structure a = EncodeGraph(MakePath(4));
  EvalOptions approx;
  approx.engine = Engine::kApprox;
  for (const EvalOptions& options :
       {Naive(), LocalBall(), LocalCover(), approx}) {
    for (const char* atom : {"F(ux)", "F(ux, ux)", "E(ux)", "E(ux, ux, ux)"}) {
      SCOPED_TRACE(std::string(atom) + ", engine " +
                   std::to_string(static_cast<int>(options.engine)) +
                   ", term engine " +
                   std::to_string(static_cast<int>(options.term_engine)));
      const std::string cond = std::string("E(ux, uy) & ") + atom;
      const std::string counted = "#(ux, uy). (" + cond + ")";
      Result<bool> holds =
          ModelCheck(*ParseFormula("exists ux. exists uy. (" + cond + ")"), a,
                     options);
      ASSERT_FALSE(holds.ok());
      EXPECT_EQ(holds.status().code(), StatusCode::kInvalidArgument);
      Result<CountInt> count = CountSolutions(*ParseFormula(cond), a, options);
      ASSERT_FALSE(count.ok());
      EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
      Result<CountInt> value =
          EvaluateGroundTerm(*ParseTerm(counted), a, options);
      ASSERT_FALSE(value.ok());
      EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
      // Through the condition and through a head term, with one and two
      // head variables.
      Var x = VarNamed("ux"), y = VarNamed("uy");
      for (std::vector<Var> heads : {std::vector<Var>{x},
                                     std::vector<Var>{x, y}}) {
        Foc1Query bad_condition;
        bad_condition.head_vars = heads;
        bad_condition.condition = heads.size() == 1
                                      ? *ParseFormula("exists uy. (" + cond + ")")
                                      : *ParseFormula(cond);
        Foc1Query bad_term;
        bad_term.head_vars = heads;
        bad_term.condition = *ParseFormula("E(ux, ux) | ux = ux");
        bad_term.head_terms = {
            *ParseTerm("#(uz). (E(ux, uz) & " + std::string(atom) + ")")};
        for (const Foc1Query& q : {bad_condition, bad_term}) {
          Result<QueryResult> rows = EvaluateQuery(q, a, options);
          ASSERT_FALSE(rows.ok());
          EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
        }
      }
    }
  }
}

TEST(CoreApi, ParsedQueriesWork) {
  Structure a = EncodeGraph(MakeCycle(6));
  Result<Formula> f = ParseFormula(
      "exists x. @eq(#(y). (E(x, y)), 2)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(*ModelCheck(*f, a, LocalBall()));
  Result<Formula> g = ParseFormula("exists x. @eq(#(y). (E(x, y)), 3)");
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(*ModelCheck(*g, a, LocalBall()));
}

}  // namespace
}  // namespace focq
