// The approximate counting engine (Engine::kApprox, DESIGN.md §3f): sample
// budgets, stratified allocation, the a-priori error bounds the differential
// harness admits, estimator correctness on structures with known exact
// counts, the determinism contract (bit-identical across thread counts and
// warm/cold contexts for a fixed seed), and the error-band harness itself —
// including the exact binomial gate and a deliberately out-of-band subject
// the driver must catch.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "focq/approx/counter_rng.h"
#include "focq/approx/estimator.h"
#include "focq/approx/params.h"
#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/logic/parser.h"
#include "focq/obs/metrics.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "focq/testing/differential.h"
#include "focq/testing/error_band.h"
#include "test_util.h"

namespace focq {
namespace {

Formula MustFormula(const std::string& text) {
  Result<Formula> f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
  return *f;
}

Term MustTerm(const std::string& text) {
  Result<Term> t = ParseTerm(text);
  EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
  return *t;
}

EvalOptions ApproxOptions(double eps = 0.1, double delta = 0.01,
                          std::uint64_t seed = 1) {
  EvalOptions options;
  options.engine = Engine::kApprox;
  options.approx.eps = eps;
  options.approx.delta = delta;
  options.approx.seed = seed;
  return options;
}

// ---------------------------------------------------------------- RNG/params

TEST(CounterRng, DrawsAreAPureFunctionOfTheCounter) {
  CounterRng a(7, 3);
  CounterRng b(7, 3);
  for (std::uint64_t c : {0ULL, 1ULL, 17ULL, 1ULL << 40}) {
    EXPECT_EQ(a.At(c), b.At(c));
    EXPECT_EQ(a.IndexAt(c, 10), b.IndexAt(c, 10));
    EXPECT_LT(a.IndexAt(c, 10), 10u);
  }
  // Different seeds and different streams decorrelate.
  EXPECT_NE(CounterRng(7, 3).At(0), CounterRng(8, 3).At(0));
  EXPECT_NE(CounterRng(7, 3).At(0), CounterRng(7, 4).At(0));
  EXPECT_NE(CounterRng(7, 3).Substream(1).At(0), CounterRng(7, 3).At(0));
}

TEST(ApproxParams, SampleBudgetMatchesHoeffdingAndIsEpsMonotone) {
  // ceil(ln(2/0.01) / (2 * 0.01)) = ceil(264.9...) for the defaults.
  EXPECT_EQ(ApproxSampleBudget(0.1, 0.01), 265);
  EXPECT_GT(ApproxSampleBudget(0.05, 0.01), ApproxSampleBudget(0.1, 0.01));
  EXPECT_GT(ApproxSampleBudget(0.1, 0.001), ApproxSampleBudget(0.1, 0.01));
  // Degenerate parameters clamp instead of overflowing.
  EXPECT_GE(ApproxSampleBudget(1e-9, 1e-9), 1);
  EXPECT_LE(ApproxSampleBudget(1e-9, 1e-9), CountInt{1} << 26);
}

TEST(ApproxParams, ValidateRejectsOutOfRangeEpsAndDelta) {
  ApproxParams p;
  EXPECT_TRUE(ValidateApproxParams(p).ok());
  for (double bad : {0.0, 1.0, -0.5, 2.0}) {
    ApproxParams q;
    q.eps = bad;
    EXPECT_FALSE(ValidateApproxParams(q).ok()) << "eps=" << bad;
    ApproxParams r;
    r.delta = bad;
    EXPECT_FALSE(ValidateApproxParams(r).ok()) << "delta=" << bad;
  }
}

// ------------------------------------------------------- allocation & bounds

TEST(ApproxAllocation, LargestRemainderIsProportionalAndCoversStrata) {
  std::vector<CountInt> alloc = ApproxAllocateSamples(100, {60, 30, 10});
  ASSERT_EQ(alloc.size(), 3u);
  EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 100);
  EXPECT_EQ(alloc[0], 60);
  EXPECT_EQ(alloc[1], 30);
  EXPECT_EQ(alloc[2], 10);
  // Empty strata draw nothing; tiny non-empty strata still get one sample.
  alloc = ApproxAllocateSamples(10, {1000, 0, 1});
  EXPECT_EQ(alloc[1], 0);
  EXPECT_GE(alloc[2], 1);
  // Deterministic: same inputs, same allocation.
  EXPECT_EQ(ApproxAllocateSamples(7, {3, 3, 3}),
            ApproxAllocateSamples(7, {3, 3, 3}));
}

TEST(ApproxDeviation, BoundShrinksWithMoreSamples) {
  std::optional<CountInt> few = ApproxDeviationBound(100000, 100, 0.01);
  std::optional<CountInt> many = ApproxDeviationBound(100000, 10000, 0.01);
  ASSERT_TRUE(few.has_value());
  ASSERT_TRUE(many.has_value());
  EXPECT_GT(*few, *many);
  EXPECT_EQ(ApproxDeviationBound(0, 100, 0.01), 0);
  EXPECT_EQ(ApproxDeviationBound(100, 0, 0.01), 0);
}

TEST(ApproxErrorBoundTest, ConstantsAndEnumeratedFramesAreExact) {
  ApproxParams params;
  // 3 * 4 + 1: no counting binder at all.
  Term t = MustTerm("(3 * 4 + 1)");
  EXPECT_EQ(ApproxErrorBound(t.node(), 50, params, 1e-12), 0);
  // #(x). on a 10-element universe: frame 10 <= budget 265, enumerated.
  Term small = MustTerm("#(x). (x = x)");
  EXPECT_EQ(ApproxErrorBound(small.node(), 10, params, 1e-12), 0);
  // Two variables on 100 elements: frame 10000 > 265, sampled, positive
  // band that scales with the frame.
  Term big = MustTerm("#(x, y). (x = y)");
  std::optional<CountInt> band =
      ApproxErrorBound(big.node(), 100, params, 1e-12);
  ASSERT_TRUE(band.has_value());
  EXPECT_GT(*band, 0);
  EXPECT_LT(*band, 10000);
}

// ------------------------------------------------------------ the estimator

TEST(ApproxEngine, SmallFramesFallBackToExactEnumeration) {
  // Path on 16 vertices: 30 directed edges; frame 256 <= budget 265.
  Structure a = EncodeGraph(MakePath(16));
  MetricsSink sink;
  EvalOptions options = ApproxOptions();
  options.metrics = &sink;
  Result<CountInt> n =
      CountSolutions(MustFormula("E(x, y)"), a, options);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 30);
  EvalMetrics m = sink.Snapshot();
  EXPECT_EQ(m.counters.at("approx.exact_frames"), 1);
  EXPECT_EQ(m.counters.count("approx.samples_drawn"), 0u);
}

TEST(ApproxEngine, SampledEstimateStaysWithinTheTheoreticalBand) {
  // Star K_{1,399}: 798 directed edges over a 160000-assignment frame.
  Structure a = EncodeGraph(MakeCompleteBipartite(1, 399));
  Term t = MustTerm("#(x, y). (E(x, y))");
  MetricsSink sink;
  EvalOptions options = ApproxOptions();
  options.metrics = &sink;
  Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  std::optional<CountInt> band =
      ApproxErrorBound(t.node(), a.Order(), options.approx, 1e-9);
  ASSERT_TRUE(band.has_value());
  CountInt err = *estimate - 798;
  if (err < 0) err = -err;
  EXPECT_LE(err, *band) << "estimate " << *estimate;
  EXPECT_EQ(sink.Snapshot().counters.at("approx.samples_drawn"), 265);
}

TEST(ApproxEngine, DenseFrameEstimateIsAccurate) {
  // K_30: 870 ordered edges over a 900-assignment frame (p ~ 0.97).
  Structure a = EncodeGraph(MakeClique(30));
  Term t = MustTerm("#(x, y). (E(x, y))");
  EvalOptions options = ApproxOptions();
  Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
  ASSERT_TRUE(estimate.ok());
  std::optional<CountInt> band =
      ApproxErrorBound(t.node(), a.Order(), options.approx, 1e-9);
  ASSERT_TRUE(band.has_value());
  CountInt err = *estimate - 870;
  if (err < 0) err = -err;
  EXPECT_LE(err, *band) << "estimate " << *estimate;
}

TEST(ApproxEngine, ZeroExactCountEstimatesZeroOnTheSampledPath) {
  // An empty relation over 40 elements: frame 1600 > budget, sampled, and
  // every sample misses — the estimate must be exactly 0, exercising the
  // additive (not relative) slack of the band.
  Signature sig;
  sig.AddSymbol("E", 2);
  Structure a(sig, 40);
  Term t = MustTerm("#(x, y). (E(x, y))");
  MetricsSink sink;
  EvalOptions options = ApproxOptions();
  options.metrics = &sink;
  Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 0);
  EXPECT_EQ(sink.Snapshot().counters.at("approx.sample_hits"), 0);
}

TEST(ApproxEngine, EstimatesAreBitIdenticalAcrossThreadCounts) {
  Structure a = EncodeGraph(MakeGrid(20, 20));
  Term t = MustTerm("(#(x, y). (E(x, y)) + 2 * #(x). (E(x, x)))");
  std::optional<CountInt> reference;
  for (int threads : {0, 1, 4}) {
    EvalOptions options = ApproxOptions();
    options.num_threads = threads;
    test::PoolFanOutProbe probe;
    Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
    probe.ExpectFannedOut(threads);
    ASSERT_TRUE(estimate.ok()) << "threads=" << threads;
    if (!reference.has_value()) {
      reference = *estimate;
    } else {
      EXPECT_EQ(*estimate, *reference) << "threads=" << threads;
    }
  }
}

TEST(ApproxEngine, SmallerEpsDrawsMoreSamples) {
  Structure a = EncodeGraph(MakeClique(40));  // frame 1600
  Term t = MustTerm("#(x, y). (E(x, y))");
  auto samples_at = [&](double eps) {
    MetricsSink sink;
    EvalOptions options = ApproxOptions(eps);
    options.metrics = &sink;
    Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
    EXPECT_TRUE(estimate.ok());
    return sink.Snapshot().counters.at("approx.samples_drawn");
  };
  EXPECT_GT(samples_at(0.05), samples_at(0.2));
}

TEST(ApproxEngine, WarmContextIsBitIdenticalToColdForAFixedSeed) {
  Structure a = EncodeGraph(MakePath(30));  // frame 900 > budget
  Term t = MustTerm("#(x, y). (E(x, y))");
  EvalOptions options = ApproxOptions();
  options.approx.stratify = true;
  Result<CountInt> cold = EvaluateGroundTerm(t, a, options);
  ASSERT_TRUE(cold.ok());

  EvalContext ctx(a);
  options.context = &ctx;
  MetricsSink sink;
  options.metrics = &sink;
  Result<CountInt> prime = EvaluateGroundTerm(t, a, options);
  Result<CountInt> warm = EvaluateGroundTerm(t, a, options);
  ASSERT_TRUE(prime.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*prime, *cold);
  EXPECT_EQ(*warm, *cold);
  // The second stratified run must serve its sphere typing from the cache
  // (and say so through the reuse counter).
  EXPECT_GT(ctx.cache_stats().hits, 0);
  EXPECT_EQ(sink.Snapshot().counters.at("approx.strata_reused"), 1);
}

TEST(ApproxEngine, StratifiedAndUnstratifiedBothLandInBand) {
  Structure a = EncodeGraph(MakeCompleteBipartite(1, 399));
  Term t = MustTerm("#(x, y). (E(x, y))");
  for (bool stratify : {false, true}) {
    EvalOptions options = ApproxOptions();
    options.approx.stratify = stratify;
    Result<CountInt> estimate = EvaluateGroundTerm(t, a, options);
    ASSERT_TRUE(estimate.ok()) << "stratify=" << stratify;
    const SphereTypeAssignment* strata = nullptr;
    std::optional<SphereTypeAssignment> typing;
    if (stratify) {
      Graph gaifman = BuildGaifmanGraph(a);
      typing.emplace(ComputeSphereTypes(a, gaifman, 1));
      strata = &*typing;
    }
    std::optional<CountInt> band =
        ApproxErrorBound(t.node(), a.Order(), options.approx, 1e-9, strata);
    ASSERT_TRUE(band.has_value());
    CountInt err = *estimate - 798;
    if (err < 0) err = -err;
    EXPECT_LE(err, *band) << "stratify=" << stratify << " estimate "
                          << *estimate;
  }
}

TEST(ApproxEngine, BooleansStayExact) {
  Structure a = EncodeGraph(MakeCycle(24));
  // A sentence with a counting term big enough to sample if it were not
  // routed through the exact pipeline.
  Formula sentence =
      MustFormula("@ge1(#(x, y). (E(x, y)) - 47)");
  MetricsSink sink;
  EvalOptions options = ApproxOptions();
  options.metrics = &sink;
  Result<bool> approx = ModelCheck(sentence, a, options);
  EvalOptions exact;
  Result<bool> local = ModelCheck(sentence, a, exact);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*approx, *local);  // 48 directed edges: 48 - 47 >= 1 holds
  EXPECT_TRUE(*approx);
  EXPECT_EQ(sink.Snapshot().counters.at("approx.boolean_exact"), 1);
}

TEST(ApproxEngine, QueryRowsAreExactAndHeadCountsAreBanded) {
  Structure a = EncodeGraph(MakeCycle(24));
  Foc1Query q;
  Result<Formula> cond = ParseFormula("E(x, y)");
  ASSERT_TRUE(cond.ok());
  q.condition = *cond;
  q.head_vars = FreeVars(q.condition);
  Term head = MustTerm("#(u, v). (E(u, v))");
  q.head_terms = {head};

  EvalOptions exact;
  Result<QueryResult> want = EvaluateQuery(q, a, exact);
  ASSERT_TRUE(want.ok());
  EvalOptions options = ApproxOptions();
  Result<QueryResult> got = EvaluateQuery(q, a, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_EQ(got->rows.size(), want->rows.size());
  std::optional<CountInt> band =
      ApproxErrorBound(head.node(), a.Order(), options.approx, 1e-9);
  ASSERT_TRUE(band.has_value());
  for (std::size_t i = 0; i < want->rows.size(); ++i) {
    EXPECT_EQ(got->rows[i].elements, want->rows[i].elements);
    ASSERT_EQ(got->rows[i].counts.size(), 1u);
    CountInt err = got->rows[i].counts[0] - want->rows[i].counts[0];
    if (err < 0) err = -err;
    EXPECT_LE(err, *band);
  }
  // The head term is ground (no free variable of the row), so every row gets
  // the same draws and hence the identical estimate.
  for (std::size_t i = 1; i < got->rows.size(); ++i) {
    EXPECT_EQ(got->rows[i].counts[0], got->rows[0].counts[0]);
  }
}

// ------------------------------------------------------------ the error band

TEST(ErrorBand, BinomialUpperTailMatchesHandComputedValues) {
  EXPECT_DOUBLE_EQ(fuzz::BinomialUpperTail(2, 0, 0.5), 1.0);
  EXPECT_NEAR(fuzz::BinomialUpperTail(2, 1, 0.5), 0.75, 1e-12);
  EXPECT_NEAR(fuzz::BinomialUpperTail(2, 2, 0.5), 0.25, 1e-12);
  EXPECT_EQ(fuzz::BinomialUpperTail(2, 3, 0.5), 0.0);
  EXPECT_NEAR(fuzz::BinomialUpperTail(10, 1, 0.1),
              1.0 - std::pow(0.9, 10), 1e-12);
}

TEST(ErrorBand, FailureGateAcceptsDeltaConsistentRatesOnly) {
  // 0 or 1 failures in 100 trials at delta = 0.01: plainly consistent.
  EXPECT_TRUE(fuzz::FailureRateConsistentWithDelta(100, 0, 0.01));
  EXPECT_TRUE(fuzz::FailureRateConsistentWithDelta(100, 1, 0.01));
  // Half the runs failing is inconsistent beyond any doubt.
  EXPECT_FALSE(fuzz::FailureRateConsistentWithDelta(100, 50, 0.01));
  EXPECT_FALSE(fuzz::FailureRateConsistentWithDelta(20, 20, 0.01));
}

TEST(ErrorBand, CheckErrorBandFlagsExactlyTheOutOfBandColumns) {
  std::vector<QueryRow> exact = {QueryRow{{0}, {100}}, QueryRow{{1}, {50}}};
  std::vector<QueryRow> close = {QueryRow{{0}, {104}}, QueryRow{{1}, {47}}};
  std::vector<QueryRow> far = {QueryRow{{0}, {100}}, QueryRow{{1}, {1000000}}};
  EXPECT_FALSE(fuzz::CheckErrorBand(exact, close, {5}).has_value());
  EXPECT_TRUE(fuzz::CheckErrorBand(exact, close, {3}).has_value());
  // nullopt bound: the column is unverifiable and never flagged.
  EXPECT_FALSE(fuzz::CheckErrorBand(exact, far, {std::nullopt}).has_value());
  // Mismatched row membership is always a failure.
  std::vector<QueryRow> renamed = {QueryRow{{2}, {100}}, QueryRow{{1}, {50}}};
  EXPECT_TRUE(fuzz::CheckErrorBand(exact, renamed, {5}).has_value());
}

// -------------------------------------------------------------- the harness

fuzz::DiffCase PathCountCase() {
  fuzz::DiffCase c;
  c.mode = fuzz::CaseMode::kCount;
  c.formula = MustFormula("E(x, y)");
  c.structure = EncodeGraph(MakePath(30));  // frame 900: sampled path
  return c;
}

TEST(ApproxHarness, RealEngineAgreesOnAKnownCase) {
  fuzz::ApproxDiffConfig config;
  EXPECT_FALSE(fuzz::RunApproxCase(PathCountCase(), config).has_value());
  EXPECT_FALSE(fuzz::RunApproxTrials(PathCountCase(), config, 10).has_value());
}

TEST(ApproxHarness, CatchesAnOutOfBandSubject) {
  // A subject whose estimates are inflated far beyond any admissible band.
  fuzz::ApproxDiffConfig config;
  config.subject = [](const fuzz::DiffCase& c, const EvalOptions& options) {
    fuzz::Outcome out = fuzz::RunSubject(c, options);
    for (QueryRow& row : out.rows) {
      for (CountInt& count : row.counts) count += 1000000;
    }
    return out;
  };
  std::optional<fuzz::DiffFailure> failure =
      fuzz::RunApproxCase(PathCountCase(), config);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->description.find("band"), std::string::npos)
      << failure->description;
  // The repeated-trial gate catches it too: every trial violates the
  // delta-level band, which is statistically impossible at delta = 0.01.
  EXPECT_TRUE(fuzz::RunApproxTrials(PathCountCase(), config, 20).has_value());
}

TEST(ApproxHarness, CatchesSeedDependentNondeterminism) {
  // A subject that perturbs results per thread count (simulating a chunking
  // bug): band-compatible, but it breaks the bit-identity contract.
  fuzz::ApproxDiffConfig config;
  config.stratify_modes = {false};
  config.subject = [](const fuzz::DiffCase& c, const EvalOptions& options) {
    fuzz::Outcome out = fuzz::RunSubject(c, options);
    if (options.num_threads > 1) {
      for (QueryRow& row : out.rows) {
        for (CountInt& count : row.counts) count += 1;
      }
    }
    return out;
  };
  std::optional<fuzz::DiffFailure> failure =
      fuzz::RunApproxCase(PathCountCase(), config);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->description.find("nondeterministic"), std::string::npos)
      << failure->description;
}

TEST(ApproxHarness, StripsApproxMetricsFromDeterminismComparison) {
  EXPECT_TRUE(fuzz::IsApproxMetric("approx.samples_drawn"));
  EXPECT_TRUE(fuzz::IsApproxMetric("approx.strata_reused"));
  EXPECT_FALSE(fuzz::IsApproxMetric("naive.tuples"));
  EXPECT_FALSE(fuzz::IsApproxMetric("cover_eval.clusters"));
}

}  // namespace
}  // namespace focq
