// The public facade of focq: model checking, counting, term evaluation and
// FOC1(P)-query evaluation (Theorem 5.5 / Corollary 5.6), with a switch
// between the naive reference engine and the locality-based engine.
#ifndef FOCQ_CORE_API_H_
#define FOCQ_CORE_API_H_

#include <span>
#include <string>
#include <vector>

#include "focq/approx/params.h"
#include "focq/core/context.h"
#include "focq/core/evaluator.h"
#include "focq/core/plan.h"
#include "focq/eval/query.h"
#include "focq/logic/expr.h"
#include "focq/obs/observer.h"
#include "focq/obs/openmetrics.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

struct PreparedStatement;  // focq/core/statement.h

/// Which evaluation pipeline to use.
enum class Engine {
  kNaive,   // direct Definition 3.1 semantics (the ground-truth baseline)
  kLocal,   // Theorem 6.10 decomposition + local cl-term evaluation
  kApprox,  // sampling estimation of counting terms (DESIGN.md §3f): counts
            // carry the (eps, delta) Hoeffding contract of EvalOptions::
            // approx; everything boolean (sentences, query conditions) is
            // still exact, via the kLocal pipeline
};

struct EvalOptions {
  Engine engine = Engine::kLocal;
  TermEngine term_engine = TermEngine::kBall;  // used by Engine::kLocal
  // Accuracy contract, seed and stratification of Engine::kApprox (ignored
  // by the exact engines). Like everything else here, results are
  // bit-identical for every num_threads and for warm vs cold contexts —
  // the sampling RNG is counter-based per sample, not per chunk.
  ApproxParams approx;
  // Worker threads for the parallel engine: 0 = all hardware threads,
  // 1 (default) = serial. Every result is bit-identical for every value —
  // parallel loops write disjoint slots and reduce partial counts in a
  // fixed chunk order (see DESIGN.md, "Concurrency model").
  int num_threads = 1;
  // Optional observability sinks (not owned; may be null): counters, spans,
  // EXPLAIN ANALYZE plan attribution and live progress. Every entry point
  // bundles them into one Observer (obs/observer.h) that each engine layer
  // observes its phases through; installing them never changes results. An
  // armed `deadline` is (re)armed against `progress` — a call-local sink when
  // null — at every entry point, and a hard expiry makes the call return
  // kDeadlineExceeded (DESIGN.md, "Observability" and §3b).
  MetricsSink* metrics = nullptr;
  TraceSink* trace = nullptr;
  ExplainSink* explain = nullptr;
  ProgressSink* progress = nullptr;
  Deadline deadline;
  // Optional shared artifact cache (not owned; may be null). When set and
  // caching artifacts of the evaluated structure, Gaifman graphs and covers
  // are pulled from it instead of being rebuilt per call — results stay
  // bit-identical to the uncached path for every engine, backend and thread
  // count (artifacts are pure functions of the structure). A context caching
  // a *different* structure is ignored, so options objects can be reused
  // across structures safely. Session wires this up automatically.
  EvalContext* context = nullptr;

  /// The sinks above as one Observer (explain nodes become forest roots).
  Observer observer() const { return {metrics, trace, explain, -1, progress}; }
};

/// Decides A |= phi for a sentence phi of FOC(P). With Engine::kLocal, phi
/// should be in FOC1(P) for the fast path; anything outside falls back to
/// direct evaluation internally (still correct).
Result<bool> ModelCheck(const Formula& sentence, const Structure& a,
                        const EvalOptions& options = {});

/// Evaluates a ground counting term t^A.
Result<CountInt> EvaluateGroundTerm(const Term& t, const Structure& a,
                                    const EvalOptions& options = {});

/// The counting problem |phi(A)| (Corollary 5.6): the number of assignments
/// of phi's free variables that satisfy phi.
Result<CountInt> CountSolutions(const Formula& phi, const Structure& a,
                                const EvalOptions& options = {});

/// Full query evaluation (Definition 5.2).
Result<QueryResult> EvaluateQuery(const Foc1Query& q, const Structure& a,
                                  const EvalOptions& options = {});

/// Batch query evaluation over one structure: every query is evaluated with
/// EvaluateQuery semantics, but all of them share one EvalContext (the one in
/// `options`, or a fresh batch-local one), so the Gaifman graph and each
/// (radius, backend) cover are built at most once for the whole batch.
/// Queries are independent: one query failing does not stop the rest.
std::vector<Result<QueryResult>> EvaluateQueries(
    std::span<const Foc1Query> queries, const Structure& a,
    const EvalOptions& options = {});

/// A long-lived evaluation session over one structure: the facade for
/// serving workloads. Owns an EvalContext and threads it through every call,
/// so N queries pay for each artifact once. The structure must outlive the
/// session and stay unmodified *except through ApplyUpdate* (available when
/// the session was constructed over a mutable structure), which repairs the
/// cached artifacts in place instead of rebuilding them (DESIGN.md §3e).
/// Thread-compatible; concurrent sessions may share a structure (each owns
/// its own context — but then none of them may update it) and a single
/// Session should be driven from one thread at a time.
class Session {
 public:
  /// `defaults` seeds the per-call options (engine, term engine, threads,
  /// sinks); its `context` field is ignored — the session installs its own.
  /// A session over a const structure is read-only: ApplyUpdate fails with
  /// kUnsupported.
  explicit Session(const Structure& a, const EvalOptions& defaults = {})
      : a_(&a), options_(defaults), context_(a) {
    options_.context = &context_;
  }

  /// A read-write session: same as above, plus ApplyUpdate.
  explicit Session(Structure* a, const EvalOptions& defaults = {})
      : a_(a), mutable_a_(a), options_(defaults), context_(*a) {
    options_.context = &context_;
  }

  const Structure& structure() const { return *a_; }
  EvalContext& context() { return context_; }
  const EvalOptions& options() const { return options_; }

  /// Applies one tuple-level update to the live structure and incrementally
  /// repairs the session's cached artifacts (see EvalContext::ApplyUpdate
  /// for the full update/invalidate contract). Subsequent evaluations
  /// observe the updated structure and reuse every artifact that survived.
  /// Fails with kUnsupported on a read-only session; validation errors
  /// (unknown symbol, arity, bounds) leave everything untouched.
  Result<UpdateStats> ApplyUpdate(const TupleUpdate& u);

  Result<bool> ModelCheck(const Formula& sentence) {
    Result<bool> r = focq::ModelCheck(sentence, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<CountInt> EvaluateGroundTerm(const Term& t) {
    Result<CountInt> r = focq::EvaluateGroundTerm(t, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<CountInt> CountSolutions(const Formula& phi) {
    Result<CountInt> r = focq::CountSolutions(phi, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<QueryResult> EvaluateQuery(const Foc1Query& q) {
    Result<QueryResult> r = focq::EvaluateQuery(q, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  /// Executes a prepared statement against the session's structure with
  /// the session's options and renders its result (focq/core/statement.h).
  /// Updates repair the cached artifacts like ApplyUpdate; on a read-only
  /// session they fail with kUnsupported.
  Result<std::string> Execute(const PreparedStatement& statement);

  std::vector<Result<QueryResult>> EvaluateQueries(
      std::span<const Foc1Query> queries) {
    std::vector<Result<QueryResult>> r =
        focq::EvaluateQueries(queries, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }

  /// Enables periodic OpenMetrics snapshot sampling: after every call routed
  /// through this session (evaluations and updates alike) the cumulative
  /// state of the session's metrics sink and progress sink — whichever of
  /// the two are installed — is appended to `series` as one timestamped
  /// sample, at most once per `min_interval_ms` (0: every call). The series
  /// is borrowed, not owned; pass nullptr to stop sampling. No background
  /// thread is involved: sampling happens at call boundaries only, so a
  /// session stays single-threaded and the overhead is one clock read per
  /// call when the interval has not elapsed.
  void EnableOpenMetricsSampling(OpenMetricsSeries* series,
                                 std::int64_t min_interval_ms = 0) {
    om_series_ = series;
    om_min_interval_ms_ = min_interval_ms;
    om_last_sample_ms_ = 0;
  }

 private:
  void MaybeSampleOpenMetrics();

  const Structure* a_;
  Structure* mutable_a_ = nullptr;  // non-null iff constructed read-write
  EvalOptions options_;
  EvalContext context_;
  OpenMetricsSeries* om_series_ = nullptr;  // not owned; may be null
  std::int64_t om_min_interval_ms_ = 0;
  std::int64_t om_last_sample_ms_ = 0;
};

}  // namespace focq

#endif  // FOCQ_CORE_API_H_
