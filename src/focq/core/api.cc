#include "focq/core/api.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <type_traits>

#include "focq/approx/estimator.h"
#include "focq/eval/naive_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// The observation of one top-level API call: the caller's sinks as one
// Observer. When the caller armed a deadline, the sink's clock is (re)started
// here — on a private call-local sink when none was installed, so `deadline`
// alone suffices. A query's condition and head-term sub-calls share the
// query's Observer, so the budget covers the whole top-level call.
struct CallObserver {
  std::optional<ProgressSink> local;
  Observer obs;

  explicit CallObserver(const EvalOptions& options)
      : obs(options.observer()) {
    if (!options.deadline.armed()) return;
    if (obs.progress == nullptr) obs.progress = &local.emplace();
    obs.progress->ArmDeadline(options.deadline);
  }
};

// The caller's shared context, if it actually caches artifacts of `a`;
// nullptr otherwise (each executor then owns a private context). The pointer
// comparison makes stale options objects degrade to the uncached path
// instead of serving artifacts of the wrong structure.
EvalContext* UsableContext(const EvalOptions& options, const Structure& a) {
  if (options.context != nullptr && &options.context->structure() == &a) {
    return options.context;
  }
  return nullptr;
}

// Plan-shape counters (sums and high-water marks over every compilation this
// sink observes); all derived from the query alone, hence thread-count
// independent by construction.
void RecordPlanMetrics(const EvalPlan& plan, const Observer& obs) {
  if (obs.metrics == nullptr) return;
  EvalPlan::Stats stats = plan.ComputeStats();
  obs.Count("plan.compilations", 1);
  obs.Count("plan.layers", static_cast<std::int64_t>(stats.num_layers));
  obs.Count("plan.relations", static_cast<std::int64_t>(stats.num_relations));
  obs.Count("plan.fallback_relations",
            static_cast<std::int64_t>(stats.num_fallback_relations));
  obs.Count("plan.basic_cl_terms",
            static_cast<std::int64_t>(stats.num_basic_cl_terms));
  obs.Max("plan.max_width", static_cast<std::int64_t>(stats.max_width));
  obs.Max("plan.max_radius", static_cast<std::int64_t>(stats.max_radius));
}

// Compiles a Formula or a Term under a "compile" explain node and span, then
// records the plan-shape counters (outside the compile node).
template <typename T>
Result<EvalPlan> Compile(const T& expr, const Structure& a,
                         const Observer& obs) {
  Result<EvalPlan> plan = [&] {
    if constexpr (std::is_same_v<T, Term>) {
      Phase phase(obs, "compile", "compile", "term");
      return CompileTerm(expr, a.signature());
    } else {
      Phase phase(obs, "compile", "compile", "formula");
      return CompileFormula(expr, a.signature());
    }
  }();
  if (plan.ok()) RecordPlanMetrics(*plan, obs);
  return plan;
}

// With the naive engine the work tally lives on the evaluator; flush it so
// both engines report through the same sink interface.
void FlushNaiveMetrics(const NaiveEvaluator& eval, const Observer& obs) {
  obs.Count("naive.tuples_enumerated", eval.tuples_enumerated());
}

// Validates the (eps, delta) contract and resolves the stratification
// typing (null: unstratified) through the caller's EvalContext when one
// caches this structure, else through a call-local one in `*local` — either
// way a cancellable, observed build. The typing is a pure function of
// (structure, radius), so warm and cold runs stratify identically and stay
// bit-identical (DESIGN.md §3f). `*local` must outlive the typing's use.
Result<const SphereTypeAssignment*> PrepareApprox(
    const EvalOptions& options, const Structure& a, const Observer& obs,
    std::optional<EvalContext>* local) {
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  const SphereTypeAssignment* unstratified = nullptr;
  if (!options.approx.stratify) return unstratified;
  EvalContext* context = UsableContext(options, a);
  if (context == nullptr) context = &local->emplace(a);
  const std::uint32_t r = options.approx.stratify_radius;
  const bool reused = context->CachedSphereTypes(r) != nullptr;
  Result<const SphereTypeAssignment*> typing =
      context->TrySphereTypes(r, options.num_threads, obs);
  if (typing.ok()) obs.Count("approx.strata_reused", reused ? 1 : 0);
  return typing;
}

// ModelCheck for a validated sentence, observed under `obs`.
Result<bool> ModelCheckObserved(const Formula& sentence, const Structure& a,
                                EvalOptions options, const Observer& obs) {
  if (options.engine == Engine::kApprox) {
    // Sentences are boolean: there is no count to approximate. Validate the
    // contract anyway (bad knobs fail uniformly across entry points) and
    // answer exactly through the locality pipeline.
    FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
    options.engine = Engine::kLocal;
    obs.Count("approx.boolean_exact", 1);
  }
  Phase call(obs, {},
             options.engine == Engine::kNaive ? "naive-check" : "check",
             ToString(sentence));
  if (options.engine == Engine::kNaive) {
    Phase naive(call.observer(), "naive_eval");
    NaiveEvaluator eval(a, obs);
    bool holds = eval.Satisfies(sentence);
    FlushNaiveMetrics(eval, obs);
    if (eval.stopped()) return obs.progress->DeadlineStatus();
    return holds;
  }
  Result<EvalPlan> plan = Compile(sentence, a, call.observer());
  if (!plan.ok()) return plan.status();
  PlanExecutor exec(*plan, a, {options.term_engine, options.num_threads},
                    call.observer(), UsableContext(options, a));
  FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
  return exec.CheckSentence();
}

// EvaluateGroundTerm for a validated ground term, observed under `obs`.
Result<CountInt> EvaluateGroundTermObserved(const Term& t, const Structure& a,
                                            const EvalOptions& options,
                                            const Observer& obs) {
  Phase call(obs, {},
             options.engine == Engine::kNaive    ? "naive-term"
             : options.engine == Engine::kApprox ? "approx-term"
                                                 : "term",
             ToString(t));
  if (options.engine == Engine::kNaive) {
    Phase naive(call.observer(), "naive_eval");
    NaiveEvaluator eval(a, obs);
    Result<CountInt> v = eval.Evaluate(t);
    FlushNaiveMetrics(eval, obs);
    return v;
  }
  if (options.engine == Engine::kApprox) {
    Phase approx(call.observer(), "approx_eval");
    std::optional<EvalContext> local_context;
    Result<const SphereTypeAssignment*> strata =
        PrepareApprox(options, a, call.observer(), &local_context);
    if (!strata.ok()) return strata.status();
    ApproxEvaluator eval(a, options.approx, options.num_threads, *strata,
                         call.observer());
    return eval.EvaluateGround(t);
  }
  Result<EvalPlan> plan = Compile(t, a, call.observer());
  if (!plan.ok()) return plan.status();
  PlanExecutor exec(*plan, a, {options.term_engine, options.num_threads},
                    call.observer(), UsableContext(options, a));
  FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
  return exec.TermValue();
}

}  // namespace

Result<bool> ModelCheck(const Formula& sentence, const Structure& a,
                        const EvalOptions& options) {
  if (!FreeVars(sentence).empty()) {
    return Status::InvalidArgument("ModelCheck expects a sentence");
  }
  CallObserver call(options);
  return ModelCheckObserved(sentence, a, options, call.obs);
}

Result<CountInt> EvaluateGroundTerm(const Term& t, const Structure& a,
                                    const EvalOptions& options) {
  if (!FreeVars(t).empty()) {
    return Status::InvalidArgument("EvaluateGroundTerm expects a ground term");
  }
  CallObserver call(options);
  return EvaluateGroundTermObserved(t, a, options, call.obs);
}

Result<CountInt> CountSolutions(const Formula& phi, const Structure& a,
                                const EvalOptions& options) {
  CallObserver call(options);
  std::vector<Var> free = FreeVars(phi);
  if (free.empty()) {
    Result<bool> holds = ModelCheckObserved(phi, a, options, call.obs);
    if (!holds.ok()) return holds.status();
    return *holds ? CountInt{1} : CountInt{0};
  }
  if (options.engine == Engine::kNaive) {
    Phase naive(call.obs, "naive_eval", "naive-count", ToString(phi));
    NaiveEvaluator eval(a, call.obs);
    Result<CountInt> v = eval.CountSolutions(phi, options.num_threads);
    FlushNaiveMetrics(eval, call.obs);
    return v;
  }
  return EvaluateGroundTermObserved(Count(free, phi), a, options, call.obs);
}

namespace {

Result<QueryResult> EvaluateUnaryQueryLocal(const Foc1Query& q,
                                            const Structure& a,
                                            const EvalOptions& options,
                                            const Observer& obs) {
  // One free variable: evaluate the condition and every head term for all
  // elements in bulk. Condition and head-term executors share one context,
  // so the Gaifman graph and covers are built once for the whole query.
  EvalContext* context = UsableContext(options, a);

  Result<std::vector<bool>> sat = [&]() -> Result<std::vector<bool>> {
    Phase cond(obs, {}, "condition", ToString(q.condition));
    Result<EvalPlan> plan = Compile(q.condition, a, cond.observer());
    if (!plan.ok()) return plan.status();
    PlanExecutor exec(*plan, a, {options.term_engine, options.num_threads},
                      cond.observer(), context);
    FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
    return exec.CheckAll();
  }();
  if (!sat.ok()) return sat.status();

  std::vector<std::vector<CountInt>> term_values;
  for (const Term& t : q.head_terms) {
    Phase term(obs, {}, "head-term", ToString(t));
    Result<EvalPlan> plan = Compile(t, a, term.observer());
    if (!plan.ok()) return plan.status();
    PlanExecutor exec(*plan, a, {options.term_engine, options.num_threads},
                      term.observer(), context);
    FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
    Result<std::vector<CountInt>> values = exec.TermValues();
    if (!values.ok()) return values.status();
    term_values.push_back(std::move(*values));
  }
  QueryResult result;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (!(*sat)[e]) continue;
    QueryRow row;
    row.elements = {e};
    for (const auto& values : term_values) row.counts.push_back(values[e]);
    result.rows.push_back(std::move(row));
  }
  return result;
}

// Multi-variable heads: enumerate candidate head tuples. If the condition
// (below an exists-prefix) has a conjunct atom covering all head variables,
// its relation's rows drive the enumeration (the SQL join/group-by shape);
// otherwise sweep A^k. Either way every candidate is verified against the
// full condition with the guard-and-index-aware LocalEvaluator.
Result<QueryResult> EvaluateMultiQueryLocal(const Foc1Query& q,
                                            const Structure& a,
                                            const EvalOptions& options,
                                            const Observer& obs) {
  // The verification evaluators only need the (query-independent) Gaifman
  // graph; pull it from the shared context so a batch builds it once.
  std::optional<EvalContext> local_context;
  EvalContext* context = UsableContext(options, a);
  if (context == nullptr) context = &local_context.emplace(a);
  const Graph& gaifman = context->Gaifman(obs);
  const std::size_t k = q.head_vars.size();
  Phase verify(obs, {}, "candidate-verify", std::to_string(k) + " head vars");

  // Find a driver atom.
  const Expr* scope = &q.condition.node();
  while (scope->kind == ExprKind::kExists) scope = scope->children[0].get();
  std::vector<const Expr*> conjuncts;
  if (scope->kind == ExprKind::kAnd) {
    for (const ExprRef& c : scope->children) conjuncts.push_back(c.get());
  } else {
    conjuncts.push_back(scope);
  }
  const Expr* driver = nullptr;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kAtom) continue;
    bool covers = true;
    for (Var h : q.head_vars) {
      if (std::find(c->vars.begin(), c->vars.end(), h) == c->vars.end()) {
        covers = false;
        break;
      }
    }
    if (covers) {
      driver = c;
      break;
    }
  }

  std::set<Tuple> candidates;
  if (driver != nullptr) {
    std::optional<SymbolId> id = a.signature().Find(driver->symbol_name);
    FOCQ_CHECK(id.has_value());
    Tuple head(k);
    for (const Tuple& t : a.relation(*id).tuples()) {
      bool consistent = true;
      for (std::size_t i = 0; i < k && consistent; ++i) {
        std::optional<ElemId> value;
        for (std::size_t pos = 0; pos < driver->vars.size(); ++pos) {
          if (driver->vars[pos] != q.head_vars[i]) continue;
          if (value.has_value() && *value != t[pos]) consistent = false;
          value = t[pos];
        }
        if (consistent) head[i] = *value;
      }
      if (consistent) candidates.insert(head);
    }
  } else {
    // Full sweep (correct but Theta(n^k)); only reached for conditions
    // without a covering atom.
    Tuple head(k, 0);
    std::function<void(std::size_t)> sweep = [&](std::size_t i) {
      if (i == k) {
        candidates.insert(head);
        return;
      }
      for (ElemId e = 0; e < a.universe_size(); ++e) {
        head[i] = e;
        sweep(i + 1);
      }
    };
    sweep(0);
  }

  // Verify candidates in parallel: each chunk checks its share of the
  // (sorted) candidate list with a private evaluator and collects rows into
  // a private vector; concatenating those in chunk order reproduces the
  // serial row order exactly.
  std::vector<Tuple> ordered(candidates.begin(), candidates.end());
  obs.Count("query.candidates_verified",
            static_cast<std::int64_t>(ordered.size()));
  const int workers = EffectiveThreads(options.num_threads);
  const std::size_t num_chunks =
      MakeChunkGrid(ordered.size(), workers).num_chunks;
  std::vector<std::vector<QueryRow>> chunk_rows(num_chunks);
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  obs.AddTotal(ProgressPhase::kResidual,
               static_cast<std::int64_t>(ordered.size()));
  ParallelFor(
      workers, ordered.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        LocalEvaluator eval(a, gaifman);
        for (std::size_t c = begin; c < end; ++c) {
          if (obs.ShouldStop()) return;  // drain on hard deadline
          obs.Advance(ProgressPhase::kResidual, 1);
          const Tuple& head = ordered[c];
          Env env;
          for (std::size_t i = 0; i < k; ++i) {
            env.Bind(q.head_vars[i], head[i]);
          }
          if (!eval.Satisfies(q.condition, &env)) continue;
          QueryRow row;
          row.elements = head;
          for (const Term& t : q.head_terms) {
            Result<CountInt> v = eval.Evaluate(t, &env);
            if (!v.ok()) {
              chunk_status[chunk] = v.status();
              return;
            }
            row.counts.push_back(*v);
          }
          chunk_rows[chunk].push_back(std::move(row));
        }
      });
  if (obs.Cancelled()) return obs.progress->DeadlineStatus();
  QueryResult result;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
    for (QueryRow& row : chunk_rows[c]) {
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

// Engine::kApprox queries: the boolean part (which rows qualify) is answered
// exactly by the kLocal pipeline on a head-term-less shell of the query, so
// row sets are bit-identical to the exact engines; only the head-term count
// columns are estimated. Rows are walked in their deterministic order and
// each term's draws depend on the row's bound values, so the columns are
// identical for every thread count.
Result<QueryResult> EvaluateQueryApprox(const Foc1Query& q, const Structure& a,
                                        const EvalOptions& options,
                                        const Observer& obs) {
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  Foc1Query shell = q;
  shell.head_terms.clear();
  EvalOptions exact = options;
  exact.engine = Engine::kLocal;
  Result<QueryResult> rows =
      q.head_vars.size() >= 2 ? EvaluateMultiQueryLocal(shell, a, exact, obs)
                              : EvaluateUnaryQueryLocal(shell, a, exact, obs);
  if (!rows.ok()) return rows;
  if (q.head_terms.empty()) return rows;
  Phase call(obs, {}, "approx-head-terms",
             std::to_string(q.head_terms.size()) + " terms over " +
                 std::to_string(rows.value().rows.size()) + " rows");
  std::optional<EvalContext> local_context;
  Result<const SphereTypeAssignment*> strata =
      PrepareApprox(options, a, call.observer(), &local_context);
  if (!strata.ok()) return strata.status();
  ApproxEvaluator eval(a, options.approx, options.num_threads, *strata,
                       call.observer());
  QueryResult result = std::move(rows.value());
  for (QueryRow& row : result.rows) {
    Env env;
    for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
      env.Bind(q.head_vars[i], row.elements[i]);
    }
    for (const Term& t : q.head_terms) {
      Result<CountInt> v = eval.Evaluate(t, &env);
      if (!v.ok()) return v.status();
      row.counts.push_back(*v);
    }
  }
  return result;
}

}  // namespace

Result<QueryResult> EvaluateQuery(const Foc1Query& q, const Structure& a,
                                  const EvalOptions& options) {
  FOCQ_RETURN_IF_ERROR(q.Validate());
  CallObserver call(options);
  // A query fans out into several plan executions (condition plus one per
  // head term); they share the caller's context — or a query-local one — so
  // one query triggers exactly one Gaifman build and one cover build per
  // (radius, backend).
  std::optional<EvalContext> local_context;
  EvalOptions query_options = options;
  if (UsableContext(options, a) == nullptr) {
    query_options.context = &local_context.emplace(a);
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // One "query" root per call: warm Session batches attribute per query
    // because every call adds its own subtree to the shared sink.
    Phase query(call.obs, "query_eval", "query",
                std::to_string(q.head_vars.size()) + " head vars, " +
                    std::to_string(q.head_terms.size()) +
                    " head terms, condition " + ToString(q.condition));
    const Observer& obs = query.observer();
    if (options.engine == Engine::kNaive) {
      return EvaluateQueryNaive(q, a);
    }
    if (q.head_vars.empty()) {
      // ModelCheck answers the condition exactly under every engine and the
      // ground head terms route through the engine's term path (estimated
      // under Engine::kApprox), so this branch covers all of them.
      Result<bool> holds =
          ModelCheckObserved(q.condition, a, query_options, obs);
      if (!holds.ok()) return holds.status();
      QueryResult result;
      if (*holds) {
        QueryRow row;
        for (const Term& t : q.head_terms) {
          Result<CountInt> v =
              EvaluateGroundTermObserved(t, a, query_options, obs);
          if (!v.ok()) return v.status();
          row.counts.push_back(*v);
        }
        result.rows.push_back(std::move(row));
      }
      return result;
    }
    if (options.engine == Engine::kApprox) {
      return EvaluateQueryApprox(q, a, query_options, obs);
    }
    if (q.head_vars.size() >= 2) {
      return EvaluateMultiQueryLocal(q, a, query_options, obs);
    }
    return EvaluateUnaryQueryLocal(q, a, query_options, obs);
  }();
  // Hand the caller a snapshot of everything the pipeline recorded; rows are
  // computed before the snapshot, so installing a sink cannot change them.
  if (result.ok() && options.metrics != nullptr) {
    result.value().metrics = options.metrics->Snapshot();
  }
  return result;
}

std::vector<Result<QueryResult>> EvaluateQueries(
    std::span<const Foc1Query> queries, const Structure& a,
    const EvalOptions& options) {
  // One context for the whole batch (unless the caller already shares one).
  std::optional<EvalContext> local_context;
  EvalOptions batch_options = options;
  if (UsableContext(options, a) == nullptr) {
    batch_options.context = &local_context.emplace(a);
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(queries.size());
  for (const Foc1Query& q : queries) {
    results.push_back(EvaluateQuery(q, a, batch_options));
  }
  return results;
}

Result<UpdateStats> Session::ApplyUpdate(const TupleUpdate& u) {
  if (mutable_a_ == nullptr) {
    return Status::Unsupported(
        "session is read-only: construct Session(Structure*) to apply "
        "updates");
  }
  Result<UpdateStats> stats =
      context_.ApplyUpdate(mutable_a_, u, options_.observer());
  MaybeSampleOpenMetrics();
  return stats;
}

void Session::MaybeSampleOpenMetrics() {
  if (om_series_ == nullptr) return;
  const std::int64_t now = UnixMillisNow();
  if (om_last_sample_ms_ != 0 && om_min_interval_ms_ > 0 &&
      now - om_last_sample_ms_ < om_min_interval_ms_) {
    return;
  }
  om_last_sample_ms_ = now;
  EvalMetrics snapshot;
  if (options_.metrics != nullptr) snapshot = options_.metrics->Snapshot();
  om_series_->Sample(now, snapshot, options_.progress);
}

}  // namespace focq
