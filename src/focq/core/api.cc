#include "focq/core/api.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <type_traits>

#include "focq/approx/estimator.h"
#include "focq/eval/naive_eval.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/fragment.h"
#include "focq/logic/printer.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// The EvalContext every plan execution of one top-level call shares: the
// caller's if it caches artifacts of `a`, else `*local` emplaced over `a`.
// Either way a call builds the Gaifman graph and each (radius, backend)
// cover at most once. The pointer comparison makes stale options objects
// degrade to the uncached path instead of serving artifacts of the wrong
// structure.
EvalContext& ResolveContext(const EvalOptions& options, const Structure& a,
                            std::optional<EvalContext>* local) {
  if (options.context != nullptr && &options.context->structure() == &a) {
    return *options.context;
  }
  return local->emplace(a);
}

// One top-level API call, resolved once: the caller's sinks as one Observer
// and the call's EvalContext. When the caller armed a deadline, the sink's
// clock is (re)started here — on a call-local sink when none was installed,
// so `deadline` alone suffices. A query's condition and head-term sub-calls
// share the query's Call, so the budget covers the whole top-level call.
struct Call {
  const Structure& a;
  const EvalOptions& options;
  std::optional<ProgressSink> local_progress;
  std::optional<EvalContext> local_context;
  Observer obs;
  EvalContext& context;

  Call(const Structure& structure, const EvalOptions& call_options)
      : a(structure),
        options(call_options),
        obs(call_options.observer()),
        context(ResolveContext(call_options, structure, &local_context)) {
    if (!options.deadline.armed()) return;
    if (obs.progress == nullptr) obs.progress = &local_progress.emplace();
    obs.progress->ArmDeadline(options.deadline);
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
};

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

// Compiles `expr` (a Formula or a Term) under a "compile" explain node and
// span, records the plan-shape counters (outside the compile node), then
// executes the plan against the call's context: one slot when the residual
// has no free variable, else one per element.
template <typename T>
auto CompileAndExecute(const T& expr, const Call& call, const Observer& obs) {
  constexpr bool kIsTerm = std::is_same_v<T, Term>;
  using Values =
      std::conditional_t<kIsTerm, std::vector<CountInt>, std::vector<bool>>;
  Result<EvalPlan> plan = [&] {
    Phase phase(obs, "compile", "compile", kIsTerm ? "term" : "formula");
    if constexpr (kIsTerm) {
      return CompileTerm(expr, call.a.signature());
    } else {
      return CompileFormula(expr, call.a.signature());
    }
  }();
  if (!plan.ok()) return Result<Values>(plan.status());
  RecordPlanMetrics(*plan, obs);
  const TermEngine engine = call.options.term_engine;
  const int threads = call.options.num_threads;
  if constexpr (kIsTerm) {
    return ExecuteTerm(*plan, call.context, engine, threads, obs);
  } else {
    return ExecuteCheck(*plan, call.context, engine, threads, obs);
  }
}

// With the naive engine the work tally lives on the evaluator; flush it so
// both engines report through the same sink interface.
void FlushNaiveMetrics(const NaiveEvaluator& eval, const Observer& obs) {
  obs.Count("naive.tuples_enumerated", eval.tuples_enumerated());
}

// Validates the (eps, delta) contract and resolves the stratification
// typing (null: unstratified) through the call's EvalContext — a
// cancellable, observed build. The typing is a pure function of
// (structure, radius), so warm and cold runs stratify identically and stay
// bit-identical (DESIGN.md §3f).
Result<const SphereTypeAssignment*> PrepareApprox(const Call& call,
                                                  const Observer& obs) {
  const EvalOptions& options = call.options;
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  const SphereTypeAssignment* unstratified = nullptr;
  if (!options.approx.stratify) return unstratified;
  const std::uint32_t r = options.approx.stratify_radius;
  const bool reused = call.context.CachedSphereTypes(r) != nullptr;
  Result<const SphereTypeAssignment*> typing =
      call.context.TrySphereTypes(r, options.num_threads, obs);
  if (typing.ok()) obs.Count("approx.strata_reused", reused ? 1 : 0);
  return typing;
}

// ModelCheck for a validated sentence, observed under `obs`.
Result<bool> ModelCheckIn(const Formula& sentence, const Call& call,
                          const Observer& obs) {
  Engine engine = call.options.engine;
  if (engine == Engine::kApprox) {
    // Sentences are boolean: there is no count to approximate. Validate the
    // contract anyway (bad knobs fail uniformly across entry points) and
    // answer exactly through the locality pipeline.
    FOCQ_RETURN_IF_ERROR(ValidateApproxParams(call.options.approx));
    engine = Engine::kLocal;
    obs.Count("approx.boolean_exact", 1);
  }
  Phase phase(obs, {}, engine == Engine::kNaive ? "naive-check" : "check",
              ToString(sentence));
  if (engine == Engine::kNaive) {
    Phase naive(phase.observer(), "naive_eval");
    NaiveEvaluator eval(call.a, obs);
    bool holds = eval.Satisfies(sentence);
    FlushNaiveMetrics(eval, obs);
    FOCQ_RETURN_IF_ERROR(eval.status());
    return holds;
  }
  Result<std::vector<bool>> holds =
      CompileAndExecute(sentence, call, phase.observer());
  if (!holds.ok()) return holds.status();
  return (*holds)[0];
}

// EvaluateGroundTerm for a validated ground term, observed under `obs`.
Result<CountInt> GroundTermIn(const Term& t, const Call& call,
                              const Observer& obs) {
  const EvalOptions& options = call.options;
  Phase phase(obs, {},
              options.engine == Engine::kNaive    ? "naive-term"
              : options.engine == Engine::kApprox ? "approx-term"
                                                  : "term",
              ToString(t));
  if (options.engine == Engine::kNaive) {
    Phase naive(phase.observer(), "naive_eval");
    NaiveEvaluator eval(call.a, obs);
    Result<CountInt> v = eval.Evaluate(t);
    FlushNaiveMetrics(eval, obs);
    return v;
  }
  if (options.engine == Engine::kApprox) {
    Phase approx(phase.observer(), "approx_eval");
    Result<const SphereTypeAssignment*> strata =
        PrepareApprox(call, phase.observer());
    if (!strata.ok()) return strata.status();
    ApproxEvaluator eval(call.a, options.approx, options.num_threads, *strata,
                         phase.observer());
    return eval.EvaluateGround(t);
  }
  Result<std::vector<CountInt>> value =
      CompileAndExecute(t, call, phase.observer());
  if (!value.ok()) return value.status();
  return (*value)[0];
}

// The value of a one-or-every-slot result at element `e`.
template <typename T>
T At(const std::vector<T>& values, ElemId e) {
  return values.size() == 1 ? values[0] : values[e];
}

Result<QueryResult> EvaluateUnaryQueryLocal(const Foc1Query& q,
                                            const Call& call,
                                            const Observer& obs) {
  // One free variable: evaluate the condition and every head term for all
  // elements in bulk. They share the call's context, so the Gaifman graph
  // and covers are built once for the whole query.
  Result<std::vector<bool>> sat = [&] {
    Phase cond(obs, {}, "condition", ToString(q.condition));
    return CompileAndExecute(q.condition, call, cond.observer());
  }();
  if (!sat.ok()) return sat.status();

  std::vector<std::vector<CountInt>> term_values;
  for (const Term& t : q.head_terms) {
    Phase term(obs, {}, "head-term", ToString(t));
    Result<std::vector<CountInt>> values =
        CompileAndExecute(t, call, term.observer());
    if (!values.ok()) return values.status();
    term_values.push_back(std::move(*values));
  }
  QueryResult result;
  for (ElemId e = 0; e < call.a.universe_size(); ++e) {
    if (!At(*sat, e)) continue;
    QueryRow row;
    row.elements = {e};
    for (const auto& values : term_values) row.counts.push_back(At(values, e));
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
                                            const Call& call,
                                            const Observer& obs) {
  // The verification evaluators only need the (query-independent) Gaifman
  // graph; pull it from the call's context so a batch builds it once.
  const Structure& a = call.a;
  const Graph& gaifman = call.context.Gaifman(obs);
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
    for (TupleSpan t : a.relation(*id).tuples()) {
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
  const int workers = EffectiveThreads(call.options.num_threads);
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
          const bool holds = eval.Satisfies(q.condition, &env);
          if (!eval.status().ok()) {
            chunk_status[chunk] = eval.status();
            return;
          }
          if (!holds) continue;
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
Result<QueryResult> EvaluateQueryApprox(const Foc1Query& q, const Call& call,
                                        const Observer& obs) {
  const EvalOptions& options = call.options;
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  Foc1Query shell = q;
  shell.head_terms.clear();
  Result<QueryResult> rows = q.head_vars.size() >= 2
                                 ? EvaluateMultiQueryLocal(shell, call, obs)
                                 : EvaluateUnaryQueryLocal(shell, call, obs);
  if (!rows.ok()) return rows;
  if (q.head_terms.empty()) return rows;
  Phase phase(obs, {}, "approx-head-terms",
              std::to_string(q.head_terms.size()) + " terms over " +
                  std::to_string(rows.value().rows.size()) + " rows");
  Result<const SphereTypeAssignment*> strata =
      PrepareApprox(call, phase.observer());
  if (!strata.ok()) return strata.status();
  ApproxEvaluator eval(call.a, options.approx, options.num_threads, *strata,
                       phase.observer());
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

Result<QueryResult> EvaluateQueryIn(const Foc1Query& q, const Call& call) {
  // One "query" root per call: warm Session batches attribute per query
  // because every call adds its own subtree to the shared sink.
  Phase query(call.obs, "query_eval", "query",
              std::to_string(q.head_vars.size()) + " head vars, " +
                  std::to_string(q.head_terms.size()) +
                  " head terms, condition " + ToString(q.condition));
  const Observer& obs = query.observer();
  const Engine engine = call.options.engine;
  if (engine == Engine::kNaive) {
    Phase naive(obs, "naive_eval");
    return EvaluateQueryNaive(q, call.a, naive.observer());
  }
  if (q.head_vars.empty()) {
    // ModelCheck answers the condition exactly under every engine and the
    // ground head terms route through the engine's term path (estimated
    // under Engine::kApprox), so this branch covers all of them.
    Result<bool> holds = ModelCheckIn(q.condition, call, obs);
    if (!holds.ok()) return holds.status();
    QueryResult result;
    if (*holds) {
      QueryRow row;
      for (const Term& t : q.head_terms) {
        Result<CountInt> v = GroundTermIn(t, call, obs);
        if (!v.ok()) return v.status();
        row.counts.push_back(*v);
      }
      result.rows.push_back(std::move(row));
    }
    return result;
  }
  if (engine == Engine::kApprox) return EvaluateQueryApprox(q, call, obs);
  if (q.head_vars.size() >= 2) return EvaluateMultiQueryLocal(q, call, obs);
  return EvaluateUnaryQueryLocal(q, call, obs);
}

}  // namespace

Result<bool> ModelCheck(const Formula& sentence, const Structure& a,
                        const EvalOptions& options) {
  if (!FreeVars(sentence).empty()) {
    return Status::InvalidArgument("ModelCheck expects a sentence");
  }
  FOCQ_RETURN_IF_ERROR(CheckSymbols(sentence, a.signature()));
  Call call(a, options);
  return ModelCheckIn(sentence, call, call.obs);
}

Result<CountInt> EvaluateGroundTerm(const Term& t, const Structure& a,
                                    const EvalOptions& options) {
  if (!FreeVars(t).empty()) {
    return Status::InvalidArgument("EvaluateGroundTerm expects a ground term");
  }
  FOCQ_RETURN_IF_ERROR(CheckSymbols(t, a.signature()));
  Call call(a, options);
  return GroundTermIn(t, call, call.obs);
}

Result<CountInt> CountSolutions(const Formula& phi, const Structure& a,
                                const EvalOptions& options) {
  FOCQ_RETURN_IF_ERROR(CheckSymbols(phi, a.signature()));
  Call call(a, options);
  std::vector<Var> free = FreeVars(phi);
  if (free.empty()) {
    Result<bool> holds = ModelCheckIn(phi, call, call.obs);
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
  return GroundTermIn(Count(free, phi), call, call.obs);
}

Result<QueryResult> EvaluateQuery(const Foc1Query& q, const Structure& a,
                                  const EvalOptions& options) {
  FOCQ_RETURN_IF_ERROR(q.Validate());
  FOCQ_RETURN_IF_ERROR(CheckSymbols(q.condition, a.signature()));
  for (const Term& t : q.head_terms) {
    FOCQ_RETURN_IF_ERROR(CheckSymbols(t, a.signature()));
  }
  // A query fans out into several plan executions (condition plus one per
  // head term); they share the call's context, so one query triggers
  // exactly one Gaifman build and one cover build per (radius, backend).
  Call call(a, options);
  Result<QueryResult> result = EvaluateQueryIn(q, call);
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
  batch_options.context = &ResolveContext(options, a, &local_context);
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
