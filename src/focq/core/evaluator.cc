#include "focq/core/evaluator.h"

#include <cstdint>

#include "focq/cover/cover_term.h"
#include "focq/locality/local_eval.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// The execution's working copy of the input, timed as its own
// structure_copy span (a fixed per-execution cost that grows with ||A||).
Structure CopyStructure(const Structure& input, const Observer& obs) {
  Phase copy(obs, "structure_copy");
  return input;
}

// One plan execution: the working copy of the context's structure, its
// artifact source and the plan's explain nodes.
class Execution {
 public:
  Execution(const EvalPlan& plan, EvalContext& context, TermEngine term_engine,
            int num_threads, const Observer& obs)
      : plan_(plan),
        term_engine_(term_engine),
        num_threads_(num_threads),
        node_ids_(RegisterPlanNodes(obs, plan)),
        obs_(obs),
        structure_(CopyStructure(context.structure(), obs)),
        context_(context),
        gaifman_(context.Gaifman(obs)) {
    obs_.node = node_ids_.root;
    // High-water footprint of the working copy: grows as marker layers
    // expand it, so it is recorded again after materialisation.
    // Deterministic.
    obs_.Bytes("mem.structure.bytes", structure_.ApproxBytes());
  }

  Status MaterializeMarkers();

  /// The final cl-term of a decomposed term plan: one slot if ground.
  Result<std::vector<CountInt>> FinalClTerm() {
    Phase plan(obs_, {}, node_ids_.root);
    return EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
  }

  /// `eval_at(evaluator, env)` for the residual over one slot when `free`
  /// is empty, else with free[0] bound to every element in turn.
  template <typename EvalAt>
  Result<std::vector<CountInt>> EvalResidual(const std::vector<Var>& free,
                                             const EvalAt& eval_at);

 private:
  Result<std::vector<CountInt>> EvalClTermAll(const ClTerm& term,
                                              int explain_node);

  const EvalPlan& plan_;
  const TermEngine term_engine_;
  const int num_threads_;
  const PlanNodeIds node_ids_;
  // The caller's sinks, charged under the plan's root node.
  Observer obs_;
  Structure structure_;
  EvalContext& context_;
  // Marker relations are unary/nullary, so the Gaifman graph of the input
  // stays the Gaifman graph of every expansion.
  const Graph& gaifman_;
};

Result<std::vector<CountInt>> Execution::EvalClTermAll(const ClTerm& term,
                                                       int explain_node) {
  Phase phase(obs_, {}, explain_node);
  if (term_engine_ == TermEngine::kBall) {
    Phase eval_phase(obs_, "cl_term_eval");
    ClTermBallEvaluator eval(structure_, gaifman_, num_threads_, obs_);
    return eval.EvaluateAll(term);
  }
  // Cover engines: one cover per required radius, so basics of different
  // widths use appropriately-sized covers. A hard deadline during a cover
  // build fails with kDeadlineExceeded (the partial cover is never cached).
  const CoverBackend backend = term_engine_ == TermEngine::kExactCover
                                   ? CoverBackend::kExact
                                   : CoverBackend::kSparse;
  return EvaluateClTerm(
      term, structure_.universe_size(),
      [&](const BasicClTerm& b) -> Result<std::vector<CountInt>> {
        const std::uint32_t radius = RequiredCoverRadius(b);
        if (obs_.explain != nullptr) {
          obs_.explain->MaxCounter(explain_node, "cover.radius", radius);
        }
        Result<const NeighborhoodCover*> cover =
            context_.TryCover(radius, backend, num_threads_, obs_);
        if (!cover.ok()) return cover.status();
        Phase eval_phase(obs_, "cl_term_eval");
        ClTermCoverEvaluator eval(structure_, gaifman_, **cover, num_threads_,
                                  obs_);
        return eval.EvaluateBasicAll(b);
      });
}

Status Execution::MaterializeMarkers() {
  Phase materialize(obs_, "materialize_layers", node_ids_.root);
  std::size_t layer_index = 0;
  for (const auto& layer : plan_.layers) {
    std::size_t l = layer_index++;
    Phase layer_phase(obs_, "layer_" + std::to_string(l), node_ids_.layers[l]);
    std::size_t relation_index = 0;
    for (const LayerRelationDef& def : layer) {
      std::size_t r = relation_index++;
      Phase relation_phase(obs_, {}, node_ids_.relations[l][r]);
      obs_.Count("materialize.marker_relations", 1);
      if (def.fallback) {
        obs_.Count("materialize.fallback_relations", 1);
        // Every element is checked exactly once (arity 0: one sentence
        // check), so the tally is thread-count independent.
        obs_.Count("materialize.fallback_checks",
                   def.arity == 0 ? 1
                                  : static_cast<std::int64_t>(
                                        structure_.universe_size()));
        // Direct evaluation of the original P(t-bar) subformula over the
        // current expansion (whose earlier markers it may mention).
        if (def.arity == 0) {
          LocalEvaluator eval(structure_, gaifman_);
          const bool holds = eval.Satisfies(def.fallback_formula);
          FOCQ_RETURN_IF_ERROR(eval.status());
          structure_.AddNullarySymbol(def.name, holds);
        } else {
          // Per-element checks are independent; chunks collect into private
          // vectors that concatenate in chunk order, which — chunks being
          // contiguous ranges — reproduces the serial (sorted) element list.
          const std::size_t n = structure_.universe_size();
          const int workers = EffectiveThreads(num_threads_);
          const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
          std::vector<std::vector<ElemId>> chunk_elements(num_chunks);
          std::vector<Status> chunk_status(num_chunks, Status::Ok());
          obs_.AddTotal(ProgressPhase::kMaterialize,
                        static_cast<std::int64_t>(n));
          ParallelFor(workers, n,
                      [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
                        LocalEvaluator chunk_eval(structure_, gaifman_);
                        Env env;
                        for (std::size_t a = begin; a < end; ++a) {
                          if (obs_.ShouldStop()) {
                            return;  // hard deadline: drain remaining chunks
                          }
                          env.Bind(def.free_var, static_cast<ElemId>(a));
                          const bool holds =
                              chunk_eval.Satisfies(def.fallback_formula, &env);
                          if (!chunk_eval.status().ok()) {
                            chunk_status[chunk] = chunk_eval.status();
                            return;
                          }
                          if (holds) {
                            chunk_elements[chunk].push_back(
                                static_cast<ElemId>(a));
                          }
                          obs_.Advance(ProgressPhase::kMaterialize, 1);
                        }
                      });
          if (obs_.Cancelled()) return obs_.progress->DeadlineStatus();
          for (const Status& s : chunk_status) FOCQ_RETURN_IF_ERROR(s);
          std::vector<ElemId> elements;
          for (const auto& part : chunk_elements) {
            elements.insert(elements.end(), part.begin(), part.end());
          }
          structure_.AddUnarySymbol(def.name, elements);
        }
        continue;
      }
      // Fast path: evaluate the cl-term arguments, apply the P-oracle.
      std::vector<std::vector<CountInt>> arg_values;
      arg_values.reserve(def.args.size());
      for (std::size_t a = 0; a < def.args.size(); ++a) {
        Result<std::vector<CountInt>> v =
            EvalClTermAll(def.args[a], node_ids_.args[l][r][a]);
        if (!v.ok()) return v.status();
        arg_values.push_back(std::move(*v));
      }
      std::vector<CountInt> oracle_args(def.args.size());
      if (def.arity == 0) {
        for (std::size_t i = 0; i < arg_values.size(); ++i) {
          FOCQ_CHECK_EQ(arg_values[i].size(), 1u);
          oracle_args[i] = arg_values[i][0];
        }
        structure_.AddNullarySymbol(def.name, def.pred->Holds(oracle_args));
      } else {
        std::vector<ElemId> elements;
        for (ElemId a = 0; a < structure_.universe_size(); ++a) {
          for (std::size_t i = 0; i < arg_values.size(); ++i) {
            oracle_args[i] =
                arg_values[i].size() == 1 ? arg_values[i][0] : arg_values[i][a];
          }
          if (def.pred->Holds(oracle_args)) elements.push_back(a);
        }
        structure_.AddUnarySymbol(def.name, elements);
      }
    }
  }
  // The expansion grew the working copy.
  obs_.Bytes("mem.structure.bytes", structure_.ApproxBytes());
  return Status::Ok();
}

template <typename EvalAt>
Result<std::vector<CountInt>> Execution::EvalResidual(
    const std::vector<Var>& free, const EvalAt& eval_at) {
  FOCQ_CHECK_LE(free.size(), 1u);
  const std::size_t slots = free.empty() ? 1 : structure_.universe_size();
  Phase plan(obs_, {}, node_ids_.root);
  Phase residual(obs_, "residual_eval", node_ids_.residual);
  obs_.Count("residual.elements_checked", static_cast<std::int64_t>(slots));
  std::vector<CountInt> out(slots, 0);
  const int workers = EffectiveThreads(num_threads_);
  const std::size_t num_chunks = MakeChunkGrid(slots, workers).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  obs_.AddTotal(ProgressPhase::kResidual, static_cast<std::int64_t>(slots));
  ParallelFor(workers, slots,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                LocalEvaluator chunk_eval(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Env env;
                  if (!free.empty()) env.Bind(free[0], static_cast<ElemId>(a));
                  Result<CountInt> v = eval_at(chunk_eval, &env);
                  if (!v.ok()) {
                    chunk_status[chunk] = v.status();
                    return;
                  }
                  out[a] = *v;
                  obs_.Advance(ProgressPhase::kResidual, 1);
                }
              });
  if (obs_.Cancelled()) return obs_.progress->DeadlineStatus();
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace

Result<std::vector<bool>> ExecuteCheck(const EvalPlan& plan,
                                       EvalContext& context,
                                       TermEngine term_engine, int num_threads,
                                       const Observer& obs) {
  FOCQ_CHECK(!plan.is_term);
  Execution exec(plan, context, term_engine, num_threads, obs);
  FOCQ_RETURN_IF_ERROR(exec.MaterializeMarkers());
  Result<std::vector<CountInt>> holds = exec.EvalResidual(
      FreeVars(plan.final_formula),
      [&](LocalEvaluator& eval, Env* env) -> Result<CountInt> {
        const bool holds = eval.Satisfies(plan.final_formula, env);
        FOCQ_RETURN_IF_ERROR(eval.status());
        return holds ? 1 : 0;
      });
  if (!holds.ok()) return holds.status();
  return std::vector<bool>(holds->begin(), holds->end());
}

Result<std::vector<CountInt>> ExecuteTerm(const EvalPlan& plan,
                                          EvalContext& context,
                                          TermEngine term_engine,
                                          int num_threads,
                                          const Observer& obs) {
  FOCQ_CHECK(plan.is_term);
  Execution exec(plan, context, term_engine, num_threads, obs);
  FOCQ_RETURN_IF_ERROR(exec.MaterializeMarkers());
  if (plan.final_term_decomposed) return exec.FinalClTerm();
  return exec.EvalResidual(
      FreeVars(plan.final_term_residual),
      [&](LocalEvaluator& eval, Env* env) {
        return eval.Evaluate(plan.final_term_residual, env);
      });
}

}  // namespace focq
