#include "focq/core/evaluator.h"

#include <algorithm>
#include <cstdint>

#include "focq/structure/gaifman.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// The residual-evaluation scope of the Check*/Term* entry points: the plan
// and residual explain nodes timed, the residual_eval span open and the
// checked elements counted.
class ResidualPhase {
 public:
  ResidualPhase(const Observer& plan_obs, int residual_node,
                std::size_t elements)
      : plan_(plan_obs, {}, plan_obs.node),
        residual_(plan_obs, "residual_eval", residual_node) {
    plan_obs.Count("residual.elements_checked",
                   static_cast<std::int64_t>(elements));
  }

 private:
  Phase plan_;
  Phase residual_;
};

// The executor's private working copy of the input, timed as its own
// structure_copy span (a fixed per-execution cost that grows with ||A||).
Structure CopyStructure(const Structure& input, const Observer& obs) {
  Phase copy(obs, "structure_copy");
  return input;
}

}  // namespace

PlanExecutor::PlanExecutor(const EvalPlan& plan, const Structure& input,
                           const ExecOptions& options, const Observer& obs,
                           EvalContext* context)
    : plan_(plan),
      options_(options),
      node_ids_(RegisterPlanNodes(obs, plan)),
      obs_(obs),
      structure_(CopyStructure(input, obs)),
      owned_context_(context == nullptr
                         ? std::make_unique<EvalContext>(structure_)
                         : nullptr),
      context_(context != nullptr ? context : owned_context_.get()),
      gaifman_(context_->Gaifman(obs_)) {
  obs_.node = node_ids_.root;
  // High-water footprint of the working copy: grows as marker layers expand
  // it, so it is recorded again after materialisation. Deterministic.
  obs_.Bytes("mem.structure.bytes", structure_.ApproxBytes());
}

Result<const NeighborhoodCover*> PlanExecutor::CoverFor(std::uint32_t radius) {
  CoverBackend backend = options_.term_engine == TermEngine::kExactCover
                             ? CoverBackend::kExact
                             : CoverBackend::kSparse;
  return context_->TryCover(radius, backend, options_.num_threads, obs_);
}

Result<std::vector<CountInt>> PlanExecutor::EvalClTermAll(const ClTerm& term,
                                                          int explain_node) {
  Phase phase(obs_, {}, explain_node);
  if (options_.term_engine == TermEngine::kBall) {
    Phase eval_phase(obs_, "cl_term_eval");
    ClTermBallEvaluator eval(structure_, gaifman_, options_.num_threads, obs_);
    return eval.EvaluateAll(term);
  }
  // Cover engines: one cover per required radius; evaluate factor-wise and
  // combine, so basics of different widths use appropriately-sized covers.
  bool ground = term.IsGround();
  std::size_t slots = ground ? 1 : structure_.universe_size();
  std::vector<std::vector<CountInt>> factor_values;
  factor_values.reserve(term.basics().size());
  for (const BasicClTerm& b : term.basics()) {
    std::uint32_t radius = RequiredCoverRadius(b);
    if (obs_.explain != nullptr) {
      obs_.explain->MaxCounter(explain_node, "cover.radius", radius);
    }
    Result<const NeighborhoodCover*> cover = CoverFor(radius);
    if (!cover.ok()) return cover.status();
    Phase eval_phase(obs_, "cl_term_eval");
    ClTermCoverEvaluator eval(structure_, gaifman_, **cover,
                              options_.num_threads, obs_);
    if (b.unary) {
      Result<std::vector<CountInt>> v = eval.EvaluateBasicAll(b);
      if (!v.ok()) return v.status();
      factor_values.push_back(std::move(*v));
    } else {
      Result<CountInt> v = eval.EvaluateBasicGround(b);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values, slots);
}

Status PlanExecutor::MaterializeLayers() {
  FOCQ_CHECK(!materialized_);
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
          bool holds = eval.Satisfies(def.fallback_formula);
          structure_.AddNullarySymbol(def.name, holds);
        } else {
          // Per-element checks are independent; chunks collect into private
          // vectors that concatenate in chunk order, which — chunks being
          // contiguous ranges — reproduces the serial (sorted) element list.
          const std::size_t n = structure_.universe_size();
          const int workers = EffectiveThreads(options_.num_threads);
          const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
          std::vector<std::vector<ElemId>> chunk_elements(num_chunks);
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
                          if (chunk_eval.Satisfies(def.fallback_formula,
                                                   &env)) {
                            chunk_elements[chunk].push_back(
                                static_cast<ElemId>(a));
                          }
                          obs_.Advance(ProgressPhase::kMaterialize, 1);
                        }
                      });
          if (obs_.Cancelled()) return obs_.progress->DeadlineStatus();
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
    // Marker relations are unary/nullary, so the Gaifman graph is unchanged;
    // gaifman_ stays valid across layers.
  }
  materialized_ = true;
  // The expansion grew the working copy.
  obs_.Bytes("mem.structure.bytes", structure_.ApproxBytes());
  final_eval_ = std::make_unique<LocalEvaluator>(structure_, gaifman_);
  return Status::Ok();
}

Result<bool> PlanExecutor::CheckSentence() {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  FOCQ_CHECK(FreeVars(plan_.final_formula).empty());
  ResidualPhase residual(obs_, node_ids_.residual, 1);
  return final_eval_->Satisfies(plan_.final_formula);
}

Result<bool> PlanExecutor::CheckAt(ElemId a) {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  std::vector<Var> free = FreeVars(plan_.final_formula);
  FOCQ_CHECK_LE(free.size(), 1u);
  ResidualPhase residual(obs_, node_ids_.residual, 1);
  Env env;
  if (!free.empty()) env.Bind(free[0], a);
  return final_eval_->Satisfies(plan_.final_formula, &env);
}

Result<std::vector<bool>> PlanExecutor::CheckAll() {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  const std::size_t n = structure_.universe_size();
  ResidualPhase residual(obs_, node_ids_.residual, n);
  std::vector<Var> free = FreeVars(plan_.final_formula);
  FOCQ_CHECK_LE(free.size(), 1u);
  // std::vector<bool> packs bits, so concurrent writes to distinct indices
  // race; collect into bytes and convert after the join.
  std::vector<std::uint8_t> buffer(n, 0);
  obs_.AddTotal(ProgressPhase::kResidual, static_cast<std::int64_t>(n));
  ParallelFor(options_.num_threads, n,
              [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                LocalEvaluator chunk_eval(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Env env;
                  if (!free.empty()) {
                    env.Bind(free[0], static_cast<ElemId>(a));
                  }
                  buffer[a] = chunk_eval.Satisfies(plan_.final_formula, &env)
                                  ? 1
                                  : 0;
                  obs_.Advance(ProgressPhase::kResidual, 1);
                }
              });
  if (obs_.Cancelled()) return obs_.progress->DeadlineStatus();
  std::vector<bool> out(n, false);
  for (std::size_t a = 0; a < n; ++a) out[a] = buffer[a] != 0;
  return out;
}

Result<CountInt> PlanExecutor::TermValue() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  if (plan_.final_term_decomposed) {
    FOCQ_CHECK(!plan_.final_cl_term_unary);
    Phase plan(obs_, {}, node_ids_.root);
    Result<std::vector<CountInt>> v =
        EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
    if (!v.ok()) return v.status();
    return (*v)[0];
  }
  ResidualPhase residual(obs_, node_ids_.residual, 1);
  return final_eval_->Evaluate(plan_.final_term_residual);
}

Result<std::vector<CountInt>> PlanExecutor::TermValues() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  if (plan_.final_term_decomposed) {
    Phase plan(obs_, {}, node_ids_.root);
    Result<std::vector<CountInt>> v =
        EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
    if (!v.ok()) return v;
    if (!plan_.final_cl_term_unary) {
      // Ground value broadcast to every element.
      return std::vector<CountInt>(structure_.universe_size(), (*v)[0]);
    }
    return v;
  }
  const std::size_t n = structure_.universe_size();
  ResidualPhase residual(obs_, node_ids_.residual, n);
  std::vector<CountInt> out(n, 0);
  const int workers = EffectiveThreads(options_.num_threads);
  const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  obs_.AddTotal(ProgressPhase::kResidual, static_cast<std::int64_t>(n));
  ParallelFor(workers, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                LocalEvaluator chunk_eval(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Env env;
                  env.Bind(plan_.final_free_var, static_cast<ElemId>(a));
                  Result<CountInt> v =
                      chunk_eval.Evaluate(plan_.final_term_residual, &env);
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

}  // namespace focq
