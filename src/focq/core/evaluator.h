// Plan execution: materialising the marker layers of Theorem 6.10 on a
// working copy of the structure and evaluating the residual formula or term.
// This is steps (1)-(4) of the Section 6.3 evaluation procedure, with the
// basic cl-terms evaluated either by direct ball exploration (Remark 6.3) or
// cluster-by-cluster over a sparse neighbourhood cover (Section 8.2).
#ifndef FOCQ_CORE_EVALUATOR_H_
#define FOCQ_CORE_EVALUATOR_H_

#include <memory>

#include "focq/core/context.h"
#include "focq/core/plan.h"
#include "focq/cover/cover_term.h"
#include "focq/cover/neighborhood_cover.h"
#include "focq/locality/local_eval.h"
#include "focq/obs/observer.h"

namespace focq {

/// How basic cl-terms are evaluated.
enum class TermEngine {
  kBall,         // Remark 6.3: per-anchor ball exploration on the full graph
  kSparseCover,  // Section 8.2: per-cluster evaluation over a sparse cover
  kExactCover,   // same, over the exact-ball cover (ablation baseline)
};

struct ExecOptions {
  TermEngine term_engine = TermEngine::kBall;
  // Worker threads for cover construction, cl-term evaluation and the
  // residual per-element loops (0 = all hardware threads, 1 = serial).
  // Results are bit-identical for every value (see DESIGN.md, "Concurrency
  // model").
  int num_threads = 1;
};

/// Executes one plan against one structure.
class PlanExecutor {
 public:
  /// Copies `input`; the expansion never mutates the caller's structure.
  /// With `obs.explain` installed the plan is registered as a PlanNode
  /// subtree under `obs.node` and every phase attributes its wall time,
  /// counter deltas and memory high-water marks to its node. With an armed
  /// deadline on `obs.progress`, a hard expiry drains the current fan-out
  /// and the executor returns kDeadlineExceeded instead of a result.
  /// With `context` null the executor owns a private EvalContext over its
  /// copy (the standalone one-shot path). A non-null `context` — which must
  /// cache artifacts of `input` — is shared: the Gaifman graph and every
  /// cover are pulled from it instead of being rebuilt, which is how a
  /// Session amortises them across queries. Marker relations materialised by
  /// the plan are unary/nullary, so the cached graph and covers stay valid
  /// for the expansion as well.
  PlanExecutor(const EvalPlan& plan, const Structure& input,
               const ExecOptions& options, const Observer& obs,
               EvalContext* context = nullptr);

  /// Materialises all marker layers. Must be called (once) before the
  /// queries below.
  Status MaterializeLayers();

  /// The expanded structure (valid after MaterializeLayers()).
  const Structure& expanded() const { return structure_; }

  /// Residual-formula plans: evaluation as a sentence, at one element, or at
  /// every element of the universe.
  Result<bool> CheckSentence();
  Result<bool> CheckAt(ElemId a);
  Result<std::vector<bool>> CheckAll();

  /// Residual-term plans.
  Result<CountInt> TermValue();                  // ground
  Result<std::vector<CountInt>> TermValues();    // unary: value per element

  /// The explain node of this executor's plan (-1 when no sink installed).
  int explain_root() const { return node_ids_.root; }

 private:
  Result<std::vector<CountInt>> EvalClTermAll(const ClTerm& term,
                                              int explain_node);
  /// The cover for `radius` under the configured backend, from the cache.
  /// Fails with kDeadlineExceeded when the hard deadline fires during the
  /// build (the partial artifact is discarded, never cached).
  Result<const NeighborhoodCover*> CoverFor(std::uint32_t radius);

  const EvalPlan& plan_;
  ExecOptions options_;
  PlanNodeIds node_ids_;
  // The caller's sinks, charged under the plan's root node.
  Observer obs_;
  Structure structure_;
  // Artifact source. owned_context_ is set only on the standalone path and
  // borrows structure_ (covers derive from the cached Gaifman graph, which
  // is built before any marker mutation and unaffected by it).
  std::unique_ptr<EvalContext> owned_context_;
  EvalContext* context_;
  const Graph& gaifman_;
  bool materialized_ = false;
  std::unique_ptr<LocalEvaluator> final_eval_;
};

}  // namespace focq

#endif  // FOCQ_CORE_EVALUATOR_H_
