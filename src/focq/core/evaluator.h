// Plan execution: materialising the marker layers of Theorem 6.10 on a
// working copy of the structure and evaluating the residual formula or term.
// This is steps (1)-(4) of the Section 6.3 evaluation procedure, with the
// basic cl-terms evaluated either by direct ball exploration (Remark 6.3) or
// cluster-by-cluster over a sparse neighbourhood cover (Section 8.2).
#ifndef FOCQ_CORE_EVALUATOR_H_
#define FOCQ_CORE_EVALUATOR_H_

#include <vector>

#include "focq/core/context.h"
#include "focq/core/plan.h"
#include "focq/obs/observer.h"

namespace focq {

/// How basic cl-terms are evaluated.
enum class TermEngine {
  kBall,         // Remark 6.3: per-anchor ball exploration on the full graph
  kSparseCover,  // Section 8.2: per-cluster evaluation over a sparse cover
  kExactCover,   // same, over the exact-ball cover (ablation baseline)
};

/// Executes one compiled plan against `context.structure()`: copies the
/// structure (the caller's is never mutated), materialises the marker layers
/// L_1..L_{d+1} on the copy, then evaluates the residual over one slot when
/// it has no free variable, else at every element of the universe.
///
/// The Gaifman graph and every cover come from `context`, built there on a
/// miss; marker relations are unary/nullary, so they stay valid for the
/// expansion. `num_threads` (0 = all hardware threads) only sets the fan-out
/// of cover builds, cl-term evaluation and the per-element loops: results
/// are bit-identical for every value (DESIGN.md, "Concurrency model"). With
/// `obs.explain` installed the plan is registered as a PlanNode subtree
/// under `obs.node` and every phase attributes its wall time, counter deltas
/// and memory high-water marks to its node. A hard deadline on
/// `obs.progress` makes the call return kDeadlineExceeded.
Result<std::vector<bool>> ExecuteCheck(const EvalPlan& plan,
                                       EvalContext& context,
                                       TermEngine term_engine, int num_threads,
                                       const Observer& obs);

/// The same for a term plan: the ground value, or the value at every
/// element.
Result<std::vector<CountInt>> ExecuteTerm(const EvalPlan& plan,
                                          EvalContext& context,
                                          TermEngine term_engine,
                                          int num_threads,
                                          const Observer& obs);

}  // namespace focq

#endif  // FOCQ_CORE_EVALUATOR_H_
