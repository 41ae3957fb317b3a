// Compilation of FOC1(P) expressions into layered evaluation plans -- the
// constructive content of the Decomposition Theorem 6.10.
//
// The compiler repeatedly takes the *innermost* numerical-predicate
// subformulas P(t1,...,tm) (which by FOC1 have at most one free variable z),
// decomposes every counting term inside them into cl-terms (Lemma 6.4 via
// focq/locality/decompose.h), and replaces the subformula by a fresh unary or
// nullary marker relation R with iota(R) = P(cl-terms). One compiler
// iteration corresponds to one layer L_i of Theorem 6.10. What remains at
// the end is a counting-free formula over the extended signature (evaluated
// by LocalEvaluator) or a ground/unary cl-term.
//
// Subformulas whose counting terms fall outside the guarded fragment are
// compiled into *fallback* layer relations that the executor materialises by
// direct evaluation -- the plan stays total on all of FOC1(P), and the
// `fallback` flags record how much of the query took the fast path.
#ifndef FOCQ_CORE_PLAN_H_
#define FOCQ_CORE_PLAN_H_

#include <string>
#include <vector>

#include "focq/locality/cl_term.h"
#include "focq/logic/expr.h"
#include "focq/obs/observer.h"
#include "focq/util/status.h"

namespace focq {

/// One marker relation of one layer: R with iota(R) = pred(args...), or a
/// fallback definition evaluated directly.
struct LayerRelationDef {
  std::string name;
  int arity = 0;              // 0 or 1
  Var free_var = 0;           // meaningful when arity == 1
  PredicateRef pred;          // null for fallback definitions
  std::vector<ClTerm> args;   // one per predicate argument (fast path)
  bool fallback = false;
  Formula fallback_formula;   // the original P(t-bar) subformula (fallback)
};

/// The compiled plan.
struct EvalPlan {
  std::vector<std::vector<LayerRelationDef>> layers;

  // Exactly one of the following shapes applies:
  bool is_term = false;

  // Formula input: the residual counting-free formula over sigma + markers.
  Formula final_formula;

  // Term input: either a decomposed cl-term (fast path) ...
  bool final_term_decomposed = false;
  ClTerm final_cl_term;
  bool final_cl_term_unary = false;
  Var final_free_var = 0;
  // ... or a residual term evaluated directly over the expanded structure.
  Term final_term_residual;

  /// Plan statistics (for the E4 benchmark and EXPERIMENTS.md).
  struct Stats {
    std::size_t num_layers = 0;
    std::size_t num_relations = 0;
    std::size_t num_fallback_relations = 0;
    std::size_t num_basic_cl_terms = 0;
    int max_width = 0;
    std::uint32_t max_radius = 0;
  };
  Stats ComputeStats() const;
};

/// The explain-node ids of one registered plan, mirroring its shape. Every
/// instrumentation site of the executor charges one of these ids (see
/// obs/explain.h); id -1 (the value everywhere when no sink is installed)
/// makes the charge a no-op, so the executor indexes unconditionally.
struct PlanNodeIds {
  int root = -1;                           // the "plan" node itself
  std::vector<int> layers;                 // one per layer
  std::vector<std::vector<int>> relations;  // [layer][relation]
  std::vector<std::vector<std::vector<int>>> args;  // [layer][rel][cl-term]
  int residual = -1;  // residual formula / final term node
};

/// Materialises `plan` as PlanNodes of `obs.explain` under `obs.node` (-1:
/// a new root) and returns the id map. With a null sink the map is fully
/// populated with -1 ids, so callers index it the same way either path.
PlanNodeIds RegisterPlanNodes(const Observer& obs, const EvalPlan& plan);

/// Compiles a formula with at most one free variable. The signature is used
/// to generate fresh marker names.
Result<EvalPlan> CompileFormula(const Formula& f, const Signature& sig);

/// Compiles a ground or unary counting term.
Result<EvalPlan> CompileTerm(const Term& t, const Signature& sig);

}  // namespace focq

#endif  // FOCQ_CORE_PLAN_H_
