// The reference evaluator: a direct implementation of the FOC(P) semantics of
// Definition 3.1 (plus FO+ distance atoms). Exponential in the query (each
// quantifier / counting binder loops over the whole universe), polynomial in
// the data with degree = width. This is the ground truth every optimised
// engine in focq is differential-tested against.
#ifndef FOCQ_EVAL_NAIVE_EVAL_H_
#define FOCQ_EVAL_NAIVE_EVAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/logic/expr.h"
#include "focq/obs/observer.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// A partial assignment beta restricted to the variables a query mentions.
class Env {
 public:
  bool IsBound(Var v) const {
    return v < bound_.size() && bound_[v];
  }
  ElemId Get(Var v) const {
    FOCQ_CHECK(IsBound(v));
    return values_[v];
  }
  void Bind(Var v, ElemId e) {
    if (v >= bound_.size()) {
      bound_.resize(v + 1, false);
      values_.resize(v + 1, 0);
    }
    bound_[v] = true;
    values_[v] = e;
  }
  void Unbind(Var v) {
    FOCQ_CHECK(IsBound(v));
    bound_[v] = false;
  }

 private:
  std::vector<bool> bound_;
  std::vector<ElemId> values_;
};

/// Evaluates FOC(P) expressions on one fixed structure.
///
/// Thread-compatible (const structure, mutable caches); not thread-safe.
class NaiveEvaluator {
 public:
  /// With `obs.progress` installed, the counting odometer and the
  /// quantifier loops advance the kNaive phase and poll the deadline; a hard
  /// expiry drains them and makes Evaluate / CountSolutions return
  /// kDeadlineExceeded. After a Satisfies call the caller must consult
  /// status() — the bool has no error channel.
  explicit NaiveEvaluator(const Structure& structure,
                          const Observer& obs = {});

  const Structure& structure() const { return structure_; }

  /// [[phi]]^(A, beta) for a formula. All free variables of `f` must be
  /// bound in `env`. The result is meaningless unless status() is OK
  /// afterwards.
  bool Satisfies(const Formula& f, Env* env);

  /// Convenience: sentences.
  bool Satisfies(const Formula& sentence);

  /// Convenience: phi[a-bar] with an explicit binding.
  bool Satisfies(const Formula& f,
                 const std::vector<std::pair<Var, ElemId>>& binding);

  /// [[t]]^(A, beta); OutOfRange on int64 overflow, including the overflow
  /// of a numerical-predicate argument inside a counted formula.
  Result<CountInt> Evaluate(const Term& t, Env* env);
  Result<CountInt> Evaluate(const Term& ground_term);
  Result<CountInt> Evaluate(const Term& t,
                            const std::vector<std::pair<Var, ElemId>>& binding);

  /// The counting problem |phi(A)|: number of |free(phi)|-tuples satisfying
  /// phi (Corollary 5.6's task). Free variables are taken in sorted order.
  Result<CountInt> CountSolutions(const Formula& f);

  /// Parallel variant: fans the first (sorted) free variable out across
  /// worker threads, each counting with a private evaluator; partial counts
  /// reduce in chunk order, so the result — including overflow behaviour —
  /// is bit-identical to the serial count. num_threads: 0 = all hardware
  /// threads, <= 1 or a sentence falls back to the serial path.
  Result<CountInt> CountSolutions(const Formula& f, int num_threads);

  /// Candidate bindings tried by quantifier and counting loops since
  /// construction (the naive engine's work measure; see DESIGN.md,
  /// "Observability"). Parallel CountSolutions folds the per-worker tallies
  /// back in, so the total is identical for every thread count.
  std::int64_t tuples_enumerated() const { return tuples_enumerated_; }

  /// The error of the last Satisfies/Evaluate, whose return value must then
  /// be discarded: kDeadlineExceeded when it drained on a hard deadline,
  /// kOutOfRange when a numerical-predicate argument overflowed int64, else
  /// OK.
  Status status() const;

 private:
  bool EvalFormula(const Expr& e, Env* env);
  std::optional<CountInt> EvalTerm(const Expr& e, Env* env);

  SymbolId ResolveAtom(const Expr& e);
  const Graph& GaifmanGraph();

  const Structure& structure_;
  std::unordered_map<std::string, SymbolId> atom_cache_;
  std::unique_ptr<Graph> gaifman_;           // built on first distance atom
  std::unique_ptr<BallExplorer> explorer_;
  bool overflow_ = false;
  bool stopped_ = false;
  Observer obs_;
  std::int64_t tuples_enumerated_ = 0;
  Tuple scratch_tuple_;
  std::vector<CountInt> scratch_args_;
};

}  // namespace focq

#endif  // FOCQ_EVAL_NAIVE_EVAL_H_
