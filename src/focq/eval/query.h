// FOC1(P)-queries (Definition 5.2): { (x1,...,xk, t1,...,tl) : phi } returns,
// for every k-tuple a-bar satisfying phi, the tuple extended by the values of
// the counting terms t1,...,tl at a-bar.
//
// Also implements the Section 5 free-variable elimination: turning phi(x-bar)
// and terms t_j(x-bar) at a fixed a-bar into a sentence / ground terms over
// the expansion of A by singleton relations X_i = {a_i}.
#ifndef FOCQ_EVAL_QUERY_H_
#define FOCQ_EVAL_QUERY_H_

#include <vector>

#include "focq/logic/expr.h"
#include "focq/obs/metrics.h"
#include "focq/obs/observer.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// A query { (x-bar, t-bar) : phi }.
struct Foc1Query {
  std::vector<Var> head_vars;   // x1, ..., xk (pairwise distinct)
  std::vector<Term> head_terms; // t1, ..., tl with free(t_j) within head_vars
  Formula condition;            // phi with free(phi) within head_vars

  /// Checks the Definition 5.2 side conditions (distinctness, free-variable
  /// containment, FOC1 membership of phi and the t_j).
  Status Validate() const;
};

/// One output row: the witness tuple plus the term values.
struct QueryRow {
  Tuple elements;                 // a1, ..., ak
  std::vector<CountInt> counts;   // n1, ..., nl

  friend bool operator==(const QueryRow& a, const QueryRow& b) {
    return a.elements == b.elements && a.counts == b.counts;
  }
};

/// Full query result, rows sorted lexicographically by `elements`.
struct QueryResult {
  std::vector<QueryRow> rows;

  /// Snapshot of the metrics sink taken when EvaluateQuery returns, when one
  /// is installed on EvalOptions (empty otherwise). Rows never depend on it.
  EvalMetrics metrics;
};

/// Evaluates `q` on `a` with the naive reference engine, flushing the
/// naive.tuples_enumerated tally into `obs`. With `obs.progress` installed
/// the enumeration polls the deadline; a hard expiry returns
/// kDeadlineExceeded.
Result<QueryResult> EvaluateQueryNaive(const Foc1Query& q, const Structure& a,
                                       const Observer& obs = {});

/// The Section 5 construction: the sigma~-expansion of A interpreting fresh
/// unary symbols X_i by {a_i}, together with the rewritten sentence
///   phi~ = exists x-bar ( /\ X_i(x_i) and phi )
/// and ground terms t~_j (every maximal count subterm theta(x-bar, y-bar) of
/// t_j becomes exists x-bar ( /\ X_i(x_i) and theta )).
struct SentencizedQuery {
  Structure structure;        // A~ (copy of A with the X_i added)
  Formula sentence;           // phi~
  std::vector<Term> ground_terms;  // t~_1, ..., t~_l
  std::vector<std::string> marker_names;  // names of the X_i
};

/// Builds the construction for query `q` at tuple `witness` (|witness| must
/// equal |q.head_vars|).
SentencizedQuery SentencizeAt(const Foc1Query& q, const Structure& a,
                              const Tuple& witness);

}  // namespace focq

#endif  // FOCQ_EVAL_QUERY_H_
