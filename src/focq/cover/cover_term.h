// Cover-based evaluation of cl-terms (Definitions 7.4/7.5 in spirit, step 5
// of the Section 8.2 main algorithm): every basic cl-term is evaluated
// cluster by cluster. For each cluster X the induced substructure A[X] is
// materialised once; every anchor a with X(a) = X counts its pattern
// placements inside A[X]. Because the cover radius dominates
// RequiredCoverRadius(basic), distances up to the separation threshold and
// the kernel's r-neighbourhoods are identical in A and A[X], so the result
// matches the ball-based evaluator exactly (differentially tested).
//
// This realises the paper's "evaluate t(x1) in the structures B_X for all
// X in X" without the rank-preserving type expansions (substitution #3 in
// DESIGN.md).
#ifndef FOCQ_COVER_COVER_TERM_H_
#define FOCQ_COVER_COVER_TERM_H_

#include <vector>

#include "focq/cover/neighborhood_cover.h"
#include "focq/locality/cl_term.h"
#include "focq/structure/incidence.h"

namespace focq {

/// Per-cluster cl-term evaluator.
///
/// Clusters are mutually independent (each anchor is counted in exactly one
/// cluster), so with num_threads > 1 the per-cluster materialisation and
/// evaluation fan out across workers; anchors write disjoint output slots
/// and errors surface in cluster-chunk order, keeping results bit-identical
/// to the serial evaluation.
class ClTermCoverEvaluator {
 public:
  /// `gaifman` must be the Gaifman graph of `structure`; `cover` a
  /// neighbourhood cover of it. All three must outlive the evaluator.
  /// `num_threads`: per-cluster fan-out (0 = all hardware threads).
  /// Per-basic evaluations flush cover_eval.* and clterm.* counters
  /// (clusters materialised, anchors, balls, placements) into `obs.metrics`.
  /// With `obs.progress` installed, EvaluateBasicAll advances the kClTerm
  /// phase per cluster and polls the deadline; a hard expiry makes it return
  /// kDeadlineExceeded.
  ClTermCoverEvaluator(const Structure& structure, const Graph& gaifman,
                       const NeighborhoodCover& cover, int num_threads = 1,
                       const Observer& obs = {});

  /// Values of a unary basic cl-term at every element. The cover's radius
  /// must be at least RequiredCoverRadius(basic).
  /// Ground basics and full cl-terms go through EvaluateGroundBasic and
  /// EvaluateClTerm (locality/cl_term.h) with this as the unary evaluator.
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

 private:
  const Structure& structure_;
  const Graph& gaifman_;
  const NeighborhoodCover& cover_;
  int num_threads_;
  Observer obs_;
  TupleIncidence incidence_;  // makes per-cluster materialisation local
  // anchors_of_cluster_[c]: elements assigned to cluster c.
  std::vector<std::vector<ElemId>> anchors_of_cluster_;
};

}  // namespace focq

#endif  // FOCQ_COVER_COVER_TERM_H_
