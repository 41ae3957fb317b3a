// The distance-pattern formulas delta_{G,r}(y-bar) of Section 6.1 and their
// semantic counterpart: classifying a tuple a-bar by its closeness graph
// G_{a-bar,r} (edge {i,j} iff dist_A(a_i, a_j) <= r). Every k-tuple satisfies
// delta_{G,r} for exactly one pattern graph G.
#ifndef FOCQ_LOCALITY_DELTA_H_
#define FOCQ_LOCALITY_DELTA_H_

#include <cstdint>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/graph/pattern_graph.h"
#include "focq/logic/expr.h"
#include "focq/structure/structure.h"

namespace focq {

/// The symbolic formula delta_{G,r}(vars): the conjunction of
/// dist(y_i, y_j) <= r for edges of G and their negations for non-edges.
Formula DeltaFormula(const PatternGraph& g, std::uint32_t r,
                     const std::vector<Var>& vars);

/// Computes the closeness graph G_{a-bar,r} semantically. `explorer` must
/// wrap the Gaifman graph of the structure the tuple lives in.
PatternGraph ClosenessGraph(BallExplorer* explorer, const Tuple& a,
                            std::uint32_t r);

/// Pairwise-distance helper of the guard-aware LocalEvaluator: caches the
/// sorted r-ball of each queried element so repeated closeness tests against
/// the same anchors are cheap.
class ClosenessOracle {
 public:
  ClosenessOracle(const Graph& gaifman, std::uint32_t r);

  /// True iff dist(a, b) <= r.
  bool Close(ElemId a, ElemId b);

  /// The sorted r-ball of `a` (cached).
  const std::vector<ElemId>& BallOf(ElemId a);

  std::uint32_t radius() const { return r_; }

 private:
  const Graph& gaifman_;
  std::uint32_t r_;
  BallExplorer explorer_;
  // Tiny LRU of size 2k-ish would do; a map keyed by element is simpler and
  // bounded by the number of distinct anchors the enumeration touches.
  std::vector<std::vector<ElemId>> cache_;
  std::vector<bool> cached_;
};

}  // namespace focq

#endif  // FOCQ_LOCALITY_DELTA_H_
