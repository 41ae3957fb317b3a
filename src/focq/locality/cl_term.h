// Connected local terms (Definition 6.2) and their evaluation by local
// exploration (Remark 6.3).
//
// A *basic* cl-term of radius r and width k is
//     #(y1,...,yk). ( psi(y-bar) and delta_{G,2r+1}(y-bar) )
// with G a *connected* pattern graph and psi r-local around y-bar; it is
// "unary" when y1 stays free and "ground" when all variables are counted.
//
// A cl-term is an integer polynomial over basic cl-terms. We keep the
// polynomial in sum-of-monomials normal form, which makes the
// inclusion-exclusion algebra of Lemma 6.4 plain vector arithmetic.
//
// Evaluation (Remark 6.3): because G is connected, every counted tuple lies
// inside the ball of radius R = r + (k-1)(2r+1) around its first element, so
// a unary basic cl-term is evaluated anchor-by-anchor by enumerating pattern
// placements inside (2r+1)-balls, and a ground one by summing the unary
// values over all anchors.
#ifndef FOCQ_LOCALITY_CL_TERM_H_
#define FOCQ_LOCALITY_CL_TERM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "focq/graph/pattern_graph.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/expr.h"
#include "focq/obs/observer.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// A basic cl-term. When `unary` is true, vars[0] is the free variable and
/// vars[1..] are counted; otherwise all vars are counted.
struct BasicClTerm {
  std::vector<Var> vars;   // y1, ..., yk (pairwise distinct)
  bool unary = false;
  Formula kernel;          // psi(y-bar), r-local around y-bar
  std::uint32_t radius = 0;  // r
  PatternGraph pattern;    // connected G on [k]

  int width() const { return static_cast<int>(vars.size()); }

  /// The separation threshold of the delta-pattern: 2r+1.
  std::uint32_t Separation() const { return 2 * radius + 1; }
};

/// An integer polynomial over basic cl-terms:
///   value = sum_m  coeff_m * prod_{i in factors_m} basics[i].
/// Unary basics inside one ClTerm must all share the same free variable.
class ClTerm {
 public:
  struct Monomial {
    CountInt coeff = 0;
    std::vector<int> factors;  // indices into basics(), may repeat
  };

  ClTerm() = default;

  static ClTerm Constant(CountInt c);
  static ClTerm FromBasic(BasicClTerm basic);

  const std::vector<BasicClTerm>& basics() const { return basics_; }
  const std::vector<Monomial>& monomials() const { return monomials_; }

  bool IsZero() const { return monomials_.empty(); }

  /// True iff no basic factor is unary (the term is ground).
  bool IsGround() const;

  /// Polynomial algebra (basics are merged structurally).
  static ClTerm Add(const ClTerm& a, const ClTerm& b);
  static ClTerm Sub(const ClTerm& a, const ClTerm& b);
  static ClTerm Mul(const ClTerm& a, const ClTerm& b);
  static ClTerm Negate(const ClTerm& a);

  /// Total number of basic cl-terms (a size measure for the E4 benchmark).
  std::size_t NumBasics() const { return basics_.size(); }
  std::size_t NumMonomials() const { return monomials_.size(); }

 private:
  /// Returns the index of `basic` in basics_, inserting if new.
  int InternBasic(const BasicClTerm& basic);

  std::vector<BasicClTerm> basics_;
  std::vector<Monomial> monomials_;
};

/// Combines per-factor values into cl-term values: for each of `slots`
/// positions, value = sum_m coeff_m * prod factors. A factor value vector of
/// size 1 is broadcast (ground factor); otherwise it must have `slots`
/// entries. Shared by the ball- and cover-based evaluators.
Result<std::vector<CountInt>> CombineMonomials(
    const ClTerm& term, const std::vector<std::vector<CountInt>>& factor_values,
    std::size_t slots);

/// Evaluates a unary basic cl-term at every element of the universe.
using UnaryBasicEval =
    std::function<Result<std::vector<CountInt>>(const BasicClTerm&)>;

/// Value of a ground basic cl-term: the checked sum of its unary form's
/// values over all anchors (Remark 6.3), those values coming from
/// `unary_all`.
Result<CountInt> EvaluateGroundBasic(const BasicClTerm& basic,
                                     const UnaryBasicEval& unary_all);

/// Values of a cl-term over a `universe_size`-element universe (one slot if
/// the term is ground): every basic factor is evaluated once through
/// `unary_all` (ground ones by EvaluateGroundBasic), then CombineMonomials.
/// The one basics-to-monomials path of the ball- and cover-based engines.
Result<std::vector<CountInt>> EvaluateClTerm(const ClTerm& term,
                                             std::size_t universe_size,
                                             const UnaryBasicEval& unary_all);

/// Cover radius needed so that every tuple counted by `basic` (pattern
/// connected, separation 2r+1, kernel r-local) lies -- with its kernel
/// neighbourhood and all pattern-distance witness paths -- inside the
/// anchor's cluster: k * (2r+1).
std::uint32_t RequiredCoverRadius(const BasicClTerm& basic);

/// Evaluates cl-terms on one structure by local exploration.
///
/// Thread-compatible, not thread-safe (mutable oracle/index caches). The
/// per-anchor loop of EvaluateBasicAll fans out over worker-local
/// evaluators (inline when there is one worker); anchors write disjoint
/// slots, so the result is bit-identical for every thread count.
class ClTermBallEvaluator {
 public:
  /// Exploration-work tally (see DESIGN.md, "Observability"): anchors is the
  /// number of anchored counts, balls the separation-ball fetches feeding
  /// the placement search, placements the full pattern placements whose
  /// kernel was checked. All three are input-determined, hence identical
  /// for every thread count.
  struct ExploreStats {
    std::int64_t anchors = 0;
    std::int64_t balls = 0;
    std::int64_t placements = 0;
  };

  /// `gaifman` must be the Gaifman graph of `structure`. `num_threads`
  /// controls the per-anchor fan-out (0 = all hardware threads, 1 = serial).
  /// EvaluateBasicAll/EvaluateBasicGround flush the clterm.* counters
  /// accumulated during the call into `obs.metrics`; with `obs.progress`
  /// installed those loops advance the kClTerm phase per anchor and poll the
  /// deadline, and a hard expiry makes them return kDeadlineExceeded.
  ClTermBallEvaluator(const Structure& structure, const Graph& gaifman,
                      int num_threads = 1, const Observer& obs = {});

  /// Cumulative exploration work since construction (includes per-call
  /// EvaluateBasicAt work, which has no flush boundary of its own).
  const ExploreStats& explore_stats() const { return explore_stats_; }

  /// Values of a unary basic cl-term at every element of the universe.
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

  /// Value of a unary basic cl-term at one element (pattern placements
  /// anchored at y1 = anchor).
  Result<CountInt> EvaluateBasicAt(const BasicClTerm& basic, ElemId anchor) {
    return CountAnchored(basic, anchor);
  }

  /// Value of a ground basic cl-term (sum over anchors of the unary values).
  Result<CountInt> EvaluateBasicGround(const BasicClTerm& basic);

  /// Value of a ground cl-term.
  Result<CountInt> EvaluateGround(const ClTerm& term);

  /// Values of a (possibly unary) cl-term at every element: unary factors
  /// are evaluated pointwise, ground factors once.
  Result<std::vector<CountInt>> EvaluateAll(const ClTerm& term);

 private:
  /// Core enumeration: counts pattern placements anchored at y1 = anchor and
  /// satisfying the kernel. Appends nothing; returns the count.
  Result<CountInt> CountAnchored(const BasicClTerm& basic, ElemId anchor);

  /// Flushes the ExploreStats delta accumulated since `before` (plus one
  /// basic evaluated) into the metrics sink, if installed.
  void FlushExploreDelta(const ExploreStats& before);

  const Structure& structure_;
  const Graph& gaifman_;
  int num_threads_;
  Observer obs_;
  LocalEvaluator eval_;
  ExploreStats explore_stats_;
  std::unordered_map<std::uint32_t, std::unique_ptr<ClosenessOracle>> oracles_;

  ClosenessOracle& OracleFor(std::uint32_t d);
};

}  // namespace focq

#endif  // FOCQ_LOCALITY_CL_TERM_H_
