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
// placements inside small balls, and a ground one by summing the unary
// values over all anchors.
//
// Each basic is compiled once per evaluation call into a ClTermKernel: the
// placement order (BFS over G from y1) with each position's parent,
// resolved symbol ids, dense variable slots and one node per construct of
// the guarded FO+ fragment. Candidate-radius rule: position y_i draws its
// candidates from the smallest ball a placed variable implies, i.e. the
// minimum of
//   * the (2r+1)-ball around its BFS parent (G has the edge), and
//   * the d-ball around y_j for every top-level kernel conjunct
//     dist(y_j, y_i) <= d with y_j placed earlier, G having the edge
//     {j, i}, and d < 2r+1.
// Every pattern (closeness/non-closeness) test and every kernel conjunct
// that the drawing ball does not already imply still runs. Anchors run on
// a ClTermScratch (a BallExplorer per slot, a slot array), so nothing
// is allocated per anchor or per placement once the scratch has grown.
#ifndef FOCQ_LOCALITY_CL_TERM_H_
#define FOCQ_LOCALITY_CL_TERM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/graph/graph.h"
#include "focq/graph/pattern_graph.h"
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

/// Exploration-work tally (see DESIGN.md, "Observability"): anchors is the
/// number of anchored counts, balls the candidate-ball fetches feeding the
/// placement search, placements the full pattern placements whose kernel
/// was checked. All three are input-determined, hence identical for every
/// thread count.
struct ClTermExploreStats {
  std::int64_t anchors = 0;
  std::int64_t balls = 0;
  std::int64_t placements = 0;
};

class ClTermScratch;

/// A basic cl-term compiled for anchored counting over structures with one
/// signature (see the header comment for the candidate-radius rule). The
/// kernel must lie in the guarded FO+ fragment of SyntacticLocalityRadius;
/// an unguarded quantifier is also accepted and sweeps the universe. The
/// kernel's free variables must be among the basic's. Immutable, so one
/// kernel is shared read-only by every chunk of an evaluation.
class ClTermKernel {
 public:
  /// Compiles `basic`, with vars[0] as the anchor whatever its `unary`
  /// flag, against the symbol ids of `sig`.
  ClTermKernel(const BasicClTerm& basic, const Signature& sig);

  /// Counts the placements anchored at y1 = `anchor` in `structure`, whose
  /// Gaifman graph is `gaifman`, on `scratch`; adds the work to `stats`.
  /// kOutOfRange when the count overflows int64.
  Result<CountInt> CountAnchored(const Structure& structure,
                                 const Graph& gaifman, ElemId anchor,
                                 ClTermScratch* scratch,
                                 ClTermExploreStats* stats) const;

 private:
  friend class KernelRun;

  enum class Op : std::uint8_t {
    kTrue,
    kFalse,
    kEqual,          // slot a = slot b
    kAtom,           // symbol(args_[first, first + count))
    kUnknownSymbol,  // an atom the signature cannot resolve: fails if reached
    kDist,           // dist(slot a, slot b) <= d, read from a's ball
    kNot,            // kids_[first]
    kAnd,            // kids_[first, first + count)
    kOr,
    kExists,  // slot a ranges over the d-ball of slot b (guarded) or the
    kForall,  // universe; body kids_[first]
  };
  struct Node {
    Op op = Op::kTrue;
    bool guarded = false;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t d = 0;
    SymbolId symbol = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  // One placement step after the anchor: the slot placed, the slot whose
  // ball supplies its candidates and the candidate radius, and the
  // closeness tests against earlier slots (slot, must be close).
  struct Position {
    std::uint32_t slot = 0;
    std::uint32_t source = 0;
    std::uint32_t radius = 0;
    std::vector<std::pair<std::uint32_t, bool>> tests;
  };

  // Variables in scope, innermost last, with their slots.
  using Scope = std::vector<std::pair<Var, std::uint32_t>>;

  std::uint32_t CompileNode(const Expr& e, Scope* scope, const Signature& sig);
  std::uint32_t AddNode(const Node& node);
  // Orders the children of a conjunction or disjunction so that tests
  // reading arrays only (constants, equality, unary atoms) run before those
  // that probe a relation's hash index, walk a ball or sweep a quantifier:
  // a cheap false conjunct (true disjunct) then skips the costly ones. The
  // order does not change the value.
  void CheapFirst(std::vector<std::uint32_t>* kids) const;
  void NeedBall(std::uint32_t slot, std::uint32_t radius);

  std::uint32_t separation_ = 1;
  std::vector<Position> positions_;  // placement order[1..k-1]
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> kids_;
  std::vector<std::uint32_t> args_;
  std::uint32_t root_ = 0;
  std::uint32_t max_arity_ = 0;
  // Per slot (pattern slots 0..k-1, then one per quantifier): its binding
  // depth and the radius of the ball around its value (the largest any
  // reader needs).
  std::vector<std::uint32_t> binding_depth_;
  std::vector<std::uint32_t> ball_radius_;
};

/// Reusable evaluation state for ClTermKernel::CountAnchored: one
/// BallExplorer and one value per slot, and an atom-argument buffer. It grows
/// to the largest kernel and graph it has served and is never cleared per
/// anchor. Not thread-safe: one scratch per concurrently running chunk.
class ClTermScratch {
 private:
  friend class KernelRun;

  std::vector<BallExplorer> balls_;
  std::vector<ElemId> values_;
  std::vector<std::uint8_t> ball_ready_;
  std::vector<ElemId> args_;
};

/// A small free list of scratch for one evaluation call: a chunk acquires a
/// lease at its start and returns it at its end, so at most one scratch
/// exists per concurrently running chunk. Thread-safe.
class ClTermScratchPool {
 public:
  class Lease {
   public:
    explicit Lease(ClTermScratchPool* pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ClTermScratch* get() const { return scratch_.get(); }

   private:
    ClTermScratchPool* pool_;
    std::unique_ptr<ClTermScratch> scratch_;
  };

  Lease Acquire() { return Lease(this); }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ClTermScratch>> free_;
};

/// Evaluates cl-terms on one structure by local exploration.
///
/// EvaluateBasicAll compiles the basic once, then fans its per-anchor loop
/// out over ParallelFor chunks that draw scratch from a per-call pool;
/// anchors write disjoint slots, so the result is bit-identical for every
/// thread count. The evaluator itself holds no mutable state.
class ClTermBallEvaluator {
 public:
  /// `gaifman` must be the Gaifman graph of `structure`. `num_threads`
  /// controls the per-anchor fan-out (0 = all hardware threads, 1 = serial).
  /// EvaluateBasicAll/EvaluateBasicGround flush the clterm.* counters
  /// accumulated during the call into `obs.metrics`; with `obs.progress`
  /// installed those loops advance the kClTerm phase per anchor and poll the
  /// deadline, and a hard expiry makes them return kDeadlineExceeded.
  ClTermBallEvaluator(const Structure& structure, const Graph& gaifman,
                      int num_threads = 1, const Observer& obs = {});

  /// Values of a unary basic cl-term at every element of the universe.
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

  /// Value of a ground basic cl-term (sum over anchors of the unary values).
  Result<CountInt> EvaluateBasicGround(const BasicClTerm& basic);

  /// Value of a ground cl-term.
  Result<CountInt> EvaluateGround(const ClTerm& term);

  /// Values of a (possibly unary) cl-term at every element: unary factors
  /// are evaluated pointwise, ground factors once.
  Result<std::vector<CountInt>> EvaluateAll(const ClTerm& term);

 private:
  const Structure& structure_;
  const Graph& gaifman_;
  int num_threads_;
  Observer obs_;
};

}  // namespace focq

#endif  // FOCQ_LOCALITY_CL_TERM_H_
