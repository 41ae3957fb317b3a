// The bounded-degree evaluation strategy of Kuske & Schweikardt [16]: on a
// class of degree <= d there are only f(r, d) sphere types of radius r, so
// any r-local unary property or counting term is evaluated once per *type*
// (on the registered representative sphere) instead of once per element.
// This is the baseline the paper generalises away from; bench_hanf measures
// what type-sharing buys on bounded-degree inputs and how it degrades as
// degrees grow (where the paper's machinery takes over).
#ifndef FOCQ_HANF_HANF_EVAL_H_
#define FOCQ_HANF_HANF_EVAL_H_

#include <functional>
#include <optional>

#include "focq/hanf/sphere.h"
#include "focq/locality/cl_term.h"
#include "focq/logic/expr.h"
#include "focq/util/status.h"

namespace focq {

/// Source of radius-r sphere-type partitions. The returned reference must
/// stay valid for the provider's lifetime (EvalContext::SphereTypes does:
/// cached assignments are immutable and never evicted).
using SphereTypeProvider =
    std::function<const SphereTypeAssignment&(std::uint32_t r)>;

/// Type-sharing evaluator over one structure.
///
/// Thread-compatible, not thread-safe. With num_threads > 1 both the sphere
/// extraction (see ComputeSphereTypes) and the per-type evaluation loops fan
/// out across workers; per-type counts reduce in type-id order with checked
/// arithmetic, so results are bit-identical to the serial evaluation.
class HanfEvaluator {
 public:
  /// `gaifman` must be BuildGaifmanGraph(a); both must outlive this object.
  /// `num_threads`: fan-out width (0 = all hardware threads, 1 = serial).
  /// Every typing pass flushes hanf.* counters (types interned, per-type
  /// population) — all input-determined — into `obs.metrics`. With
  /// `obs.progress` installed the per-type loops advance the kHanf phase and
  /// poll the deadline; a hard expiry makes them return kDeadlineExceeded
  /// (it also flows into ComputeSphereTypes when no provider is set).
  HanfEvaluator(const Structure& a, const Graph& gaifman, int num_threads = 1,
                const Observer& obs = {});

  /// Installs a typing cache: when set, every evaluation pulls its sphere
  /// partition from `provider` instead of recomputing it (the EvalContext
  /// re-route — cached typings are bit-identical to recomputed ones, so
  /// results don't change). Per-use hanf.* counters are still recorded on
  /// every evaluation, so they stay cache-state independent.
  void set_sphere_type_provider(SphereTypeProvider provider) {
    provider_ = std::move(provider);
  }

  /// Number of elements satisfying phi(x), where phi must be r-local around
  /// x (checked syntactically: its guarded locality radius must be <= r).
  /// Evaluates phi once per radius-r sphere type.
  Result<CountInt> CountSatisfying(const Formula& phi, Var x, std::uint32_t r);

  /// Values of a unary basic cl-term at every element, evaluated once per
  /// sphere type of radius RequiredCoverRadius(basic) (the anchored count
  /// only depends on that sphere).
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

  /// Sphere-type statistics of the last call (for the E10 benchmark).
  std::size_t last_num_types() const { return last_num_types_; }

 private:
  /// Flushes per-typing hanf.* counters for `types` into the metrics sink.
  void RecordTyping(const SphereTypeAssignment& types);

  /// The radius-r partition: from provider_ when installed, otherwise
  /// computed into `local` (which must outlive the use of the reference).
  const SphereTypeAssignment& TypesFor(std::uint32_t r,
                                       std::optional<SphereTypeAssignment>* local);

  const Structure& a_;
  const Graph& gaifman_;
  int num_threads_;
  Observer obs_;
  SphereTypeProvider provider_;
  std::size_t last_num_types_ = 0;
};

}  // namespace focq

#endif  // FOCQ_HANF_HANF_EVAL_H_
