#include "focq/hanf/hanf_eval.h"

#include "focq/locality/local_eval.h"
#include "focq/logic/printer.h"
#include "focq/structure/gaifman.h"
#include "focq/util/thread_pool.h"

namespace focq {

HanfEvaluator::HanfEvaluator(const Structure& a, const Graph& gaifman,
                             int num_threads, const Observer& obs)
    : a_(a),
      gaifman_(gaifman),
      num_threads_(EffectiveThreads(num_threads)),
      obs_(obs) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), a.universe_size());
}

void HanfEvaluator::RecordTyping(const SphereTypeAssignment& types) {
  if (obs_.metrics == nullptr) return;
  const std::size_t num_types = types.registry.NumTypes();
  obs_.Count("hanf.typings", 1);
  obs_.Count("hanf.sphere_types", static_cast<std::int64_t>(num_types));
  obs_.Count("hanf.typed_elements",
             static_cast<std::int64_t>(a_.universe_size()));
  // One representative evaluation per type is the whole point of
  // type-sharing; elements_per_type records how much each one is shared.
  obs_.Count("hanf.type_evals", static_cast<std::int64_t>(num_types));
  // Aggregate the per-type population distribution locally and fold it into
  // the sink in one MergeValue — same stats as a RecordValue per type, at
  // O(1) sink operations per typing.
  ValueStats populations;
  for (std::size_t id = 0; id < num_types; ++id) {
    populations.Record(
        static_cast<std::int64_t>(types.elements_of_type[id].size()));
  }
  obs_.Value("hanf.elements_per_type", populations);
}

const SphereTypeAssignment& HanfEvaluator::TypesFor(
    std::uint32_t r, std::optional<SphereTypeAssignment>* local) {
  if (provider_) return provider_(r);
  return local->emplace(
      ComputeSphereTypes(a_, gaifman_, r, num_threads_, obs_));
}

Result<CountInt> HanfEvaluator::CountSatisfying(const Formula& phi, Var x,
                                                std::uint32_t r) {
  std::vector<Var> free = FreeVars(phi);
  if (free.size() > 1 || (free.size() == 1 && free[0] != x)) {
    return Status::InvalidArgument(
        "CountSatisfying expects a formula with the single free variable " +
        VarName(x));
  }
  std::optional<std::uint32_t> radius = SyntacticLocalityRadius(phi);
  if (!radius || *radius > r) {
    return Status::Unsupported(
        "formula is not certifiably " + std::to_string(r) +
        "-local: " + ToString(phi));
  }
  std::optional<SphereTypeAssignment> local;
  const SphereTypeAssignment& types = TypesFor(r, &local);
  // A hard deadline during a local typing leaves `types` partial: bail out
  // before reading it (provider-backed typings are always complete).
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  last_num_types_ = types.registry.NumTypes();
  RecordTyping(types);
  const std::size_t num_types = types.registry.NumTypes();
  // Types are mutually independent; evaluate each representative once, then
  // reduce the per-chunk partial counts in chunk order so overflow behaviour
  // and the total match the serial loop exactly.
  const std::size_t num_chunks =
      MakeChunkGrid(num_types, num_threads_).num_chunks;
  std::vector<CountInt> partial(num_chunks, 0);
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  obs_.AddTotal(ProgressPhase::kHanf, static_cast<std::int64_t>(num_types));
  ParallelFor(num_threads_, num_types,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                for (std::size_t id = begin; id < end; ++id) {
                  if (obs_.ShouldStop()) return;
                  const Structure& rep = types.registry.Representative(
                      static_cast<SphereTypeId>(id));
                  Graph rep_gaifman = BuildGaifmanGraph(rep);
                  LocalEvaluator eval(rep, rep_gaifman);
                  bool sat = eval.Satisfies(
                      phi, {{x, types.registry.RepresentativeCenter(
                                    static_cast<SphereTypeId>(id))}});
                  obs_.Advance(ProgressPhase::kHanf, 1);
                  if (!eval.status().ok()) {
                    chunk_status[chunk] = eval.status();
                    return;
                  }
                  if (!sat) continue;
                  auto sum = CheckedAdd(
                      partial[chunk],
                      static_cast<CountInt>(types.elements_of_type[id].size()));
                  if (!sum) {
                    chunk_status[chunk] =
                        Status::OutOfRange("type count overflows int64");
                    return;
                  }
                  partial[chunk] = *sum;
                }
              });
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  CountInt total = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    FOCQ_RETURN_IF_ERROR(chunk_status[c]);
    auto sum = CheckedAdd(total, partial[c]);
    if (!sum) return Status::OutOfRange("type count overflows int64");
    total = *sum;
  }
  return total;
}

Result<std::vector<CountInt>> HanfEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  // The anchored count is determined by the sphere of radius k*(2r+1)
  // around the anchor (tuples stay within (k-1)(2r+1), the kernel needs r
  // more, and pattern-distance witnesses another separation).
  std::uint32_t sphere_radius = RequiredCoverRadius(basic);
  std::optional<SphereTypeAssignment> local;
  const SphereTypeAssignment& types = TypesFor(sphere_radius, &local);
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();  // partial local typing
  }
  last_num_types_ = types.registry.NumTypes();
  RecordTyping(types);

  std::vector<CountInt> out(a_.universe_size(), 0);
  const std::size_t num_types = types.registry.NumTypes();
  // Representatives are spheres of A over its signature: one kernel serves
  // them all, and chunks lease their scratch from a per-call pool.
  const ClTermKernel kernel(basic, a_.signature());
  ClTermScratchPool pool;
  // elements_of_type partitions the universe, so type chunks broadcast into
  // disjoint slots of `out`; errors surface in type-chunk order.
  const std::size_t num_chunks =
      MakeChunkGrid(num_types, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  obs_.AddTotal(ProgressPhase::kHanf, static_cast<std::int64_t>(num_types));
  ParallelFor(num_threads_, num_types,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                ClTermScratchPool::Lease scratch = pool.Acquire();
                ClTermExploreStats chunk_stats;  // Hanf reports no clterm.*
                for (std::size_t id = begin; id < end; ++id) {
                  if (obs_.ShouldStop()) return;
                  const Structure& rep = types.registry.Representative(
                      static_cast<SphereTypeId>(id));
                  Graph rep_gaifman = BuildGaifmanGraph(rep);
                  Result<CountInt> value = kernel.CountAnchored(
                      rep, rep_gaifman,
                      types.registry.RepresentativeCenter(
                          static_cast<SphereTypeId>(id)),
                      scratch.get(), &chunk_stats);
                  if (!value.ok()) {
                    chunk_status[chunk] = value.status();
                    return;
                  }
                  for (ElemId e : types.elements_of_type[id]) out[e] = *value;
                  obs_.Advance(ProgressPhase::kHanf, 1);
                }
              });
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace focq
