#include "focq/cover/cover_term.h"

#include "focq/structure/gaifman.h"
#include "focq/structure/incidence.h"
#include "focq/structure/neighborhood.h"
#include "focq/util/thread_pool.h"

namespace focq {

ClTermCoverEvaluator::ClTermCoverEvaluator(const Structure& structure,
                                           const Graph& gaifman,
                                           const NeighborhoodCover& cover,
                                           int num_threads,
                                           const Observer& obs)
    : structure_(structure),
      gaifman_(gaifman),
      cover_(cover),
      num_threads_(EffectiveThreads(num_threads)),
      obs_(obs),
      incidence_(structure) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), structure.universe_size());
  FOCQ_CHECK_EQ(cover.assignment.size(), structure.universe_size());
  anchors_of_cluster_.resize(cover.NumClusters());
  for (ElemId a = 0; a < cover.assignment.size(); ++a) {
    anchors_of_cluster_[cover.assignment[a]].push_back(a);
  }
}

Result<std::vector<CountInt>> ClTermCoverEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  FOCQ_CHECK_GE(cover_.r, RequiredCoverRadius(basic));
  std::vector<CountInt> out(structure_.universe_size(), 0);
  // Clusters are induced substructures over the same signature, so one
  // kernel serves them all; chunks lease their scratch from a per-call pool.
  const ClTermKernel kernel(basic, structure_.signature());
  ClTermScratchPool pool;
  const std::size_t num_clusters = cover_.NumClusters();
  const std::size_t num_chunks =
      MakeChunkGrid(num_clusters, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  // Exploration work tallied per chunk and flushed after the join (the
  // ShardedCounter protocol); all five quantities are input-determined.
  ShardedCounter clusters_materialized(num_chunks);
  ShardedCounter cluster_elements(num_chunks);
  ShardedCounter anchors(num_chunks);
  ShardedCounter balls(num_chunks);
  ShardedCounter placements(num_chunks);
  // Per-cluster local evaluation (Theorem 5.5's embarrassingly parallel
  // core): every anchor belongs to exactly one cluster, so chunks write
  // disjoint slots of `out`; shared state (structure, gaifman, incidence,
  // cover, kernel) is only read.
  obs_.AddTotal(ProgressPhase::kClTerm,
                static_cast<std::int64_t>(num_clusters));
  ParallelFor(
      num_threads_, num_clusters,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ClTermScratchPool::Lease scratch = pool.Acquire();
        ClTermExploreStats stats;
        for (std::size_t c = begin; c < end; ++c) {
          if (obs_.ShouldStop()) return;  // drain on hard deadline
          obs_.Advance(ProgressPhase::kClTerm, 1);
          if (anchors_of_cluster_[c].empty()) continue;
          // Materialise B_X = A[X] once per cluster (only local tuples).
          SubstructureView view =
              InducedViewFast(incidence_, cover_.clusters[c]);
          Graph sub_gaifman = BuildGaifmanGraph(view.structure);
          clusters_materialized.Add(chunk, 1);
          cluster_elements.Add(
              chunk, static_cast<std::int64_t>(cover_.clusters[c].size()));
          for (ElemId a : anchors_of_cluster_[c]) {
            Result<CountInt> v = kernel.CountAnchored(
                view.structure, sub_gaifman, view.ToLocal(a), scratch.get(),
                &stats);
            if (!v.ok()) {
              chunk_status[chunk] = v.status();
              return;
            }
            out[a] = *v;
          }
        }
        anchors.Add(chunk, stats.anchors);
        balls.Add(chunk, stats.balls);
        placements.Add(chunk, stats.placements);
      });
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  obs_.Count("cover_eval.basics_evaluated", 1);
  clusters_materialized.FlushTo(obs_.metrics,
                                "cover_eval.clusters_materialized");
  cluster_elements.FlushTo(obs_.metrics, "cover_eval.cluster_elements");
  anchors.FlushTo(obs_.metrics, "clterm.anchors_evaluated");
  balls.FlushTo(obs_.metrics, "clterm.balls_fetched");
  placements.FlushTo(obs_.metrics, "clterm.placements_checked");
  return out;
}

}  // namespace focq
