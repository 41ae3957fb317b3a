// Neighbourhood covers (Sections 7 and 8.1): a mapping X : A -> 2^A where
// every X(a) is connected and contains N_r(a). Theorem 8.1 provides, on
// nowhere dense classes, (r, 2r)-covers (cluster radius <= 2r) of maximum
// degree n^delta in time ~ n^(1+delta).
//
// Two constructions:
//   * ExactBallCover -- X(a) = N_r(a); always an (r, r)-cover, but the degree
//     can be large (every vertex lies in |N_r(v)| clusters). The baseline.
//   * SparseCover -- the greedy centre construction: scan vertices, make a
//     vertex a centre if no existing centre is within distance r, set
//     X(a) = N_2r(centre covering a). Centres are pairwise > r apart, so on
//     sparse classes few clusters overlap anywhere (this greedy stands in
//     for the more intricate construction of [13]; substitution #3 in
//     DESIGN.md -- the radius and covering guarantees are identical, the
//     degree bound is validated empirically by bench_cover).
#ifndef FOCQ_COVER_NEIGHBORHOOD_COVER_H_
#define FOCQ_COVER_NEIGHBORHOOD_COVER_H_

#include <cstdint>
#include <vector>

#include "focq/graph/graph.h"
#include "focq/obs/observer.h"
#include "focq/structure/structure.h"

namespace focq {

/// An r-neighbourhood cover of a graph.
struct NeighborhoodCover {
  std::uint32_t r = 0;                    // covering radius
  std::uint32_t cluster_radius = 0;       // radius bound of the clusters
  std::vector<std::vector<ElemId>> clusters;  // sorted element lists
  std::vector<std::uint32_t> assignment;  // X(a): cluster index per element
  std::vector<ElemId> centers;            // a cluster_radius-centre per cluster

  std::size_t NumClusters() const { return clusters.size(); }

  /// Sum of cluster sizes (the work bound of cover-based evaluation).
  std::size_t TotalClusterSize() const;

  /// Maximum number of clusters any single vertex belongs to.
  std::size_t MaxDegree() const;

  /// Approximate resident footprint in bytes (cluster lists, assignment,
  /// centres). A pure function of the cover, so it falls under the
  /// determinism contract (memory accounting, DESIGN.md "Observability").
  std::int64_t ApproxBytes() const;
};

/// X(a) = N_r(a) for every a. The per-centre ball BFS parallelises over
/// `num_threads` workers (0 = all hardware threads); the result is identical
/// to the serial construction for every thread count. The build records
/// cover.* counters (clusters, degree, BFS vertices touched — see DESIGN.md,
/// "Observability") into `obs.metrics`. With `obs.progress` installed the
/// build advances the kCover phase per ball and polls the deadline; once the
/// hard deadline fires, remaining work drains as no-ops and the PARTIAL
/// cover is returned with no metrics recorded — the caller
/// (EvalContext::TryCover) must check obs.Cancelled() and discard it.
NeighborhoodCover ExactBallCover(const Graph& gaifman, std::uint32_t r,
                                 int num_threads = 1,
                                 const Observer& obs = {});

/// Greedy (r, 2r)-cover (see file comment). The greedy centre selection is
/// order-dependent and stays serial; the per-centre 2r-ball materialisation
/// (the dominant cost) parallelises over `num_threads` workers with a
/// thread-count-independent result. `obs` (partial result on cancellation)
/// as in ExactBallCover.
NeighborhoodCover SparseCover(const Graph& gaifman, std::uint32_t r,
                              int num_threads = 1, const Observer& obs = {});

/// Verifies the cover invariants: every cluster is connected, has radius at
/// most cover.cluster_radius (witnessed by its centre), and N_r(a) is
/// contained in the assigned cluster of every a. Aborts on violation;
/// intended for tests.
void CheckCoverInvariants(const Graph& gaifman, const NeighborhoodCover& cover);

}  // namespace focq

#endif  // FOCQ_COVER_NEIGHBORHOOD_COVER_H_
