// Breadth-first search utilities: single- and multi-source distances, r-balls,
// connected components. These are the workhorses behind neighbourhoods,
// delta_{G,r} checks, covers and the splitter game.
#ifndef FOCQ_GRAPH_BFS_H_
#define FOCQ_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "focq/graph/graph.h"

namespace focq {

/// Distance value for "unreachable".
inline constexpr std::uint32_t kInfiniteDistance =
    std::numeric_limits<std::uint32_t>::max();

/// Distances from `source` to every vertex (kInfiniteDistance if unreachable).
std::vector<std::uint32_t> BfsDistances(const Graph& g, VertexId source);

/// Distances from the nearest of `sources` (the paper's dist(a-bar, b)).
std::vector<std::uint32_t> MultiSourceBfsDistances(
    const Graph& g, const std::vector<VertexId>& sources);

/// The r-ball N_r(sources): all vertices within distance r of some source,
/// in increasing vertex order.
std::vector<VertexId> Ball(const Graph& g, const std::vector<VertexId>& sources,
                           std::uint32_t r);

/// Distance between two single vertices, stopping early at `limit`:
/// returns the exact distance if it is <= limit, otherwise kInfiniteDistance.
std::uint32_t BoundedDistance(const Graph& g, VertexId u, VertexId v,
                              std::uint32_t limit);

/// Component id (0-based, in order of discovery from vertex 0 upward) for
/// every vertex.
std::vector<std::uint32_t> ConnectedComponents(const Graph& g);

/// True iff the graph is connected (the empty graph counts as connected).
bool IsConnected(const Graph& g);

/// A BFS-reusable scratch buffer for repeated bounded ball explorations.
/// Avoids O(n) clearing per query: visited marks are timestamped. The marks
/// grow to the largest graph the explorer has been bound to and are never
/// shrunk, so one explorer can serve several graphs in turn.
class BallExplorer {
 public:
  BallExplorer() = default;
  explicit BallExplorer(const Graph& g) { Bind(g); }

  /// Makes `g` (finalized) the graph later explorations run on. O(1) once
  /// the marks have grown to its size.
  void Bind(const Graph& g);

  /// Vertices within distance r of `source`, in BFS order (distance
  /// non-decreasing). The returned reference is invalidated by the next
  /// call.
  const std::vector<VertexId>& Explore(VertexId source, std::uint32_t r);

  /// Same for multiple sources.
  const std::vector<VertexId>& ExploreMulti(const std::vector<VertexId>& sources,
                                            std::uint32_t r);

  /// The vertices within distance d of the last exploration's sources: a
  /// prefix of its BFS order (the whole ball when d >= its radius).
  std::span<const VertexId> Within(std::uint32_t d) const {
    return {order_.data(),
            d < layer_end_.size() ? layer_end_[d] : order_.size()};
  }

  /// Distance of `v` from the last exploration's sources if `v` was
  /// reached, else kInfiniteDistance. `v` must be a vertex of the bound
  /// graph.
  std::uint32_t DistanceTo(VertexId v) const {
    return stamp_[v] == current_stamp_ ? dist_[v] : kInfiniteDistance;
  }

 private:
  const std::vector<VertexId>& ExploreFrom(const VertexId* sources,
                                           std::size_t count, std::uint32_t r);

  const Graph* g_ = nullptr;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> dist_;
  std::vector<VertexId> order_;
  // layer_end_[d]: number of reached vertices at distance <= d, for every
  // layer the last exploration reached.
  std::vector<std::size_t> layer_end_;
  std::uint32_t current_stamp_ = 0;
};

}  // namespace focq

#endif  // FOCQ_GRAPH_BFS_H_
