// Undirected graphs. Used both as the Gaifman graph of a sigma-structure and
// as the raw input object of the hardness reductions and splitter game.
#ifndef FOCQ_GRAPH_GRAPH_H_
#define FOCQ_GRAPH_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace focq {

/// Dense vertex identifier, 0-based.
using VertexId = std::uint32_t;

/// A simple undirected graph with a fixed vertex set {0, ..., n-1}.
///
/// Edges are stored as adjacency lists; parallel edges and self-loops are
/// silently deduplicated/ignored by `Finalize()`. The intended usage pattern
/// is: construct, `AddEdge` repeatedly, `Finalize()` once, then query.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_vertices) : adj_(num_vertices) {}

  std::size_t num_vertices() const { return adj_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// |V| + |E|, the paper's ||G||.
  std::size_t Size() const { return num_vertices() + num_edges(); }

  /// Approximate resident footprint in bytes: a flat per-vertex
  /// adjacency-list overhead plus both directions of every edge. A pure
  /// function of the graph, so it falls under the determinism contract
  /// (memory accounting, DESIGN.md "Observability").
  std::int64_t ApproxBytes() const {
    return static_cast<std::int64_t>(num_vertices()) * 24 +
           static_cast<std::int64_t>(2 * num_edges() * sizeof(VertexId));
  }

  /// Records an undirected edge {u, v}. Self-loops are ignored.
  void AddEdge(VertexId u, VertexId v);

  /// Makes room for `count` more AddEdge endpoints at `v`, so a builder that
  /// knows the counts allocates each adjacency list once.
  void ReserveEndpoints(VertexId v, std::size_t count) {
    adj_[v].reserve(adj_[v].size() + count);
  }

  /// Sorts and deduplicates adjacency lists; must be called before queries.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// Inserts the edge {u, v} into a finalized graph, keeping adjacency lists
  /// sorted (the incremental Gaifman-repair path, DESIGN.md §3e). Self-loops
  /// and existing edges are no-ops. Returns true iff the edge was added.
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes the edge {u, v} from a finalized graph, keeping adjacency lists
  /// sorted. Returns true iff the edge existed.
  bool EraseEdge(VertexId u, VertexId v);

  /// Neighbours of `v` in increasing order (valid after Finalize()).
  const std::vector<VertexId>& Neighbors(VertexId v) const { return adj_[v]; }

  std::size_t Degree(VertexId v) const { return adj_[v].size(); }

  /// Maximum degree over all vertices (0 for the empty graph).
  std::size_t MaxDegree() const;

  /// True iff {u, v} is an edge (binary search; valid after Finalize()).
  bool HasEdge(VertexId u, VertexId v) const;

  /// All edges as (min, max) pairs, lexicographically sorted.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// The subgraph induced on `vertices` (ids are remapped to 0..k-1 in the
  /// order given). `vertices` must not contain duplicates.
  Graph InducedSubgraph(const std::vector<VertexId>& vertices) const;

 private:
  std::vector<std::vector<VertexId>> adj_;
  std::size_t num_edges_ = 0;
  bool finalized_ = false;
};

}  // namespace focq

#endif  // FOCQ_GRAPH_GRAPH_H_
