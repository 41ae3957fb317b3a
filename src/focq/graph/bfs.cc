#include "focq/graph/bfs.h"

#include <algorithm>
#include <deque>

#include "focq/util/check.h"

namespace focq {

std::vector<std::uint32_t> BfsDistances(const Graph& g, VertexId source) {
  return MultiSourceBfsDistances(g, {source});
}

std::vector<std::uint32_t> MultiSourceBfsDistances(
    const Graph& g, const std::vector<VertexId>& sources) {
  FOCQ_CHECK(g.finalized());
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfiniteDistance);
  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    FOCQ_CHECK_LT(s, g.num_vertices());
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.Neighbors(u)) {
      if (dist[v] == kInfiniteDistance) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<VertexId> Ball(const Graph& g, const std::vector<VertexId>& sources,
                           std::uint32_t r) {
  BallExplorer explorer(g);
  std::vector<VertexId> ball = explorer.ExploreMulti(sources, r);
  std::sort(ball.begin(), ball.end());
  return ball;
}

std::uint32_t BoundedDistance(const Graph& g, VertexId u, VertexId v,
                              std::uint32_t limit) {
  FOCQ_CHECK(g.finalized());
  if (u == v) return 0;
  BallExplorer explorer(g);
  const std::vector<VertexId>& ball = explorer.Explore(u, limit);
  for (VertexId w : ball) {
    if (w == v) return explorer.DistanceTo(w);
  }
  return kInfiniteDistance;
}

std::vector<std::uint32_t> ConnectedComponents(const Graph& g) {
  FOCQ_CHECK(g.finalized());
  std::vector<std::uint32_t> comp(g.num_vertices(), kInfiniteDistance);
  std::uint32_t next_id = 0;
  std::deque<VertexId> queue;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (comp[start] != kInfiniteDistance) continue;
    comp[start] = next_id;
    queue.push_back(start);
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop_front();
      for (VertexId v : g.Neighbors(u)) {
        if (comp[v] == kInfiniteDistance) {
          comp[v] = next_id;
          queue.push_back(v);
        }
      }
    }
    ++next_id;
  }
  return comp;
}

bool IsConnected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  std::vector<std::uint32_t> comp = ConnectedComponents(g);
  for (std::uint32_t c : comp) {
    if (c != 0) return false;
  }
  return true;
}

void BallExplorer::Bind(const Graph& g) {
  FOCQ_CHECK(g.finalized());
  g_ = &g;
  if (stamp_.size() < g.num_vertices()) {
    stamp_.resize(g.num_vertices(), 0);
    dist_.resize(g.num_vertices(), 0);
  }
}

const std::vector<VertexId>& BallExplorer::Explore(VertexId source,
                                                   std::uint32_t r) {
  return ExploreFrom(&source, 1, r);
}

const std::vector<VertexId>& BallExplorer::ExploreMulti(
    const std::vector<VertexId>& sources, std::uint32_t r) {
  return ExploreFrom(sources.data(), sources.size(), r);
}

const std::vector<VertexId>& BallExplorer::ExploreFrom(const VertexId* sources,
                                                       std::size_t count,
                                                       std::uint32_t r) {
  FOCQ_CHECK(g_ != nullptr);
  if (++current_stamp_ == 0) {
    // Stamp wrap-around: forget every old mark once per 2^32 explorations.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    current_stamp_ = 1;
  }
  order_.clear();
  layer_end_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId s = sources[i];
    FOCQ_CHECK_LT(s, g_->num_vertices());
    if (stamp_[s] != current_stamp_) {
      stamp_[s] = current_stamp_;
      dist_[s] = 0;
      order_.push_back(s);
    }
  }
  layer_end_.push_back(order_.size());
  // Level-synchronous BFS: layer d is order_[layer_end_[d-1], layer_end_[d]),
  // and `order_` doubles as the queue. Stops early once a layer is empty.
  std::size_t begin = 0;
  for (std::uint32_t d = 1; d <= r && begin < order_.size(); ++d) {
    const std::size_t end = order_.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (VertexId v : g_->Neighbors(order_[i])) {
        if (stamp_[v] != current_stamp_) {
          stamp_[v] = current_stamp_;
          dist_[v] = d;
          order_.push_back(v);
        }
      }
    }
    begin = end;
    layer_end_.push_back(order_.size());
  }
  return order_;
}

}  // namespace focq
