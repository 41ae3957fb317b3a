#include <gtest/gtest.h>

#include <algorithm>

#include "focq/graph/bfs.h"
#include "focq/graph/generators.h"
#include "focq/graph/graph.h"
#include "focq/graph/pattern_graph.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

TEST(Graph, AddAndDedup) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // duplicate
  g.AddEdge(2, 2);  // self-loop ignored
  g.AddEdge(2, 3);
  g.Finalize();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Size(), 6u);
}

TEST(Graph, EdgesSortedPairs) {
  Graph g = MakePath(4);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(VertexId{0}, VertexId{1}));
  EXPECT_EQ(edges[2], std::make_pair(VertexId{2}, VertexId{3}));
}

TEST(Graph, InducedSubgraph) {
  Graph g = MakeCycle(6);
  Graph sub = g.InducedSubgraph({0, 1, 2, 4});
  EXPECT_EQ(sub.num_vertices(), 4u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 0-1, 1-2 survive; 4 is isolated
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_EQ(sub.Degree(3), 0u);
}

TEST(Bfs, PathDistances) {
  Graph g = MakePath(6);
  auto dist = BfsDistances(g, 0);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Bfs, DisconnectedIsInfinite) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.Finalize();
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kInfiniteDistance);
}

TEST(Bfs, MultiSourceTakesMin) {
  Graph g = MakePath(10);
  auto dist = MultiSourceBfsDistances(g, {0, 9});
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 4u);
  EXPECT_EQ(dist[7], 2u);
}

TEST(Bfs, BallMatchesDistances) {
  Rng rng(5);
  Graph g = MakeRandomSparse(60, 3, &rng);
  auto dist = BfsDistances(g, 7);
  for (std::uint32_t r : {0u, 1u, 2u, 3u}) {
    auto ball = Ball(g, {7}, r);
    for (VertexId v = 0; v < 60; ++v) {
      bool inside = std::binary_search(ball.begin(), ball.end(), v);
      EXPECT_EQ(inside, dist[v] <= r) << "v=" << v << " r=" << r;
    }
  }
}

TEST(Bfs, BoundedDistance) {
  Graph g = MakePath(10);
  EXPECT_EQ(BoundedDistance(g, 2, 6, 10), 4u);
  EXPECT_EQ(BoundedDistance(g, 2, 6, 3), kInfiniteDistance);
  EXPECT_EQ(BoundedDistance(g, 3, 3, 0), 0u);
}

TEST(Bfs, BallExplorerReusable) {
  Graph g = MakeGrid(5, 5);
  BallExplorer explorer(g);
  EXPECT_EQ(explorer.Explore(12, 1).size(), 5u);  // centre + 4 neighbours
  EXPECT_EQ(explorer.Explore(0, 1).size(), 3u);   // corner
  EXPECT_EQ(explorer.Explore(12, 0).size(), 1u);
  const auto& ball = explorer.ExploreMulti({0, 24}, 1);
  EXPECT_EQ(ball.size(), 6u);
}

// One explorer serves graphs of different sizes in turn, bound before each;
// every ball matches BoundedDistance, out-of-ball vertices read as
// infinitely far, and the layers are BFS-order prefixes.
TEST(Bfs, BallExplorerRebindsAcrossGraphs) {
  Rng rng(10);
  BallExplorer explorer;
  for (std::size_t n : {40u, 12u, 60u}) {
    Graph g = MakeRandomSparse(n, 3, &rng);
    explorer.Bind(g);
    for (VertexId u = 0; u < n; ++u) {
      explorer.Explore(u, 3);
      std::size_t within2 = 0;
      for (VertexId v = 0; v < n; ++v) {
        const std::uint32_t d = BoundedDistance(g, u, v, 3);
        EXPECT_EQ(explorer.DistanceTo(v), d) << "n=" << n << " u=" << u;
        if (d <= 2) ++within2;
      }
      ASSERT_EQ(explorer.Within(2).size(), within2);
      for (VertexId v : explorer.Within(2)) {
        EXPECT_LE(explorer.DistanceTo(v), 2u);
      }
      ASSERT_EQ(explorer.Within(0).size(), 1u);
      EXPECT_EQ(explorer.Within(0)[0], u);
      // Past the explored radius, Within is the whole ball.
      EXPECT_EQ(explorer.Within(7).size(), explorer.Within(3).size());
    }
  }
}

TEST(Bfs, ConnectedComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  g.Finalize();
  auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_TRUE(IsConnected(MakeCycle(5)));
}

TEST(Generators, Sizes) {
  EXPECT_EQ(MakePath(10).num_edges(), 9u);
  EXPECT_EQ(MakeCycle(10).num_edges(), 10u);
  EXPECT_EQ(MakeClique(6).num_edges(), 15u);
  EXPECT_EQ(MakeCompleteBipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(MakeGrid(3, 4).num_edges(), 17u);
  EXPECT_EQ(MakeCaterpillar(5, 3).num_vertices(), 20u);
  EXPECT_EQ(MakeCaterpillar(5, 3).num_edges(), 19u);
}

TEST(Generators, TreesAreTrees) {
  Rng rng(11);
  for (std::size_t n : {1u, 2u, 17u, 100u}) {
    Graph t = MakeRandomTree(n, &rng);
    EXPECT_EQ(t.num_edges(), n - (n > 0 ? 1 : 0));
    EXPECT_TRUE(IsConnected(t));
  }
  Graph b = MakeCompleteBaryTree(31, 2);
  EXPECT_EQ(b.num_edges(), 30u);
  EXPECT_TRUE(IsConnected(b));
  EXPECT_LE(b.MaxDegree(), 3u);
}

TEST(Generators, BoundedDegreeIsBounded) {
  Rng rng(13);
  Graph g = MakeRandomBoundedDegree(300, 4, &rng);
  EXPECT_LE(g.MaxDegree(), 4u);
  EXPECT_GT(g.num_edges(), 100u);  // not degenerate
}

TEST(PatternGraph, PairIndexBijective) {
  std::set<int> seen;
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < j; ++i) {
      EXPECT_TRUE(seen.insert(PatternGraph::PairIndex(i, j)).second);
      EXPECT_EQ(PatternGraph::PairIndex(i, j), PatternGraph::PairIndex(j, i));
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PatternGraph, Components) {
  PatternGraph g(5, 0);
  g.SetEdge(0, 2);
  g.SetEdge(3, 4);
  auto comps = g.Components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(comps[1], (std::vector<int>{1}));
  EXPECT_EQ(comps[2], (std::vector<int>{3, 4}));
  EXPECT_FALSE(g.IsConnected());
  g.SetEdge(1, 3);
  g.SetEdge(0, 1);
  EXPECT_TRUE(g.IsConnected());
}

TEST(PatternGraph, AllGraphsCount) {
  EXPECT_EQ(PatternGraph::AllGraphs(1).size(), 1u);
  EXPECT_EQ(PatternGraph::AllGraphs(2).size(), 2u);
  EXPECT_EQ(PatternGraph::AllGraphs(3).size(), 8u);
  EXPECT_EQ(PatternGraph::AllGraphs(4).size(), 64u);
  // Connected graphs on 3 vertices: 3 paths + 1 triangle.
  int connected = 0;
  for (const auto& g : PatternGraph::AllGraphs(3)) {
    if (g.IsConnected()) ++connected;
  }
  EXPECT_EQ(connected, 4);
}

TEST(PatternGraph, Induced) {
  PatternGraph g(4, 0);
  g.SetEdge(0, 1);
  g.SetEdge(1, 3);
  PatternGraph sub = g.Induced({0, 1, 3});
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(0, 2));
}

TEST(PatternGraph, CrossingSupergraphs) {
  // G on 3 vertices: edge {0,1}; parts {0,1} vs {2}: 2 cross pairs -> 3
  // non-empty subsets.
  PatternGraph g(3, 0);
  g.SetEdge(0, 1);
  auto crossings = PatternGraph::CrossingSupergraphs(g, {0, 1}, {2});
  EXPECT_EQ(crossings.size(), 3u);
  for (const auto& h : crossings) {
    EXPECT_TRUE(h.HasEdge(0, 1));        // within-part edges preserved
    EXPECT_FALSE(h == g);                // strictly more edges
    EXPECT_TRUE(h.HasEdge(0, 2) || h.HasEdge(1, 2));
  }
}

}  // namespace
}  // namespace focq
