#include "geo/graph.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace mgrid::geo {
namespace {

// A small diamond graph:  0 -- 1 -- 3  with a shortcut 0 -- 2 -- 3 that is
// longer, plus a detached node 4.
WaypointGraph make_diamond() {
  WaypointGraph g;
  g.add_node({{0, 0}, NodeKind::kGate, "start"});
  g.add_node({{10, 0}, NodeKind::kRoad, "mid_short"});
  g.add_node({{0, 30}, NodeKind::kRoad, "mid_long"});
  g.add_node({{20, 0}, NodeKind::kEntrance, "end"});
  g.add_node({{100, 100}, NodeKind::kRoad, "island"});
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(WaypointGraph, EdgeValidation) {
  WaypointGraph g;
  g.add_node({{0, 0}, NodeKind::kRoad, "a"});
  g.add_node({{1, 0}, NodeKind::kRoad, "b"});
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 7), std::out_of_range);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
}

TEST(WaypointGraph, ShortestPathPicksShorterRoute) {
  const WaypointGraph g = make_diamond();
  const std::vector<NodeIndex> path = g.shortest_path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);  // via the short branch
  EXPECT_EQ(path[2], 3u);
  EXPECT_NEAR(g.shortest_distance(0, 3), 20.0, 1e-12);
}

TEST(WaypointGraph, PathToSelfIsSingleton) {
  const WaypointGraph g = make_diamond();
  const std::vector<NodeIndex> path = g.shortest_path(2, 2);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 2u);
}

TEST(WaypointGraph, UnreachableTargetGivesEmptyPathAndInfiniteDistance) {
  const WaypointGraph g = make_diamond();
  EXPECT_TRUE(g.shortest_path(0, 4).empty());
  EXPECT_EQ(g.shortest_distance(0, 4),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(g.is_connected());
}

TEST(WaypointGraph, BadIndicesThrow) {
  const WaypointGraph g = make_diamond();
  EXPECT_THROW((void)g.shortest_path(0, 99), std::out_of_range);
  EXPECT_THROW((void)g.shortest_path(99, 0), std::out_of_range);
  EXPECT_THROW((void)g.shortest_distance(0, 99), std::out_of_range);
}

TEST(WaypointGraph, NearestNodeAndKindFilter) {
  const WaypointGraph g = make_diamond();
  EXPECT_EQ(g.nearest_node({1, 1}), 0u);
  EXPECT_EQ(g.nearest_node({99, 99}), 4u);
  EXPECT_EQ(g.nearest_node_of_kind({1, 1}, NodeKind::kEntrance), 3u);
  EXPECT_EQ(g.nearest_node_of_kind({1, 1}, NodeKind::kGate), 0u);
}

TEST(WaypointGraph, FindByName) {
  const WaypointGraph g = make_diamond();
  EXPECT_EQ(g.find_by_name("mid_long"), 2u);
  EXPECT_EQ(g.find_by_name("nope"), kInvalidNode);
}

TEST(WaypointGraph, NodesOfKind) {
  const WaypointGraph g = make_diamond();
  EXPECT_EQ(g.nodes_of_kind(NodeKind::kRoad).size(), 3u);
  EXPECT_EQ(g.nodes_of_kind(NodeKind::kGate).size(), 1u);
  EXPECT_EQ(g.nodes_of_kind(NodeKind::kEntrance).size(), 1u);
}

TEST(WaypointGraph, PathPointsMapToPositions) {
  const WaypointGraph g = make_diamond();
  const auto points = g.path_points(g.shortest_path(0, 3));
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0], (Vec2{0, 0}));
  EXPECT_EQ(points[2], (Vec2{20, 0}));
}

// Property: Dijkstra distance on a random connected graph obeys the
// triangle inequality through every intermediate node.
TEST(WaypointGraph, DijkstraObeysTriangleInequality) {
  util::RngStream rng(99);
  WaypointGraph g;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    g.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)},
                NodeKind::kRoad,
                std::string("n").append(std::to_string(i))});
  }
  // A ring for connectivity plus random chords.
  for (int i = 0; i < kNodes; ++i) {
    g.add_edge(static_cast<NodeIndex>(i),
               static_cast<NodeIndex>((i + 1) % kNodes));
  }
  for (int i = 0; i < 30; ++i) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    const auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a != b) g.add_edge(a, b);
  }
  ASSERT_TRUE(g.is_connected());
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    const auto b = static_cast<NodeIndex>(rng.index(kNodes));
    const auto via = static_cast<NodeIndex>(rng.index(kNodes));
    const double direct = g.shortest_distance(a, b);
    const double detour =
        g.shortest_distance(a, via) + g.shortest_distance(via, b);
    EXPECT_LE(direct, detour + 1e-9);
  }
}

// Property: the shortest path's edge lengths sum to the reported distance.
TEST(WaypointGraph, PathLengthMatchesDistance) {
  const WaypointGraph g = make_diamond();
  const auto path = g.shortest_path(0, 3);
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += distance(g.node(path[i - 1]).position, g.node(path[i]).position);
  }
  EXPECT_NEAR(total, g.shortest_distance(0, 3), 1e-12);
}

}  // namespace
}  // namespace mgrid::geo
