#include "net/routing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace cool::net {
namespace {

// A 5-node chain plus one isolated node:
//   0 - 1 - 2 - 3 - 4        5 (isolated)
Network chain_network() {
  std::vector<Sensor> sensors;
  for (int i = 0; i < 5; ++i)
    sensors.push_back({0, {static_cast<double>(i) * 10.0, 0.0}, 5.0, 11.0});
  sensors.push_back({0, {200.0, 200.0}, 5.0, 11.0});
  return Network(std::move(sensors), {}, geom::Rect({0, 0}, {300, 300}));
}

TEST(RoutingTree, DepthsAlongChain) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  EXPECT_EQ(tree.sink(), 0u);
  EXPECT_EQ(tree.depth(0), 0u);
  EXPECT_EQ(tree.depth(1), 1u);
  EXPECT_EQ(tree.depth(4), 4u);
  EXPECT_EQ(tree.parent(3), 2u);
  EXPECT_EQ(tree.parent(0), RoutingTree::kNoParent);
}

TEST(RoutingTree, UnreachableNodeDetected) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  EXPECT_FALSE(tree.reachable(5));
  EXPECT_EQ(tree.reachable_count(), 5u);
  EXPECT_THROW(tree.depth(5), std::runtime_error);
  EXPECT_THROW(tree.parent(5), std::runtime_error);
  EXPECT_THROW(tree.path_to_sink(5), std::runtime_error);
}

TEST(RoutingTree, PathToSink) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  EXPECT_EQ(tree.path_to_sink(3), (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(tree.path_to_sink(0), (std::vector<std::size_t>{0}));
}

TEST(RoutingTree, MidChainSinkHalvesDepths) {
  const auto net = chain_network();
  const RoutingTree tree(net, 2);
  EXPECT_EQ(tree.depth(0), 2u);
  EXPECT_EQ(tree.depth(4), 2u);
}

TEST(RoutingTree, RelayLoadCountsIntermediateHops) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  // Only node 4 originates: relays at 3, 2, 1.
  std::vector<std::uint8_t> active(6, 0);
  active[4] = 1;
  const auto load = tree.relay_load(active);
  EXPECT_EQ(load[3], 1u);
  EXPECT_EQ(load[2], 1u);
  EXPECT_EQ(load[1], 1u);
  EXPECT_EQ(load[0], 0u);  // sink reception is not a relay
  EXPECT_EQ(load[4], 0u);  // originator does not relay its own packet
}

TEST(RoutingTree, RelayLoadAccumulates) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  std::vector<std::uint8_t> active(6, 1);  // everyone (node 5 unreachable)
  const auto load = tree.relay_load(active);
  EXPECT_EQ(load[1], 3u);  // forwards for 2, 3, 4
  EXPECT_EQ(load[2], 2u);
  EXPECT_EQ(load[3], 1u);
  EXPECT_EQ(load[4], 0u);
}

TEST(RoutingTree, RelayLoadSizeMismatchThrows) {
  const auto net = chain_network();
  const RoutingTree tree(net, 0);
  std::vector<std::uint8_t> wrong(2, 1);
  EXPECT_THROW(tree.relay_load(wrong), std::invalid_argument);
}

TEST(RoutingTree, BadSinkThrows) {
  const auto net = chain_network();
  EXPECT_THROW(RoutingTree(net, 99), std::out_of_range);
}

TEST(ChooseBestSink, PrefersCenterOfChain) {
  const auto net = chain_network();
  // Node 2 reaches all 5 chain nodes with minimum total depth.
  EXPECT_EQ(choose_best_sink(net), 2u);
}

// choose_best_sink as it was before the multi-source BFS: one RoutingTree
// per candidate, kept as the differential reference.
std::size_t reference_best_sink(const Network& network) {
  const std::size_t n = network.sensor_count();
  std::size_t best = 0;
  std::size_t best_reach = 0;
  std::size_t best_total_depth = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const RoutingTree tree(network, s);
    std::size_t total_depth = 0;
    for (std::size_t v = 0; v < n; ++v)
      if (tree.reachable(v)) total_depth += tree.depth(v);
    if (tree.reachable_count() > best_reach ||
        (tree.reachable_count() == best_reach && total_depth < best_total_depth)) {
      best = s;
      best_reach = tree.reachable_count();
      best_total_depth = total_depth;
    }
  }
  return best;
}

Network line_of(std::size_t n, double spacing, double comm) {
  std::vector<Sensor> sensors;
  for (std::size_t i = 0; i < n; ++i)
    sensors.push_back({0, {static_cast<double>(i) * spacing, 0.0}, 1.0, comm});
  return Network(std::move(sensors), {}, geom::Rect({0, 0}, {1000, 10}));
}

TEST(ChooseBestSink, MatchesPerCandidateTrees) {
  // Random fields from one sensor to past four 64-candidate passes, sparse
  // to dense: many are disconnected, many have isolated nodes, and some
  // have heterogeneous comm radii (including zero).
  util::Rng rng(2011);
  std::size_t disconnected = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t n =
        trial < 8 ? std::size_t{63} + static_cast<std::size_t>(trial % 4)
                  : static_cast<std::size_t>(rng.uniform_int(1, 301));
    const double radius = rng.uniform(5.0, 65.0);
    const bool mixed = trial % 3 == 0;
    std::vector<Sensor> sensors;
    for (std::size_t i = 0; i < n; ++i) {
      const double comm =
          mixed ? (i % 11 == 0 ? 0.0 : rng.uniform(0.5, 1.5) * radius) : radius;
      sensors.push_back(
          {0, {rng.uniform(0.0, 140.0), rng.uniform(0.0, 140.0)}, 10.0, comm});
    }
    const Network net(std::move(sensors), {}, geom::Rect::square(140.0));
    const std::size_t want = reference_best_sink(net);
    ASSERT_EQ(choose_best_sink(net), want)
        << "trial " << trial << ", n " << n << ", radius " << radius;
    if (RoutingTree(net, want).reachable_count() < n) ++disconnected;
  }
  EXPECT_GT(disconnected, 40u);
}

TEST(ChooseBestSink, TiesGoToTheSmallestId) {
  // No links at all: every candidate reaches only itself.
  const auto isolated = line_of(70, 10.0, 1.0);
  EXPECT_EQ(choose_best_sink(isolated), 0u);
  // A chain of 4: nodes 1 and 2 tie on reach and total depth.
  const auto four = line_of(4, 10.0, 11.0);
  EXPECT_EQ(choose_best_sink(four), 1u);
  EXPECT_EQ(reference_best_sink(four), 1u);
  // A chain of 131 crosses three passes; its centre is node 65.
  const auto long_chain = line_of(131, 10.0, 11.0);
  EXPECT_EQ(choose_best_sink(long_chain), 65u);
  EXPECT_EQ(reference_best_sink(long_chain), 65u);
  // Two equal components: the first wins the tie.
  std::vector<Sensor> sensors;
  for (const double x : {0.0, 10.0, 20.0, 500.0, 510.0, 520.0})
    sensors.push_back({0, {x, 0.0}, 1.0, 11.0});
  const Network twins(std::move(sensors), {}, geom::Rect({0, 0}, {1000, 10}));
  EXPECT_EQ(choose_best_sink(twins), 1u);
  EXPECT_EQ(reference_best_sink(twins), 1u);
}

TEST(ChooseBestSink, EmptyNetworkThrows) {
  const Network empty({}, {}, geom::Rect::square(10.0));
  EXPECT_THROW(choose_best_sink(empty), std::invalid_argument);
}

}  // namespace
}  // namespace cool::net
