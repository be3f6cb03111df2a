#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/routing.h"

namespace cool::net {
namespace {

// Nodes at distances 2 (near), 9 (edge-ish) and 30 (out of range) from node 0,
// comm radius 10.
net::Network line_network() {
  std::vector<net::Sensor> sensors{
      {0, {0.0, 0.0}, 5.0, 10.0},
      {0, {2.0, 0.0}, 5.0, 10.0},
      {0, {9.0, 0.0}, 5.0, 10.0},
      {0, {30.0, 0.0}, 5.0, 10.0},
  };
  return net::Network(std::move(sensors), {}, geom::Rect({0, 0}, {40, 10}));
}

TEST(LinkModel, NearLinksDeliverAtNearProbability) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(0, 1), 0.98);
}

TEST(LinkModel, EdgeLinksDegrade) {
  const auto network = line_network();
  const LinkModel links(network);
  const double p_edge = links.delivery_probability(0, 2);  // d = 9, range 10
  EXPECT_LT(p_edge, 0.98);
  EXPECT_GT(p_edge, 0.50);
}

TEST(LinkModel, OutOfRangeIsZero) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(links.delivery_probability(3, 0), 0.0);
}

TEST(LinkModel, SelfDeliveryIsCertain) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(2, 2), 1.0);
}

TEST(LinkModel, GlobalLossScalesEverything) {
  const auto network = line_network();
  LinkModelConfig config;
  config.global_loss = 0.5;
  const LinkModel lossy(network, config);
  const LinkModel clean(network);
  EXPECT_NEAR(lossy.delivery_probability(0, 1),
              0.5 * clean.delivery_probability(0, 1), 1e-12);
}

TEST(LinkModel, TryDeliverMatchesFrequency) {
  const auto network = line_network();
  const LinkModel links(network);
  util::Rng rng(1);
  int delivered = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (links.try_deliver(0, 2, rng)) ++delivered;
  EXPECT_NEAR(static_cast<double>(delivered) / trials,
              links.delivery_probability(0, 2), 0.01);
}

TEST(LinkModel, Validation) {
  const auto network = line_network();
  LinkModelConfig bad;
  bad.near_delivery = 0.0;
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  bad = {};
  bad.edge_delivery = 0.99;  // above near_delivery
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  bad = {};
  bad.global_loss = 1.0;
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  const LinkModel links(network);
  EXPECT_THROW(links.delivery_probability(9, 0), std::out_of_range);
}

// delivery_probability as it was computed on every draw: a linear search
// of the neighbour list, then the distance model.
double reference_probability(const net::Network& network,
                             const LinkModelConfig& config, std::size_t from,
                             std::size_t to) {
  const auto& sensors = network.sensors();
  if (from == to) return 1.0;
  const auto& neighbors = network.neighbors(from);
  if (std::find(neighbors.begin(), neighbors.end(), to) == neighbors.end())
    return 0.0;
  const double range = std::min(sensors[from].comm_radius, sensors[to].comm_radius);
  const double d = sensors[from].position.distance_to(sensors[to].position);
  const double frac = range <= 0.0 ? 1.0 : std::clamp(d / range, 0.0, 1.0);
  const double base =
      frac <= 0.5 ? config.near_delivery
                  : config.near_delivery + (config.edge_delivery -
                                            config.near_delivery) *
                                               (frac - 0.5) / 0.5;
  return base * (1.0 - config.global_loss);
}

// Heterogeneous comm radii (including zero) over a field sparse enough to
// leave isolated nodes.
net::Network mixed_radius_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::Sensor> sensors;
  for (std::size_t i = 0; i < n; ++i) {
    const double comm = i % 17 == 0 ? 0.0 : rng.uniform(4.0, 40.0);
    sensors.push_back(
        {0, {rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0)}, 5.0, comm});
  }
  return net::Network(std::move(sensors), {}, geom::Rect::square(120.0));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(LinkModel, DeliveryProbabilityMatchesThePerDrawComputation) {
  LinkModelConfig lossy;
  lossy.near_delivery = 0.9;
  lossy.edge_delivery = 0.2;
  lossy.global_loss = 0.35;
  for (const LinkModelConfig& config : {LinkModelConfig{}, lossy}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto network = mixed_radius_network(90, seed);
      const LinkModel links(network, config);
      for (std::size_t a = 0; a < network.sensor_count(); ++a)
        for (std::size_t b = 0; b < network.sensor_count(); ++b)
          ASSERT_EQ(bits(links.delivery_probability(a, b)),
                    bits(reference_probability(network, config, a, b)))
              << a << " -> " << b;
    }
  }
}

TEST(LinkModel, TreeEdgeProbabilitiesMatchTheirDraws) {
  const auto network = mixed_radius_network(120, 4);
  const net::RoutingTree tree(network, net::choose_best_sink(network));
  const LinkModel links(network);
  const auto up = links.uplink_probabilities(tree);
  const auto down = links.downlink_probabilities(tree);
  ASSERT_EQ(up.size(), network.sensor_count());
  ASSERT_EQ(down.size(), network.sensor_count());
  std::size_t edges = 0;
  for (std::size_t v = 0; v < network.sensor_count(); ++v) {
    if (!tree.reachable(v) || v == tree.sink()) {
      EXPECT_EQ(up[v], 0.0);
      EXPECT_EQ(down[v], 0.0);
      continue;
    }
    ++edges;
    EXPECT_EQ(bits(up[v]), bits(links.delivery_probability(v, tree.parent(v))));
    EXPECT_EQ(bits(down[v]),
              bits(links.delivery_probability(tree.parent(v), v)));
    EXPECT_GT(up[v], 0.0);
  }
  EXPECT_GT(edges, 0u);
}

}  // namespace
}  // namespace cool::net
