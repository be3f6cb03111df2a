#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <type_traits>
#include <vector>

namespace cool::net {
namespace {

Network tiny_network() {
  // Sensors on a line at x = 0, 10, 20 with sensing radius 6, comm radius 12.
  std::vector<Sensor> sensors{
      {0, {0.0, 0.0}, 6.0, 12.0},
      {0, {10.0, 0.0}, 6.0, 12.0},
      {0, {20.0, 0.0}, 6.0, 12.0},
  };
  // Targets: one near sensor 0, one between sensors 1 and 2, one uncovered.
  std::vector<Target> targets{
      {0, {2.0, 0.0}, 1.0},
      {0, {15.0, 0.0}, 1.0},
      {0, {40.0, 0.0}, 1.0},
  };
  return Network(std::move(sensors), std::move(targets),
                 geom::Rect({-5.0, -5.0}, {45.0, 5.0}));
}

TEST(Network, IdsAreReassignedSequentially) {
  const auto net = tiny_network();
  for (std::size_t i = 0; i < net.sensor_count(); ++i)
    EXPECT_EQ(net.sensors()[i].id, i);
  for (std::size_t i = 0; i < net.target_count(); ++i)
    EXPECT_EQ(net.targets()[i].id, i);
}

TEST(Network, CoverageRelation) {
  const auto net = tiny_network();
  EXPECT_EQ(net.covering_sensors(0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(net.covering_sensors(1), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(net.covering_sensors(2).empty());
  EXPECT_TRUE(net.covers(1, 1));
  EXPECT_FALSE(net.covers(0, 1));
  EXPECT_THROW(net.covering_sensors(9), std::out_of_range);
}

TEST(Network, UncoveredTargets) {
  const auto net = tiny_network();
  EXPECT_EQ(net.uncovered_targets(), (std::vector<std::size_t>{2}));
}

TEST(Network, NeighborsSymmetricDiskGraph) {
  const auto net = tiny_network();
  EXPECT_EQ(net.neighbors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(net.neighbors(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(net.neighbors(2), (std::vector<std::size_t>{1}));
}

// The O(n·m) scan the grid-built relation must reproduce exactly.
std::vector<std::vector<std::size_t>> brute_force_coverage(const Network& net) {
  std::vector<std::vector<std::size_t>> covers(net.target_count());
  for (std::size_t t = 0; t < net.target_count(); ++t)
    for (std::size_t s = 0; s < net.sensor_count(); ++s) {
      const double r = net.sensors()[s].sensing_radius;
      if (net.sensors()[s].position.distance2_to(net.targets()[t].position) <=
          r * r)
        covers[t].push_back(s);
    }
  return covers;
}

std::vector<std::vector<std::size_t>> brute_force_neighbors(const Network& net) {
  const auto& sensors = net.sensors();
  std::vector<std::vector<std::size_t>> lists(sensors.size());
  for (std::size_t a = 0; a < sensors.size(); ++a)
    for (std::size_t b = 0; b < sensors.size(); ++b) {
      const double reach = std::min(sensors[a].comm_radius, sensors[b].comm_radius);
      if (a != b &&
          sensors[a].position.distance2_to(sensors[b].position) <= reach * reach)
        lists[a].push_back(b);
    }
  return lists;
}

TEST(Network, GridCoverageMatchesBruteForceScan) {
  for (const auto layout :
       {NetworkConfig::Layout::kUniform, NetworkConfig::Layout::kGrid,
        NetworkConfig::Layout::kClustered}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      NetworkConfig config;
      config.layout = layout;
      config.sensor_count = 150;
      config.target_count = 120;
      config.sensing_radius = 9.0;
      util::Rng rng(seed);
      const auto base = make_random_network(config, rng);
      EXPECT_EQ(base.coverage(), brute_force_coverage(base));

      // Heterogeneous radii, including 0 and the protocol's 1e7 cap, and
      // targets well outside the sensors' bounding box.
      std::vector<Sensor> sensors = base.sensors();
      for (std::size_t i = 0; i < sensors.size(); ++i) {
        const double draw = rng.uniform(0.0, 1.0);
        sensors[i].sensing_radius = draw < 0.05   ? 0.0
                                    : draw < 0.07 ? 1e7
                                                  : rng.uniform(0.5, 40.0);
      }
      std::vector<Target> targets = base.targets();
      for (std::size_t i = 0; i < 40; ++i)
        targets.push_back(Target{0, {rng.uniform(-500.0, 600.0),
                                     rng.uniform(-500.0, 600.0)}, 1.0});
      targets.push_back(Target{0, sensors[3].position, 1.0});  // on a sensor
      const Network mixed(sensors, targets, base.region());
      EXPECT_EQ(mixed.coverage(), brute_force_coverage(mixed));

      // Every radius 0: only targets on (or within an underflowing offset
      // of) a sensor are covered.
      for (auto& s : sensors) s.sensing_radius = 0.0;
      targets.push_back(Target{0, {sensors[5].position.x + 1e-170,
                                   sensors[5].position.y}, 1.0});
      const Network pinpoint(sensors, targets, base.region());
      EXPECT_EQ(pinpoint.coverage(), brute_force_coverage(pinpoint));
      EXPECT_FALSE(pinpoint.coverage().back().empty());
    }
  }
}

TEST(Network, CoincidentSensorsAndEmptyTargets) {
  std::vector<Sensor> sensors(4, Sensor{0, {2.0, 2.0}, 0.0, 1.0});
  const Network no_targets(sensors, {}, geom::Rect::square(4.0));
  EXPECT_TRUE(no_targets.coverage().empty());
  const Network stacked(sensors, {Target{0, {2.0, 2.0}, 1.0}},
                        geom::Rect::square(4.0));
  EXPECT_EQ(stacked.covering_sensors(0), (std::vector<std::size_t>{0, 1, 2, 3}));

  // Just outside the sensors' bounding box, at an offset whose square
  // underflows: the disk test accepts it even at radius 0.
  const std::vector<Sensor> edge{{0, {0.0, 0.0}, 0.0, 1.0},
                                 {0, {10.0, 10.0}, 0.0, 1.0}};
  const Network underflow(edge,
                          {Target{0, {-1e-170, 0.0}, 1.0},
                           Target{0, {10.0, 10.0 + 1e-9}, 1.0}},
                          geom::Rect::square(10.0));
  EXPECT_EQ(underflow.coverage(), brute_force_coverage(underflow));
  EXPECT_EQ(underflow.covering_sensors(0), (std::vector<std::size_t>{0}));
}

TEST(Network, ConcurrentFirstNeighborsCallsAgree) {
  static_assert(std::is_copy_constructible_v<Network> &&
                std::is_move_constructible_v<Network> &&
                std::is_copy_assignable_v<Network> &&
                std::is_move_assignable_v<Network>);
  NetworkConfig config;
  config.sensor_count = 300;
  config.comm_radius = 20.0;
  util::Rng rng(8);
  const auto net = make_random_network(config, rng);
  const Network copy = net;  // taken before any neighbors() call
  const auto expected = brute_force_neighbors(net);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<std::size_t>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      const Network& target = k % 2 == 0 ? net : copy;
      for (std::size_t v = 0; v < target.sensor_count(); ++v)
        seen[k].push_back(target.neighbors(v));
    });
  for (auto& thread : threads) thread.join();
  for (std::size_t k = 0; k < kThreads; ++k) EXPECT_EQ(seen[k], expected);
  Network moved = Network(net);
  EXPECT_EQ(moved.neighbors(7), expected[7]);
  EXPECT_THROW(moved.neighbors(300), std::out_of_range);
}

TEST(Network, SensingDisksAlign) {
  const auto net = tiny_network();
  const auto disks = net.sensing_disks();
  ASSERT_EQ(disks.size(), 3u);
  EXPECT_DOUBLE_EQ(disks[1].radius, 6.0);
  EXPECT_DOUBLE_EQ(disks[2].center.x, 20.0);
}

TEST(Network, NegativeRadiusThrows) {
  std::vector<Sensor> sensors{{0, {0.0, 0.0}, -1.0, 5.0}};
  EXPECT_THROW(Network(std::move(sensors), {}, geom::Rect::square(10.0)),
               std::invalid_argument);
}

TEST(MakeRandomNetwork, CountsAndRegion) {
  NetworkConfig config;
  config.sensor_count = 120;
  config.target_count = 7;
  util::Rng rng(1);
  const auto net = make_random_network(config, rng);
  EXPECT_EQ(net.sensor_count(), 120u);
  EXPECT_EQ(net.target_count(), 7u);
  for (const auto& s : net.sensors())
    EXPECT_TRUE(net.region().contains(s.position));
}

TEST(MakeRandomNetwork, EnsureCoverageLeavesNoOrphanTargets) {
  NetworkConfig config;
  config.sensor_count = 10;      // sparse: orphans likely without the fix
  config.target_count = 8;
  config.sensing_radius = 5.0;
  config.region_side = 200.0;
  util::Rng rng(2);
  const auto net = make_random_network(config, rng);
  EXPECT_TRUE(net.uncovered_targets().empty());
}

TEST(MakeRandomNetwork, WithoutEnsureCoverageOrphansMayExist) {
  NetworkConfig config;
  config.sensor_count = 5;
  config.target_count = 40;
  config.sensing_radius = 3.0;
  config.region_side = 300.0;
  config.ensure_coverage = false;
  util::Rng rng(3);
  const auto net = make_random_network(config, rng);
  EXPECT_FALSE(net.uncovered_targets().empty());
}

TEST(MakeRandomNetwork, LayoutsProduceValidNetworks) {
  for (const auto layout :
       {NetworkConfig::Layout::kUniform, NetworkConfig::Layout::kGrid,
        NetworkConfig::Layout::kClustered}) {
    NetworkConfig config;
    config.layout = layout;
    config.sensor_count = 60;
    config.target_count = 5;
    util::Rng rng(4);
    const auto net = make_random_network(config, rng);
    EXPECT_EQ(net.sensor_count(), 60u);
  }
}

TEST(MakeRandomNetwork, ZeroSensorsThrows) {
  NetworkConfig config;
  config.sensor_count = 0;
  util::Rng rng(5);
  EXPECT_THROW(make_random_network(config, rng), std::invalid_argument);
}

TEST(MakeRandomNetwork, DeterministicPerSeed) {
  NetworkConfig config;
  util::Rng a(7), b(7);
  const auto na = make_random_network(config, a);
  const auto nb = make_random_network(config, b);
  EXPECT_EQ(na.sensors()[13].position.x, nb.sensors()[13].position.x);
}

}  // namespace
}  // namespace cool::net
