#include "sim/runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/problem.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace cool::sim {
namespace {

struct Scenario {
  net::Network network;
  std::shared_ptr<const sub::SubmodularFunction> utility;
  core::PeriodicSchedule schedule;
};

Scenario bench_scenario(std::size_t n, std::uint64_t seed,
                        std::size_t targets = 8, double sensing_radius = 40.0,
                        double comm_radius = 30.0) {
  net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = targets;
  config.sensing_radius = sensing_radius;
  config.comm_radius = comm_radius;
  util::Rng rng(seed);
  auto network = net::make_random_network(config, rng);
  const auto pattern = energy::ChargingPattern{};  // rho 3, T = 4
  const auto problem = core::Problem::detection_instance(network, 0.4, pattern, 12);
  auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  return {std::move(network), problem.slot_utility_ptr(), std::move(schedule)};
}

RuntimeConfig crash_stop_config(std::size_t slots, double death_rate) {
  RuntimeConfig config;
  config.slots = slots;
  config.pattern = energy::ChargingPattern{};
  config.faults.kind = FaultKind::kCrashStop;
  config.faults.death_rate_per_slot = death_rate;
  return config;
}

TEST(ResilientRuntime, FaultFreeMatchesThePlan) {
  auto scenario = bench_scenario(16, 1);
  const net::RoutingTree tree(scenario.network, net::choose_best_sink(scenario.network));
  const net::LinkModel links(scenario.network);
  const net::RadioEnergyModel radio;
  ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                           radio, scenario.schedule,
                           crash_stop_config(96, 0.0), util::Rng(2));
  const auto report = runtime.run();
  EXPECT_EQ(report.true_deaths, 0u);
  EXPECT_EQ(report.repairs, 0u);
  EXPECT_EQ(report.energy_violations, 0u);
  EXPECT_EQ(report.delta_updates_enqueued, 0u);
  EXPECT_NEAR(report.total_utility, report.fault_free_utility, 1e-9);
  EXPECT_DOUBLE_EQ(report.coverage_retained, 1.0);
  // The control plane still hums: heartbeats cost messages even when
  // nothing fails.
  EXPECT_GT(report.heartbeat_transmissions, 0u);
}

TEST(ResilientRuntime, ClosedLoopBeatsStaticScheduleUnderCrashStop) {
  // Acceptance criterion: >= 20% of nodes die mid-horizon; the closed loop
  // must retain strictly more utility than the static schedule under the
  // *same* fault realization (both draw faults from rng.fork(2)).
  // Moderate coverage redundancy (12 targets, radius 25) so deaths rip real
  // holes, and a dense comm graph (radius 70 -> shallow tree) so dead relays
  // rarely silence live subtrees.
  const std::size_t n = 40;
  const std::uint64_t seed = 7;
  auto scenario = bench_scenario(n, seed, 12, 25.0, 70.0);
  const net::RoutingTree tree(scenario.network, net::choose_best_sink(scenario.network));
  const net::LinkModel links(scenario.network);
  const net::RadioEnergyModel radio;

  auto config = crash_stop_config(480, 0.0007);
  config.oracle_gap = true;
  ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                           radio, scenario.schedule, config, util::Rng(seed));
  const auto closed = runtime.run();

  SimConfig static_config;
  static_config.pattern = energy::ChargingPattern{};
  static_config.days = 10;
  static_config.slots_per_day = 48;
  static_config.faults = config.faults;
  SchedulePolicy policy(scenario.schedule);
  Simulator sim(scenario.utility, static_config, util::Rng(seed));
  const auto static_report = sim.run(policy);

  ASSERT_EQ(closed.true_deaths, static_report.node_deaths)
      << "both systems must see the same fault realization";
  ASSERT_GE(closed.true_deaths, n / 5) << "scenario must kill >= 20% of nodes";
  EXPECT_GT(closed.total_utility, static_report.total_utility);

  // The degradation report is fully populated.
  EXPECT_GT(closed.repairs, 0u);
  EXPECT_GT(closed.detected_deaths, 0u);
  EXPECT_GT(closed.detection_latency_slots.count(), 0u);
  EXPECT_GT(closed.detection_latency_slots.mean(), 0.0);
  EXPECT_GT(closed.repair_micros.count(), 0u);
  EXPECT_GT(closed.delta_updates_delivered, 0u);
  EXPECT_GT(closed.delta_transmissions, 0u);
  EXPECT_GT(closed.delta_energy_j, 0.0);
  EXPECT_GT(closed.heartbeat_energy_j, 0.0);
  EXPECT_GT(closed.coverage_retained, 0.0);
  EXPECT_LT(closed.coverage_retained, 1.0);

  // Acceptance: incremental repair reaches >= 95% of the full recompute.
  ASSERT_GT(closed.repair_vs_recompute.count(), 0u);
  EXPECT_GE(closed.repair_vs_recompute.mean(), 0.95);
}

TEST(ResilientRuntime, WearoutKillsActiveNodesEventually) {
  auto scenario = bench_scenario(20, 3);
  const net::RoutingTree tree(scenario.network, net::choose_best_sink(scenario.network));
  const net::LinkModel links(scenario.network);
  const net::RadioEnergyModel radio;
  RuntimeConfig config;
  config.slots = 480;
  config.pattern = energy::ChargingPattern{};
  config.faults.kind = FaultKind::kWearout;
  config.faults.wearout_scale = 0.3;
  config.faults.wearout_cycles = 40.0;
  config.faults.wearout_exponent = 2.0;
  ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                           radio, scenario.schedule, config, util::Rng(4));
  const auto report = runtime.run();
  EXPECT_GT(report.true_deaths, 0u);
  EXPECT_LT(report.coverage_retained, 1.0);
}

TEST(ResilientRuntime, DeliveredCoverageAccountsForTheLossyDataPlane) {
  auto scenario = bench_scenario(24, 9, 12, 30.0, 45.0);
  const net::RoutingTree tree(scenario.network,
                              net::choose_best_sink(scenario.network));
  net::LinkModelConfig link_config;
  link_config.global_loss = 0.25;
  const net::LinkModel links(scenario.network, link_config);
  const net::RadioEnergyModel radio;
  auto config = crash_stop_config(96, 0.0);
  config.collect = true;
  ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                           radio, scenario.schedule, config, util::Rng(4));
  const auto report = runtime.run();
  EXPECT_GT(report.packets_originated, 0u);
  EXPECT_GT(report.packets_delivered, 0u);
  // A lossy contended channel cannot deliver the whole geometric plan...
  EXPECT_GT(report.delivered_utility, 0.0);
  EXPECT_LT(report.delivered_utility, report.total_utility);
  EXPECT_GT(report.delivered_fraction, 0.0);
  EXPECT_LT(report.delivered_fraction, 1.0);
  // ...and the shortfall is visible in the packet ledger.
  EXPECT_GT(report.collection_retries + report.collisions +
                report.packet_drops_retry + report.packets_non_lost,
            0u);
  // Data-plane energy is billed per node and adds up to the fleet total.
  ASSERT_EQ(report.collection_node_energy_j.size(),
            scenario.network.sensor_count());
  double sum = 0.0;
  for (const double e : report.collection_node_energy_j) sum += e;
  EXPECT_NEAR(sum, report.collection_energy_j, 1e-9);
  EXPECT_GT(report.collection_energy_j, 0.0);
}

TEST(ResilientRuntime, CollectOffLeavesDeliveredFractionAtOne) {
  auto scenario = bench_scenario(16, 1);
  const net::RoutingTree tree(scenario.network,
                              net::choose_best_sink(scenario.network));
  const net::LinkModel links(scenario.network);
  const net::RadioEnergyModel radio;
  ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                           radio, scenario.schedule,
                           crash_stop_config(48, 0.0), util::Rng(2));
  const auto report = runtime.run();
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);
  EXPECT_EQ(report.packets_originated, 0u);
  EXPECT_TRUE(report.collection_node_energy_j.empty());
}

// Acceptance criterion: identical seeds give bit-identical delivered
// coverage at --threads 1, 2 and 8. The collection engine is serial by
// contract; the parallel coverage oracles around it must not perturb it.
TEST(ResilientRuntime, DeliveredCoverageIdenticalAcrossThreadCounts) {
  auto scenario = bench_scenario(24, 9, 12, 30.0, 45.0);
  const net::RoutingTree tree(scenario.network,
                              net::choose_best_sink(scenario.network));
  net::LinkModelConfig link_config;
  link_config.global_loss = 0.3;
  const net::LinkModel links(scenario.network, link_config);
  const net::RadioEnergyModel radio;
  auto config = crash_stop_config(96, 0.002);  // faults + repairs in the loop
  config.collect = true;
  config.collection.backoff.jitter = 0.5;

  struct Trace {
    double delivered_utility, total_utility, energy;
    std::size_t delivered, drops, collisions, retries, probations;
    bool operator==(const Trace& other) const {
      return delivered_utility == other.delivered_utility &&
             total_utility == other.total_utility && energy == other.energy &&
             delivered == other.delivered && drops == other.drops &&
             collisions == other.collisions && retries == other.retries &&
             probations == other.probations;
    }
  };
  const auto run_at = [&](std::size_t threads) {
    util::set_thread_count(threads);
    ResilientRuntime runtime(scenario.utility, scenario.network, tree, links,
                             radio, scenario.schedule, config, util::Rng(13));
    const auto report = runtime.run();
    return Trace{report.delivered_utility,
                 report.total_utility,
                 report.collection_energy_j,
                 report.packets_delivered,
                 report.packet_drops_overflow + report.packet_drops_retry +
                     report.packet_drops_radio_dark,
                 report.collisions,
                 report.collection_retries,
                 report.probation_entries};
  };
  const Trace t1 = run_at(1);
  const Trace t2 = run_at(2);
  const Trace t8 = run_at(8);
  util::set_thread_count(0);  // restore the default
  EXPECT_TRUE(t1 == t2);
  EXPECT_TRUE(t1 == t8);
  EXPECT_GT(t1.delivered, 0u);
}

TEST(ResilientRuntime, Validation) {
  auto scenario = bench_scenario(8, 5);
  const net::RoutingTree tree(scenario.network, 0);
  const net::LinkModel links(scenario.network);
  const net::RadioEnergyModel radio;
  EXPECT_THROW(ResilientRuntime(nullptr, scenario.network, tree, links, radio,
                                scenario.schedule, crash_stop_config(10, 0.0),
                                util::Rng(6)),
               std::invalid_argument);
  EXPECT_THROW(ResilientRuntime(scenario.utility, scenario.network, tree, links,
                                radio, scenario.schedule,
                                crash_stop_config(0, 0.0), util::Rng(6)),
               std::invalid_argument);
  EXPECT_THROW(ResilientRuntime(scenario.utility, scenario.network, tree, links,
                                radio, core::PeriodicSchedule(8, 6),
                                crash_stop_config(10, 0.0), util::Rng(6)),
               std::invalid_argument);
  EXPECT_THROW(ResilientRuntime(scenario.utility, scenario.network, tree, links,
                                radio, core::PeriodicSchedule(5, 4),
                                crash_stop_config(10, 0.0), util::Rng(6)),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::sim
