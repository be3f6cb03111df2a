#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "submodular/detection.h"

namespace cool::sim {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

SimConfig normalized_config(std::size_t days = 1) {
  SimConfig config;
  config.backend = EnergyBackend::kNormalized;
  config.days = days;
  config.pattern = energy::ChargingPattern{};  // 15/45: rho 3, T = 4
  config.slots_per_day = 48;
  return config;
}

TEST(Simulator, GreedyScheduleRunsWithoutViolations) {
  const auto utility = detect(12, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, normalized_config(), util::Rng(1));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.energy_violations, 0u);
  EXPECT_EQ(report.slots_simulated, 48u);
  // Simulated utility must equal the analytical evaluation.
  const auto eval = core::evaluate(problem, schedule);
  EXPECT_NEAR(report.average_utility_per_slot, eval.per_slot_average, 1e-9);
}

TEST(Simulator, OverAggressiveScheduleTriggersViolations) {
  const auto utility = detect(2, 0.4);
  // Sensor 0 active in two slots of a rho>1 period: infeasible.
  core::PeriodicSchedule bad(2, 4);
  bad.set_active(0, 0);
  bad.set_active(0, 1);
  SchedulePolicy policy(bad);
  Simulator sim(utility, normalized_config(), util::Rng(2));
  const auto report = sim.run(policy);
  EXPECT_GT(report.energy_violations, 0u);
}

TEST(Simulator, OnlineGreedyActivatesReadyNodes) {
  const auto utility = detect(8, 0.4);
  OnlineGreedyPolicy policy(utility);
  Simulator sim(utility, normalized_config(), util::Rng(3));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.energy_violations, 0u);
  EXPECT_GT(report.total_utility, 0.0);
  // Online greedy burns everyone at slot 0, then waits out recharges: its
  // average must be below the offline schedule's steady state.
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  SchedulePolicy offline(schedule);
  Simulator sim2(utility, normalized_config(), util::Rng(3));
  const auto offline_report = sim2.run(offline);
  EXPECT_GE(offline_report.average_utility_per_slot,
            report.average_utility_per_slot - 1e-9);
}

TEST(Simulator, PartialChargePolicyUsesPartialActivations) {
  const auto utility = detect(6, 0.4);
  auto config = normalized_config();
  config.allow_partial_activation = true;
  PartialChargePolicy policy(utility, /*min_soc=*/0.3);
  Simulator sim(utility, config, util::Rng(4));
  const auto report = sim.run(policy);
  EXPECT_GT(report.partial_activations, 0u);
  EXPECT_EQ(report.energy_violations, 0u);
}

TEST(Simulator, PartialActivationForbiddenByDefault) {
  const auto utility = detect(6, 0.4);
  PartialChargePolicy policy(utility, 0.3);
  Simulator sim(utility, normalized_config(), util::Rng(5));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.partial_activations, 0u);
  EXPECT_GT(report.energy_violations, 0u);  // its partial picks get refused
}

TEST(Simulator, HarvestBackendMultiDayRun) {
  const auto utility = detect(10, 0.4);
  SimConfig config;
  config.backend = EnergyBackend::kHarvest;
  config.days = 3;
  config.slots_per_day = 48;
  config.slot_minutes = 15.0;
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, config, util::Rng(6));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.slots_simulated, 144u);
  ASSERT_EQ(report.daily_average.size(), 3u);
  EXPECT_GT(report.total_utility, 0.0);
  // Physical recharge is slower than the idealized model around dawn/dusk:
  // violations are expected but the system must still deliver utility.
  EXPECT_GT(report.average_utility_per_slot, 0.1);
}

TEST(Simulator, FaultInjectionDegradesUtility) {
  const auto utility = detect(10, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;

  auto healthy_config = normalized_config(5);
  SchedulePolicy policy_a(schedule);
  Simulator healthy(utility, healthy_config, util::Rng(8));
  const auto healthy_report = healthy.run(policy_a);

  auto faulty_config = normalized_config(5);
  faulty_config.faults.kind = FaultKind::kTransient;
  faulty_config.faults.failure_rate_per_slot = 0.05;
  faulty_config.faults.repair_slots = 8;
  SchedulePolicy policy_b(schedule);
  Simulator faulty(utility, faulty_config, util::Rng(8));
  const auto faulty_report = faulty.run(policy_b);

  EXPECT_GT(faulty_report.failures_injected, 0u);
  EXPECT_GT(faulty_report.failed_selections, 0u);
  EXPECT_LT(faulty_report.total_utility, healthy_report.total_utility);
  EXPECT_EQ(healthy_report.failures_injected, 0u);
}

TEST(Simulator, ZeroFailureRateChangesNothing) {
  const auto utility = detect(6, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  auto config = normalized_config();
  config.faults.kind = FaultKind::kTransient;
  config.faults.failure_rate_per_slot = 0.0;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, config, util::Rng(9));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.failures_injected, 0u);
  EXPECT_EQ(report.failed_selections, 0u);
  const auto eval = core::evaluate(problem, schedule);
  EXPECT_NEAR(report.average_utility_per_slot, eval.per_slot_average, 1e-9);
}

TEST(Simulator, OnlinePolicyRoutesAroundFailures) {
  // With failures, the online greedy (which sees readiness each slot) keeps
  // positive utility because it substitutes healthy ready nodes.
  const auto utility = detect(12, 0.4);
  auto config = normalized_config(5);
  config.faults.kind = FaultKind::kTransient;
  config.faults.failure_rate_per_slot = 0.1;
  config.faults.repair_slots = 2;
  OnlineGreedyPolicy policy(utility);
  Simulator sim(utility, config, util::Rng(10));
  const auto report = sim.run(policy);
  EXPECT_GT(report.failures_injected, 0u);
  EXPECT_GT(report.total_utility, 0.0);
  // The online policy never selects a down node (its ready flag is off).
  EXPECT_EQ(report.failed_selections, 0u);
}

TEST(ScheduleRepairPolicy, MatchesScheduleWhenEnergyIsIdeal) {
  const auto utility = detect(8, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  ScheduleRepairPolicy policy(schedule, utility);
  Simulator sim(utility, normalized_config(), util::Rng(20));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.energy_violations, 0u);
  const auto eval = core::evaluate(problem, schedule);
  EXPECT_NEAR(report.average_utility_per_slot, eval.per_slot_average, 1e-9);
}

TEST(ScheduleRepairPolicy, RecoversUtilityUnderHarvestBackend) {
  // The physical backend makes some nodes miss their slots; the repair
  // policy must beat the rigid schedule-follower, with fewer violations.
  const auto utility = detect(14, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;

  SimConfig config;
  config.backend = EnergyBackend::kHarvest;
  config.days = 5;
  config.slots_per_day = 48;
  config.slot_minutes = 15.0;
  config.pattern = energy::ChargingPattern{};

  SchedulePolicy rigid(schedule);
  Simulator sim_a(utility, config, util::Rng(21));
  const auto rigid_report = sim_a.run(rigid);

  ScheduleRepairPolicy repair(schedule, utility);
  Simulator sim_b(utility, config, util::Rng(21));
  const auto repair_report = sim_b.run(repair);

  EXPECT_LT(repair_report.energy_violations, rigid_report.energy_violations);
  EXPECT_GE(repair_report.total_utility, rigid_report.total_utility);
}

TEST(ScheduleRepairPolicy, Validation) {
  const auto utility = detect(4, 0.4);
  core::PeriodicSchedule schedule(4, 4);
  EXPECT_THROW(ScheduleRepairPolicy(schedule, nullptr), std::invalid_argument);
  EXPECT_THROW(ScheduleRepairPolicy(core::PeriodicSchedule(3, 4), utility),
               std::invalid_argument);
  EXPECT_THROW(ScheduleRepairPolicy(schedule, utility, 1.5),
               std::invalid_argument);
}

TEST(Simulator, SocRecordingShapeAndRange) {
  const auto utility = detect(5, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  auto config = normalized_config(2);
  config.record_soc = true;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, config, util::Rng(30));
  const auto report = sim.run(policy);
  ASSERT_EQ(report.soc_trace.size(), 96u);  // 2 days x 48 slots
  for (const auto& row : report.soc_trace) {
    ASSERT_EQ(row.size(), 5u);
    for (const double soc : row) {
      EXPECT_GE(soc, 0.0);
      EXPECT_LE(soc, 1.0);
    }
  }
  // Every node starts full.
  for (const double soc : report.soc_trace.front()) EXPECT_DOUBLE_EQ(soc, 1.0);
}

TEST(Simulator, SocRecordingOffByDefault) {
  const auto utility = detect(3, 0.4);
  OnlineGreedyPolicy policy(utility);
  Simulator sim(utility, normalized_config(), util::Rng(31));
  EXPECT_TRUE(sim.run(policy).soc_trace.empty());
}

TEST(Simulator, FailureRateValidation) {
  const auto utility = detect(2, 0.4);
  auto config = normalized_config();
  config.faults.kind = FaultKind::kTransient;
  config.faults.failure_rate_per_slot = -0.1;
  EXPECT_THROW(Simulator(utility, config, util::Rng(11)), std::invalid_argument);
  config.faults.failure_rate_per_slot = 1.5;
  EXPECT_THROW(Simulator(utility, config, util::Rng(11)), std::invalid_argument);
}

TEST(Simulator, Validation) {
  const auto utility = detect(2, 0.4);
  SimConfig config = normalized_config();
  config.days = 0;
  EXPECT_THROW(Simulator(utility, config, util::Rng(7)), std::invalid_argument);
  config = normalized_config();
  config.slot_minutes = 0.0;
  EXPECT_THROW(Simulator(utility, config, util::Rng(7)), std::invalid_argument);
  EXPECT_THROW(Simulator(nullptr, normalized_config(), util::Rng(7)),
               std::invalid_argument);
}

TEST(SchedulePolicy, SelectsTiledSlots) {
  core::PeriodicSchedule schedule(2, 4);
  schedule.set_active(1, 2);
  SchedulePolicy policy(schedule);
  FleetState state;
  state.global_slot = 6;  // 6 % 4 == 2
  state.soc.assign(2, 1.0);
  state.ready.assign(2, 1);
  EXPECT_EQ(policy.select(state), (std::vector<std::size_t>{1}));
  state.global_slot = 5;
  EXPECT_TRUE(policy.select(state).empty());
}

TEST(OnlineGreedyPolicy, SkipsUnreadyAndStopsAtMinGain) {
  const auto utility = detect(3, 0.4);
  OnlineGreedyPolicy policy(utility, /*min_gain=*/0.3);
  FleetState state;
  state.global_slot = 0;
  state.soc = {1.0, 1.0, 1.0};
  state.ready = {1, 0, 1};
  const auto picks = policy.select(state);
  // First pick gains 0.4 > 0.3; second would gain 0.24 < 0.3. Node 1 is
  // not ready and can never be picked.
  EXPECT_EQ(picks.size(), 1u);
  EXPECT_NE(picks[0], 1u);
}

TEST(PartialChargePolicy, Validation) {
  const auto utility = detect(2, 0.4);
  EXPECT_THROW(PartialChargePolicy(utility, 0.0), std::invalid_argument);
  EXPECT_THROW(PartialChargePolicy(utility, 1.5), std::invalid_argument);
  EXPECT_THROW(PartialChargePolicy(nullptr, 0.5), std::invalid_argument);
  EXPECT_THROW(OnlineGreedyPolicy(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cool::sim
