#include "core/planner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/passive_greedy.h"
#include "energy/trace.h"
#include "net/network.h"
#include "submodular/detection.h"
#include "util/rng.h"

namespace cool::core {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

TEST(Planner, SunnyDayMatchesPaperStructure) {
  const WeatherAdaptivePlanner planner(detect(20, 0.4));
  const auto plan = planner.plan_day(energy::Weather::kSunny);
  EXPECT_EQ(plan.slots_per_period, 4u);   // rho = 3
  EXPECT_EQ(plan.periods, 12u);           // 12 x 60 min in a 12 h day
  EXPECT_TRUE(plan.rho_greater_than_one);
  EXPECT_GT(plan.expected_average_utility, 0.0);
  const Problem problem(detect(20, 0.4), plan.slots_per_period, plan.periods,
                        plan.rho_greater_than_one);
  EXPECT_TRUE(plan.schedule.feasible(problem));
}

TEST(Planner, WorseWeatherLowersUtility) {
  const WeatherAdaptivePlanner planner(detect(30, 0.4));
  const auto sunny = planner.plan_day(energy::Weather::kSunny);
  const auto overcast = planner.plan_day(energy::Weather::kOvercast);
  EXPECT_GT(overcast.slots_per_period, sunny.slots_per_period);
  EXPECT_LT(overcast.expected_average_utility, sunny.expected_average_utility);
}

TEST(Planner, RhoBelowOneUsesPassiveGreedy) {
  // Custom pattern source: fast chargers regardless of weather.
  PlannerConfig config;
  config.pattern_for = [](energy::Weather) {
    return energy::ChargingPattern{30.0, 15.0};  // rho = 1/2
  };
  const WeatherAdaptivePlanner planner(detect(10, 0.4), config);
  const auto plan = planner.plan_day(energy::Weather::kSunny);
  EXPECT_FALSE(plan.rho_greater_than_one);
  // Every sensor active in T-1 slots.
  for (std::size_t v = 0; v < 10; ++v)
    EXPECT_EQ(plan.schedule.active_count(v), plan.slots_per_period - 1);
}

TEST(Planner, DayTooShortYieldsEmptyPlan) {
  PlannerConfig config;
  config.working_minutes = 30.0;  // shorter than one sunny period (60 min)
  const WeatherAdaptivePlanner planner(detect(5, 0.4), config);
  const auto plan = planner.plan_day(energy::Weather::kSunny);
  EXPECT_EQ(plan.periods, 0u);
  EXPECT_DOUBLE_EQ(plan.expected_average_utility, 0.0);
  for (std::size_t v = 0; v < 5; ++v)
    EXPECT_EQ(plan.schedule.active_count(v), 0u);
}

TEST(Planner, PlansWholeForecast) {
  const WeatherAdaptivePlanner planner(detect(15, 0.4));
  const std::vector<energy::Weather> forecast{
      energy::Weather::kSunny, energy::Weather::kPartlyCloudy,
      energy::Weather::kRain, energy::Weather::kSunny};
  const auto plans = planner.plan(forecast);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0].weather, energy::Weather::kSunny);
  EXPECT_EQ(plans[2].weather, energy::Weather::kRain);
  // Sunny days plan identically.
  EXPECT_DOUBLE_EQ(plans[0].expected_average_utility,
                   plans[3].expected_average_utility);
}

TEST(Planner, Validation) {
  EXPECT_THROW(WeatherAdaptivePlanner(nullptr), std::invalid_argument);
  PlannerConfig bad;
  bad.working_minutes = 0.0;
  EXPECT_THROW(WeatherAdaptivePlanner(detect(2, 0.4), bad), std::invalid_argument);
  bad = {};
  bad.pattern_for = nullptr;
  EXPECT_THROW(WeatherAdaptivePlanner(detect(2, 0.4), bad), std::invalid_argument);
}

// plan_day against the reference schedulers on the gateway shape (n=200,
// 40 targets, 140 m region, sensing 40 m, p=0.4): the schedule bytes and
// the expected-utility bits must equal those of the plain scan
// (GreedyScheduler) when rho > 1 and of PassiveGreedyScheduler otherwise,
// on the same Problem.

std::shared_ptr<const sub::SubmodularFunction> gateway_utility() {
  net::NetworkConfig config;
  config.sensor_count = 200;
  config.target_count = 40;
  config.region_side = 140.0;
  config.sensing_radius = 40.0;
  config.comm_radius = 45.0;
  util::Rng rng(2011);
  return Problem::detection_instance(net::make_random_network(config, rng), 0.4,
                                     energy::ChargingPattern{}, 1)
      .slot_utility_ptr();
}

void expect_reference_plan(
    const std::shared_ptr<const sub::SubmodularFunction>& utility,
    const DayPlan& plan, const std::string& what) {
  ASSERT_GT(plan.periods, 0u) << what;
  const Problem problem(utility, plan.slots_per_period, plan.periods,
                        plan.rho_greater_than_one);
  const PeriodicSchedule reference =
      plan.rho_greater_than_one ? GreedyScheduler().schedule(problem).schedule
                                : PassiveGreedyScheduler().schedule(problem).schedule;
  EXPECT_TRUE(plan.schedule == reference) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.expected_average_utility),
            std::bit_cast<std::uint64_t>(evaluate(problem, reference).per_slot_average))
      << what;
}

TEST(PlanDayDifferential, WeatherPatternsMatchReferenceSchedulers) {
  const auto utility = gateway_utility();
  const WeatherAdaptivePlanner planner(utility);
  for (const auto weather :
       {energy::Weather::kSunny, energy::Weather::kPartlyCloudy,
        energy::Weather::kOvercast, energy::Weather::kRain})
    expect_reference_plan(utility, planner.plan_day(weather),
                          energy::weather_name(weather));
}

// plan_day takes its pattern from a plain function pointer, as in the
// gateway's month loop; the test sets the estimate through this slot.
energy::ChargingPattern g_estimate;
energy::ChargingPattern estimated_pattern(energy::Weather) { return g_estimate; }

TEST(PlanDayDifferential, EstimatedPatternsMatchReferenceSchedulers) {
  struct Case {
    const char* what;
    energy::Weather weather;
    energy::TraceConfig trace;
    double from_minute, to_minute;
    bool rho_greater_than_one;
  };
  energy::TraceConfig cycling;
  cycling.mode = energy::TraceConfig::Mode::kCycling;
  // A large cell and a frugal node, estimated over the morning's first
  // charge from empty: the battery refills faster than it drains.
  energy::TraceConfig fast_charging = cycling;
  fast_charging.cell.area_m2 = 0.05;
  fast_charging.node.active_power_w = 0.1;
  fast_charging.initial_soc = 0.0;
  const std::vector<Case> cases = {
      {"sunny estimate", energy::Weather::kSunny, cycling, 600.0, 720.0, true},
      {"overcast estimate", energy::Weather::kOvercast, cycling, 600.0, 720.0, true},
      {"fast-charging estimate", energy::Weather::kSunny, fast_charging, 240.0,
       480.0, false},
  };
  const auto utility = gateway_utility();
  PlannerConfig config;
  config.pattern_for = &estimated_pattern;
  const WeatherAdaptivePlanner planner(utility, config);
  for (const Case& c : cases) {
    std::vector<energy::ChargingTrace> traces;
    for (int probe = 0; probe < 5; ++probe) {
      util::Rng rng(100 + static_cast<std::uint64_t>(probe));
      traces.push_back(
          energy::generate_daily_trace(c.trace, c.weather, probe, 3, rng));
    }
    g_estimate = energy::estimate_fleet_pattern(traces, c.trace.node,
                                                c.from_minute, c.to_minute);
    const DayPlan plan = planner.plan_day(c.weather);
    EXPECT_EQ(plan.rho_greater_than_one, c.rho_greater_than_one) << c.what;
    expect_reference_plan(utility, plan, c.what);
  }
}

}  // namespace
}  // namespace cool::core
