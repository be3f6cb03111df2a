#include "core/planner.h"

#include <stdexcept>
#include <utility>

#include "core/lazy_greedy.h"
#include "core/passive_greedy.h"

namespace cool::core {

namespace {

// Shared scaffolding of the chance-constrained planners: derive the margin
// pattern and the problem, leaving the scheduling scheme to the caller.
ChanceConstrainedPlan margin_plan_shell(
    const std::shared_ptr<const sub::SubmodularFunction>& utility,
    const energy::StochasticChargingModel& model, double quantile,
    std::size_t periods) {
  if (!utility)
    throw std::invalid_argument("plan_chance_constrained: null utility");
  if (periods == 0)
    throw std::invalid_argument("plan_chance_constrained: zero periods");
  ChanceConstrainedPlan plan;
  plan.quantile = quantile;
  plan.pattern = energy::pattern_at_quantile(model, quantile);
  plan.slots_per_period = plan.pattern.slots_per_period();
  plan.rho_greater_than_one = plan.pattern.rho() > 1.0;
  return plan;
}

// The greedy scheme the ρ regime picks: Algorithm 1 through the lazy greedy
// (byte-identical to the plain GreedyScheduler scan, which stays as the
// tests' reference) when ρ > 1, its passive dual otherwise.
PeriodicSchedule greedy_schedule(const Problem& problem) {
  return problem.rho_greater_than_one()
             ? LazyGreedyScheduler().schedule(problem).schedule
             : PassiveGreedyScheduler().schedule(problem).schedule;
}

}  // namespace

WeatherAdaptivePlanner::WeatherAdaptivePlanner(
    std::shared_ptr<const sub::SubmodularFunction> utility, PlannerConfig config)
    : utility_(std::move(utility)), config_(config) {
  if (!utility_) throw std::invalid_argument("WeatherAdaptivePlanner: null utility");
  if (config_.working_minutes <= 0.0)
    throw std::invalid_argument("WeatherAdaptivePlanner: working day <= 0");
  if (config_.pattern_for == nullptr)
    throw std::invalid_argument("WeatherAdaptivePlanner: null pattern source");
}

DayPlan WeatherAdaptivePlanner::plan_day(energy::Weather weather) const {
  DayPlan plan;
  plan.weather = weather;
  plan.pattern = config_.pattern_for(weather);
  plan.slots_per_period = plan.pattern.slots_per_period();
  plan.rho_greater_than_one = plan.pattern.rho() > 1.0;
  const double period_minutes =
      plan.pattern.slot_minutes() * static_cast<double>(plan.slots_per_period);
  plan.periods = static_cast<std::size_t>(config_.working_minutes / period_minutes);
  if (plan.periods == 0) {
    plan.schedule = PeriodicSchedule(utility_->ground_size(), plan.slots_per_period);
    return plan;  // day too short for one full charge cycle
  }

  const Problem problem(utility_, plan.slots_per_period, plan.periods,
                        plan.rho_greater_than_one);
  plan.schedule = greedy_schedule(problem);
  plan.expected_average_utility = evaluate(problem, plan.schedule).per_slot_average;
  return plan;
}

std::vector<DayPlan> WeatherAdaptivePlanner::plan(
    const std::vector<energy::Weather>& forecast) const {
  std::vector<DayPlan> plans;
  plans.reserve(forecast.size());
  for (const auto weather : forecast) plans.push_back(plan_day(weather));
  return plans;
}

ChanceConstrainedPlan plan_chance_constrained(
    std::shared_ptr<const sub::SubmodularFunction> utility,
    const energy::StochasticChargingModel& model, double quantile,
    std::size_t periods) {
  auto plan = margin_plan_shell(utility, model, quantile, periods);
  const Problem problem(utility, plan.slots_per_period, periods,
                        plan.rho_greater_than_one);
  plan.schedule = greedy_schedule(problem);
  plan.expected_average_utility = evaluate(problem, plan.schedule).per_slot_average;
  return plan;
}

ChanceConstrainedPlan plan_chance_constrained_lp(
    std::shared_ptr<const sub::MultiTargetDetectionUtility> utility,
    const energy::StochasticChargingModel& model, double quantile,
    std::size_t periods, util::Rng& rng, const LpScheduleOptions& options) {
  auto plan = margin_plan_shell(utility, model, quantile, periods);
  const Problem problem(utility, plan.slots_per_period, periods,
                        plan.rho_greater_than_one);
  auto lp = LpScheduler(options).schedule(problem, *utility, rng);
  plan.schedule = std::move(lp.schedule);
  plan.expected_average_utility = evaluate(problem, plan.schedule).per_slot_average;
  return plan;
}

}  // namespace cool::core
