#include "sim/campaign.h"

#include <fstream>
#include <stdexcept>

#include "net/radio.h"
#include "net/routing.h"
#include "obs/obs.h"
#include "util/csv.h"
#include "util/parallel.h"

namespace cool::sim {

void CampaignReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("CampaignReport::write_csv: cannot open " + path);
  util::CsvWriter csv(out);
  csv.write_row({"day", "weather", "rho", "slots", "avg_utility",
                 "energy_violations", "failures", "delivered", "targeted"});
  for (const auto& day : days) {
    csv.cell(static_cast<long long>(day.day))
        .cell(std::string_view(energy::weather_name(day.weather)))
        .cell(day.rho)
        .cell(static_cast<long long>(day.slots))
        .cell(day.average_utility)
        .cell(static_cast<long long>(day.energy_violations))
        .cell(static_cast<long long>(day.failures))
        .cell(static_cast<long long>(day.assignments_delivered))
        .cell(static_cast<long long>(day.assignments_targeted));
    csv.end_row();
  }
}

CampaignRunner::CampaignRunner(const net::Network& network,
                               std::shared_ptr<const sub::SubmodularFunction> utility,
                               CampaignConfig config, util::Rng rng)
    : network_(&network), utility_(std::move(utility)), config_(config),
      rng_(std::move(rng)) {
  if (!utility_) throw std::invalid_argument("CampaignRunner: null utility");
  if (utility_->ground_size() != network.sensor_count())
    throw std::invalid_argument("CampaignRunner: utility/network mismatch");
  if (config.days == 0) throw std::invalid_argument("CampaignRunner: zero days");
}

CampaignReport CampaignRunner::run() const {
  COOL_SPAN("campaign.run", "sim");
  core::PlannerConfig planner_config;
  planner_config.working_minutes = config_.working_minutes;
  const core::WeatherAdaptivePlanner planner(utility_, planner_config);

  // The weather chain is the one sequential dependency between days (a
  // Markov process), so it is rolled forward serially up front. Everything
  // else a day touches is either read-only (network, utility, planner) or
  // derived from a day-indexed RNG fork, so days are then simulated
  // independently and fanned out across the pool; rows land in a
  // day-indexed vector and the campaign aggregates are folded in day
  // order, making the report bit-identical at every thread count.
  std::vector<energy::Weather> day_weather(config_.days);
  {
    energy::DayWeatherProcess weather(rng_.fork(1), config_.initial_weather);
    for (std::size_t day = 0; day < config_.days; ++day) {
      day_weather[day] = weather.today();
      weather.advance();
    }
  }

  // Dissemination fixtures (built once; links are static).
  std::optional<net::RoutingTree> tree;
  std::optional<net::LinkModel> links;
  const net::RadioEnergyModel radio;
  if (config_.dissemination) {
    tree.emplace(*network_, net::choose_best_sink(*network_));
    links.emplace(*network_, *config_.dissemination);
  }

  CampaignReport report;
  report.days.resize(config_.days);
  std::vector<double> day_utility(config_.days, 0.0);

  util::parallel_chunks(config_.days, [&](std::size_t day) {
    const auto plan = planner.plan_day(day_weather[day]);
    CampaignDay& row = report.days[day];
    row.day = day;
    row.weather = plan.weather;
    row.rho = plan.pattern.rho();

    if (plan.periods == 0) return;  // unusable day

    core::PeriodicSchedule schedule = plan.schedule;
    if (config_.dissemination) {
      const proto::ScheduleDissemination dissemination(*network_, *tree,
                                                       *links, radio);
      util::Rng proto_rng = rng_.fork(1000 + day);
      const auto delivery = dissemination.disseminate(schedule, proto_rng);
      row.assignments_delivered = delivery.nodes_delivered;
      row.assignments_targeted = delivery.nodes_targeted;
      schedule =
          proto::ScheduleDissemination::effective_schedule(schedule, delivery);
    }

    SimConfig sim_config;
    sim_config.backend = config_.backend;
    sim_config.days = 1;
    sim_config.slots_per_day = plan.slots_per_period * plan.periods;
    sim_config.slot_minutes = plan.pattern.slot_minutes();
    sim_config.pattern = plan.pattern;
    sim_config.initial_weather = plan.weather;
    sim_config.failure_rate_per_slot = config_.failure_rate_per_slot;
    sim_config.repair_slots = config_.repair_slots;

    std::unique_ptr<ActivationPolicy> policy;
    if (config_.repair_policy) {
      policy = std::make_unique<ScheduleRepairPolicy>(schedule, utility_);
    } else {
      policy = std::make_unique<SchedulePolicy>(schedule);
    }
    Simulator simulator(utility_, sim_config, rng_.fork(2000 + day));
    const auto result = simulator.run(*policy);

    row.slots = result.slots_simulated;
    row.average_utility = result.average_utility_per_slot;
    row.energy_violations = result.energy_violations;
    row.failures = result.failures_injected;
    day_utility[day] = result.total_utility;
  });

  double utility_sum = 0.0;
  for (std::size_t day = 0; day < config_.days; ++day) {
    const CampaignDay& row = report.days[day];
    utility_sum += day_utility[day];
    report.total_slots += row.slots;
    report.total_violations += row.energy_violations;
    report.total_failures += row.failures;
  }
  report.average_utility =
      report.total_slots == 0
          ? 0.0
          : utility_sum / static_cast<double>(report.total_slots);
  return report;
}

std::vector<CampaignReport> CampaignRunner::run_trials(
    std::size_t trials) const {
  if (trials == 0)
    throw std::invalid_argument("CampaignRunner::run_trials: zero trials");
  // Each trial is a full campaign under a decorrelated RNG stream (child
  // 3000 + trial of this runner's generator). Trials fan out across the
  // pool; a trial's inner day fan-out then runs inline on the thread that
  // runs the trial, so nesting stays deadlock-free and results match the
  // serial order.
  std::vector<CampaignReport> reports(trials);
  util::parallel_chunks(trials, [&](std::size_t trial) {
    const CampaignRunner trial_runner(*network_, utility_, config_,
                                      rng_.fork(3000 + trial));
    reports[trial] = trial_runner.run();
  });
  return reports;
}

}  // namespace cool::sim
