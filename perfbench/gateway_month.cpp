// gateway-month: the paper's daily adaptation loop, in-process, one caller,
// default thread count. One 30-day month on n=200 sensors / 40 targets is
// repeated for the run length; each day
//   1. advances the weather             (energy::DayWeatherProcess)
//   2. estimates rho-hat from probe traces
//                                       (energy::generate_daily_trace,
//                                        energy::estimate_fleet_pattern)
//   3. plans the day                    (core::WeatherAdaptivePlanner::plan_day)
//   4. disseminates at 15% link loss    (proto::ScheduleDissemination)
//   5. runs the day with faults and lossy collection
//                                       (sim::ResilientRuntime, collect=true)
//   6. scores delivered coverage.
// Every repetition of the month must match a one-thread reference month bit
// for bit.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coold_client.h"
#include "core/evaluator.h"
#include "core/lazy_greedy.h"
#include "core/passive_greedy.h"
#include "core/planner.h"
#include "core/problem.h"
#include "energy/pattern.h"
#include "energy/trace.h"
#include "energy/weather.h"
#include "net/network.h"
#include "net/radio.h"
#include "net/routing.h"
#include "planner_panel.h"
#include "proto/dissemination.h"
#include "proto/link.h"
#include "report.h"
#include "sim/runtime.h"
#include "spans.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace coolbench {

namespace {

namespace core = cool::core;
namespace energy = cool::energy;
namespace net = cool::net;
namespace proto = cool::proto;
namespace sim = cool::sim;

constexpr std::size_t kDays = 30;
constexpr std::size_t kSensors = 200;
constexpr std::size_t kTargets = 40;
constexpr int kProbes = 5;
constexpr int kSetupDeployments = 8;  // deployments per set-up round
constexpr std::uint64_t kWeatherSeed = 2011;
constexpr std::size_t kPanelDays = 8;

std::uint64_t day_seed(std::uint64_t seed, std::size_t day, std::uint64_t salt) {
  return mix_seed(seed, day * 0x10000 + salt);
}

// plan_day takes its pattern from a plain function pointer; the month feeds
// it the day's fleet estimate through this slot (one caller, one thread).
energy::ChargingPattern g_estimate;
energy::ChargingPattern estimated_pattern(energy::Weather) { return g_estimate; }

struct Deployment {
  // Members are built in declaration order: the tree and the link model keep
  // pointers to `network`, which therefore never moves after construction.
  Deployment(net::Network built, const proto::LinkModelConfig& link_config)
      : network(std::move(built)),
        tree(network, net::choose_best_sink(network)),
        links(network, link_config) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  net::Network network;
  net::RoutingTree tree;
  proto::LinkModel links;
};

// The deployment, link loss and fault rate are those of
// examples/gateway_day.cpp, at n=200 / 40 targets.
std::unique_ptr<Deployment> deploy(std::uint64_t seed) {
  net::NetworkConfig config;
  config.sensor_count = kSensors;
  config.target_count = kTargets;
  config.region_side = 140.0;
  config.sensing_radius = 40.0;
  config.comm_radius = 45.0;
  cool::util::Rng rng(seed);
  proto::LinkModelConfig link_config;
  link_config.global_loss = 0.15;
  return std::make_unique<Deployment>(net::make_random_network(config, rng),
                                      link_config);
}

// One set-up round: the mean build time in seconds of kSetupDeployments
// deployments, each drawn from its own seed, so one deployment's shape does
// not decide it. setup_s is the median over rounds, and a round runs before
// each month of the timed window: the build takes a few ms, and host
// contention drifts over seconds, so rounds bunched at the start of a run
// would all sample the same moment.
double setup_round(std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < kSetupDeployments; ++k) deploy(mix_seed(seed, 0xDE9 + k));
  return ms_between(start, Clock::now()) / 1000.0 / kSetupDeployments;
}

struct DayResult {
  double delivered_per_slot = 0.0;
  double delivered_fraction = 0.0;
  double planned_period_utility = 0.0;
  bool planned = false;
  bool rho_greater_than_one = true;
  std::size_t slots_per_period = 0;
  std::size_t periods = 0;
  proto::DisseminationReport dissemination;
  sim::RuntimeReport runtime;
};

class Month {
 public:
  Month(const Deployment& deployment, std::uint64_t seed)
      : deployment_(&deployment), seed_(seed) {
    utility_ = core::Problem::detection_instance(deployment.network, 0.4,
                                                 energy::ChargingPattern{}, 1)
                   .slot_utility_ptr();
    trace_config_.mode = energy::TraceConfig::Mode::kCycling;
    core::PlannerConfig planner_config;
    planner_config.pattern_for = &estimated_pattern;
    planner_.emplace(utility_, planner_config);
  }

  const std::shared_ptr<const cool::sub::SubmodularFunction>& utility() const {
    return utility_;
  }

  // Restarts the month's weather chain. The chain's own seed is fixed, so
  // every run plans the same mix of weather days and the per-seed spread
  // measures the system, not how rainy the drawn month was; --seed draws
  // the deployment, the probe traces, the link losses and the faults.
  void restart() {
    weather_.emplace(cool::util::Rng(kWeatherSeed), energy::Weather::kSunny);
  }

  DayResult run_day(std::size_t day, Spans& spans) {
    Spans::Scope root(spans, "gateway.day", day);
    DayResult out;
    energy::Weather weather;
    {
      Spans::Scope span(spans, "energy.weather", day);
      weather = weather_->advance();
    }
    std::vector<energy::ChargingTrace> traces;
    {
      Spans::Scope span(spans, "energy.trace", day);
      for (int probe = 0; probe < kProbes; ++probe) {
        cool::util::Rng rng(day_seed(seed_, day, 300 + probe));
        traces.push_back(energy::generate_daily_trace(
            trace_config_, weather, probe, static_cast<int>(day), rng));
      }
    }
    {
      Spans::Scope span(spans, "energy.estimate", day);
      g_estimate = energy::estimate_fleet_pattern(traces, trace_config_.node,
                                                  10.0 * 60.0, 12.0 * 60.0);
    }
    std::optional<core::DayPlan> plan;
    {
      Spans::Scope span(spans, "core.plan_day", day);
      plan.emplace(planner_->plan_day(weather));
    }
    out.rho_greater_than_one = plan->rho_greater_than_one;
    out.slots_per_period = plan->slots_per_period;
    out.periods = plan->periods;
    if (plan->periods == 0) return out;  // no full charge cycle fits today
    out.planned = true;
    out.planned_period_utility =
        plan->expected_average_utility * static_cast<double>(plan->slots_per_period);
    std::optional<core::PeriodicSchedule> effective;
    {
      Spans::Scope span(spans, "proto.disseminate", day);
      const proto::ScheduleDissemination dissemination(
          deployment_->network, deployment_->tree, deployment_->links, radio_);
      cool::util::Rng rng(day_seed(seed_, day, 0x915));
      out.dissemination = dissemination.disseminate(plan->schedule, rng);
      effective.emplace(proto::ScheduleDissemination::effective_schedule(
          plan->schedule, out.dissemination));
    }
    {
      Spans::Scope span(spans, "sim.runtime", day);
      sim::RuntimeConfig config;
      config.slots = plan->periods * plan->slots_per_period;
      config.pattern = plan->pattern;
      config.faults.kind = sim::FaultKind::kTransient;
      config.faults.failure_rate_per_slot = 0.01;
      config.collect = true;
      // The collection channel of bench/bench_protocol_stack.cpp.
      config.collection.subslots = 48;
      config.collection.csma_persist = 0.35;
      sim::ResilientRuntime runtime(utility_, deployment_->network,
                                    deployment_->tree, deployment_->links,
                                    radio_, std::move(*effective), config,
                                    cool::util::Rng(day_seed(seed_, day, 0x517)));
      out.runtime = runtime.run();
    }
    {
      Spans::Scope span(spans, "sim.score", day);
      out.delivered_per_slot = out.runtime.average_delivered_per_slot;
      out.delivered_fraction = out.runtime.delivered_fraction;
    }
    return out;
  }

 private:
  const Deployment* deployment_;
  std::uint64_t seed_;
  std::shared_ptr<const cool::sub::SubmodularFunction> utility_;
  energy::TraceConfig trace_config_;
  net::RadioEnergyModel radio_;
  std::optional<core::WeatherAdaptivePlanner> planner_;
  std::optional<energy::DayWeatherProcess> weather_;
};

// Reference period utility of the day's problem: lazy greedy when rho > 1,
// the passive greedy otherwise.
double reference_utility(const Month& month, const DayResult& day,
                         std::unique_ptr<core::Problem>& problem_out) {
  problem_out = std::make_unique<core::Problem>(
      month.utility(), day.slots_per_period, day.periods,
      day.rho_greater_than_one);
  const core::PeriodicSchedule schedule =
      day.rho_greater_than_one
          ? core::LazyGreedyScheduler{}.schedule(*problem_out).schedule
          : core::PassiveGreedyScheduler{}.schedule(*problem_out).schedule;
  double total = 0.0;
  for (double u : core::evaluate(*problem_out, schedule).slot_utilities) total += u;
  return total;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

RunResult run_gateway_month(const RunOptions& options) {
  RunResult result;
  const std::uint64_t seed = options.seed;

  std::vector<double> setup_s{setup_round(seed)};
  const std::unique_ptr<Deployment> deployment = deploy(mix_seed(seed, 0xDE9));
  std::fprintf(stderr, "coolbench: sink reaches %zu/%zu sensors\n",
               deployment->tree.reachable_count(), kSensors);
  Month month(*deployment, seed);

  // One-thread reference month, plus each day's reference planner utility.
  std::vector<DayResult> reference(kDays);
  std::vector<double> reference_utility_of(kDays, 0.0);
  std::vector<std::unique_ptr<core::Problem>> day_problems(kDays);
  {
    cool::util::set_thread_count(1);
    Spans off(false);
    month.restart();
    for (std::size_t day = 0; day < kDays; ++day) {
      reference[day] = month.run_day(day, off);
      if (reference[day].planned)
        reference_utility_of[day] =
            reference_utility(month, reference[day], day_problems[day]);
    }
    cool::util::set_thread_count(0);
  }

  // Timed window: whole days at default threads, the month repeated. In a
  // traced run months alternate untraced / traced for the overhead figure.
  Spans traced(true);
  Spans untraced(false);
  double traced_ms = 0.0, untraced_ms = 0.0;
  std::vector<double> day_ms, ratio;
  std::vector<double> month_rate;  // days per second of each whole month
  std::size_t days = 0, mismatches = 0, month_index = 0;
  const Clock::time_point start = Clock::now();
  const double budget_ms = options.seconds * 1000.0;
  // A traced run covers at least one untraced and one traced month.
  while (days == 0 || (options.trace && month_index < 2) ||
         ms_between(start, Clock::now()) < budget_ms) {
    Spans& spans = options.trace && month_index % 2 == 1 ? traced : untraced;
    setup_s.push_back(setup_round(seed));
    month.restart();
    double month_ms = 0.0;
    std::size_t month_days = 0;
    for (std::size_t day = 0; day < kDays; ++day) {
      const Clock::time_point day_start = Clock::now();
      const DayResult got = month.run_day(day, spans);
      const double ms = ms_between(day_start, Clock::now());
      (spans.enabled() ? traced_ms : untraced_ms) += ms;
      month_ms += ms;
      day_ms.push_back(ms);
      ++days;
      ++month_days;
      const DayResult& want = reference[day];
      if (!same_bits(got.delivered_per_slot, want.delivered_per_slot) ||
          !same_bits(got.delivered_fraction, want.delivered_fraction) ||
          !same_bits(got.planned_period_utility, want.planned_period_utility))
        ++mismatches;
      if (got.planned && reference_utility_of[day] > 0.0)
        ratio.push_back(got.planned_period_utility / reference_utility_of[day]);
      if (!options.trace && ms_between(start, Clock::now()) >= budget_ms) break;
    }
    if (month_days == kDays) month_rate.push_back(kDays / (month_ms / 1000.0));
    ++month_index;
  }
  const double window_s = ms_between(start, Clock::now()) / 1000.0;
  result.attempted = days;
  result.failed = mismatches;
  if (mismatches > 0)
    result.fail(std::to_string(mismatches) + " of " + std::to_string(days) +
                " days differ from the one-thread reference month");
  std::fprintf(stderr, "coolbench: %zu days in %.2f s; day latency samples %zu\n",
               days, window_s, day_ms.size());

  if (!options.trace) {
    result.add("latency_p50_ms", median(day_ms), "ms");
    // Gateway days per second: the median over whole months, so a burst of
    // host noise inside one month does not move the run's figure; a run too
    // short for a whole month falls back to all its days.
    result.add("throughput_rps",
               month_rate.empty() ? static_cast<double>(days) / window_s
                                  : median(month_rate),
               "1/s");
    result.add("plan_utility_ratio", mean(ratio), "ratio");
    result.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
    result.add("setup_s", median(setup_s), "s");
    return result;
  }

  result.add("latency.samples", static_cast<double>(day_ms.size()), "count");
  result.add("latency.p99_ms", quantile(day_ms, tail_quantile(day_ms.size())), "ms");
  const auto totals = traced.totals();
  const auto per_day = [&](const char* name) {
    const auto it = totals.find(name);
    const auto root = totals.find("gateway.day");
    if (it == totals.end() || root == totals.end()) {
      result.fail(std::string("the traced month recorded no ") + name + " span");
      return 0.0;
    }
    return it->second.self_ms / static_cast<double>(root->second.count);
  };
  result.add("energy.trace_ms", per_day("energy.trace"), "ms");
  result.add("energy.estimate_ms", per_day("energy.estimate"), "ms");
  result.add("core.plan_day_ms", per_day("core.plan_day"), "ms");
  result.add("proto.disseminate_ms", per_day("proto.disseminate"), "ms");
  result.add("sim.runtime_ms", per_day("sim.runtime"), "ms");
  double delivered = 0, targeted = 0, tx = 0, originated = 0, fresh = 0,
         collection_tx = 0, retries = 0, collisions = 0;
  for (const DayResult& day : reference) {
    delivered += static_cast<double>(day.dissemination.nodes_delivered);
    targeted += static_cast<double>(day.dissemination.nodes_targeted);
    tx += static_cast<double>(day.dissemination.data_transmissions +
                              day.dissemination.ack_transmissions);
    originated += static_cast<double>(day.runtime.packets_originated);
    fresh += static_cast<double>(day.runtime.packets_delivered);
    collection_tx += static_cast<double>(day.runtime.collection_transmissions);
    retries += static_cast<double>(day.runtime.collection_retries);
    collisions += static_cast<double>(day.runtime.collisions);
  }
  const auto ratio_of = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  result.add("proto.delivered_share", ratio_of(delivered, targeted), "share");
  result.add("proto.tx_per_node", ratio_of(tx, targeted), "ratio");
  result.add("net.collection.delivered_share", ratio_of(fresh, originated),
             "share");
  result.add("net.collection.tx_per_delivered", ratio_of(collection_tx, fresh),
             "ratio");
  result.add("net.collection.retries", retries / kDays, "count");
  result.add("net.collection.collisions", collisions / kDays, "count");

  std::vector<PanelProblem> panel;
  cool::util::Rng rng(day_seed(seed, 0, 0xD1E));
  for (std::size_t day = 0; day < kDays && panel.size() < kPanelDays; ++day) {
    if (!day_problems[day] || !reference[day].rho_greater_than_one) continue;
    PanelProblem problem;
    problem.problem = day_problems[day].get();
    problem.dead.assign(kSensors, 0);
    for (int k = 0; k < 8; ++k)
      problem.dead[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kSensors) - 1))] = 1;
    panel.push_back(std::move(problem));
  }
  if (!panel.empty()) planner_panel(panel, result);

  result.add("trace.unaccounted_share",
             1.0 - traced.layer_self_ms("gateway.day") / traced_ms, "share");
  result.add("trace.overhead_share",
             (traced_ms / static_cast<double>(month_index / 2 * kDays)) /
                     (untraced_ms / static_cast<double>((month_index + 1) / 2 * kDays)) -
                 1.0,
             "share");
  traced.write_jsonl(options.workdir + "/" + options.workload + ".spans.jsonl");
  return result;
}

}  // namespace coolbench
