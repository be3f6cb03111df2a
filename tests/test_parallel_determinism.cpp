// The parallel engine's headline contract: every scheduler, the evaluator,
// and the campaign runner produce bit-for-bit identical results at every
// thread count. Each determinism test runs the same workload at 1, 2, and 8
// scheduler threads and compares against the serial run with exact equality
// — no tolerances anywhere. One more test checks which paths may use the
// pool at all.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/lp_scheduler.h"
#include "core/passive_greedy.h"
#include "core/problem.h"
#include "core/stochastic_greedy.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/campaign.h"
#include "submodular/detection.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cool {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 8};

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(0); }
};

std::shared_ptr<sub::MultiTargetDetectionUtility> make_utility(std::size_t n) {
  // Deterministic mixed-fan-out coverage relation: 8 targets, 5 distinct
  // detectors each.
  std::vector<std::vector<std::size_t>> covers(8);
  for (std::size_t j = 0; j < covers.size(); ++j)
    for (std::size_t k = 0; k < 5; ++k)
      covers[j].push_back((3 * j + 5 * k + 1) % n);
  return std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(n, covers, 0.4));
}

core::Problem make_problem(std::size_t n, bool rho_gt_one) {
  return core::Problem(make_utility(n), 4, 3, rho_gt_one);
}

// Runs `schedule()` serially and at each parallel width; every run must
// reproduce the serial schedule, steps, and oracle count exactly.
template <typename Run>
void expect_identical_across_threads(Run&& run) {
  util::set_thread_count(1);
  const auto serial = run();
  const double serial_utility = serial.total_utility;
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const auto parallel = run();
    EXPECT_TRUE(parallel.schedule == serial.schedule)
        << "schedule diverged at " << threads << " threads";
    EXPECT_EQ(parallel.total_utility, serial_utility)
        << "utility diverged at " << threads << " threads";
    EXPECT_EQ(parallel.oracle_calls, serial.oracle_calls)
        << "oracle accounting diverged at " << threads << " threads";
  }
}

// Adapter: schedulers return {schedule, steps, oracle_calls}; attach the
// evaluated utility so the comparison covers the full numeric pipeline.
template <typename Result>
struct Outcome {
  core::PeriodicSchedule schedule;
  double total_utility;
  std::size_t oracle_calls;
};

template <typename Result>
Outcome<Result> outcome(const core::Problem& problem, const Result& result) {
  return {result.schedule,
          core::evaluate(problem, result.schedule).total_utility,
          result.oracle_calls};
}

TEST_F(ParallelDeterminism, GreedyScheduler) {
  for (const std::size_t n : {7u, 30u, 65u}) {
    const auto problem = make_problem(n, true);
    expect_identical_across_threads(
        [&] { return outcome(problem, core::GreedyScheduler().schedule(problem)); });
  }
}

TEST_F(ParallelDeterminism, LazyGreedyScheduler) {
  for (const std::size_t n : {7u, 30u, 65u}) {
    const auto problem = make_problem(n, true);
    expect_identical_across_threads([&] {
      return outcome(problem, core::LazyGreedyScheduler().schedule(problem));
    });
  }
}

TEST_F(ParallelDeterminism, StochasticGreedyScheduler) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const auto problem = make_problem(30, true);
    expect_identical_across_threads([&] {
      util::Rng rng(seed);  // fresh stream per run: same draws every time
      return outcome(
          problem, core::StochasticGreedyScheduler(0.1).schedule(problem, rng));
    });
  }
}

TEST_F(ParallelDeterminism, PassiveGreedyScheduler) {
  // n = 65 scans five 16-sensor chunks, the last holding one sensor.
  for (const std::size_t n : {7u, 30u, 65u}) {
    const auto problem = make_problem(n, false);
    expect_identical_across_threads([&] {
      return outcome(problem, core::PassiveGreedyScheduler().schedule(problem));
    });
  }
}

TEST_F(ParallelDeterminism, LpSchedulerRounding) {
  const auto utility = make_utility(18);
  const core::Problem problem(utility, 4, 1, true);
  util::set_thread_count(1);
  util::Rng rng(5);
  const auto serial = core::LpScheduler().schedule(problem, *utility, rng);
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    util::Rng par_rng(5);
    const auto parallel = core::LpScheduler().schedule(problem, *utility, par_rng);
    EXPECT_TRUE(parallel.schedule == serial.schedule) << threads << " threads";
    EXPECT_EQ(parallel.rounded_utility_per_period,
              serial.rounded_utility_per_period)
        << threads << " threads";
    EXPECT_EQ(parallel.rounds_drawn, serial.rounds_drawn);
  }
}

TEST_F(ParallelDeterminism, EvaluatorSlotFanOut) {
  const auto problem = make_problem(30, true);
  util::set_thread_count(1);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  const auto serial = core::evaluate(problem, schedule);
  const auto horizon = core::HorizonSchedule::tile(schedule, 3);
  const auto serial_horizon = core::evaluate(problem, horizon);
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const auto parallel = core::evaluate(problem, schedule);
    EXPECT_EQ(parallel.total_utility, serial.total_utility);
    EXPECT_EQ(parallel.slot_utilities, serial.slot_utilities);
    const auto parallel_horizon = core::evaluate(problem, horizon);
    EXPECT_EQ(parallel_horizon.total_utility, serial_horizon.total_utility);
    EXPECT_EQ(parallel_horizon.slot_utilities, serial_horizon.slot_utilities);
  }
}

TEST_F(ParallelDeterminism, ReusedEvaluatorMatchesOneShot) {
  const auto problem = make_problem(30, true);
  util::set_thread_count(2);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  core::Evaluator evaluator(problem);
  const auto first = evaluator(schedule);
  const auto second = evaluator(schedule);  // reused reset() states
  const auto one_shot = core::evaluate(problem, schedule);
  EXPECT_EQ(first.total_utility, one_shot.total_utility);
  EXPECT_EQ(second.total_utility, one_shot.total_utility);
  EXPECT_EQ(second.slot_utilities, one_shot.slot_utilities);
}

// One level of parallelism (DESIGN.md section 10): the exact greedies, the
// stochastic greedy and the evaluator run on the calling thread at any
// thread count. The pool counts every task it is handed, so a planner that
// forks shows up as a moving counter; passive greedy's chunked loss scan and
// a direct parallel_chunks are the positive controls.
TEST_F(ParallelDeterminism, PlanningAndEvaluationNeverFork) {
  if (!COOL_OBS_ENABLED) GTEST_SKIP() << "obs compiled out";
  util::set_thread_count(4);
  const obs::Counter& tasks = obs::metrics().counter("parallel.tasks");
  const auto forks = [&](auto&& body) {
    const std::uint64_t before = tasks.value();
    body();
    return tasks.value() - before;
  };

  svc::NetworkSpec spec;
  spec.sensors = 800;
  spec.targets = 800;
  spec.sensing_radius = 6.0;
  const core::Problem problem = svc::make_problem(spec);
  core::PeriodicSchedule schedule(1, 1);
  EXPECT_EQ(forks([&] {
              schedule = core::GreedyScheduler().schedule(problem).schedule;
            }),
            0u);
  EXPECT_EQ(forks([&] { core::LazyGreedyScheduler().schedule(problem); }), 0u);
  EXPECT_EQ(forks([&] {
              util::Rng rng(3);
              core::StochasticGreedyScheduler(0.1).schedule(problem, rng);
            }),
            0u);
  EXPECT_EQ(forks([&] { core::evaluate(problem, schedule); }), 0u);

  const auto passive = make_problem(40, false);
  EXPECT_GT(forks([&] { core::PassiveGreedyScheduler().schedule(passive); }),
            0u);
  EXPECT_GT(forks([&] { util::parallel_chunks(8, [](std::size_t) {}); }), 0u);
}

TEST_F(ParallelDeterminism, CampaignDayFanOut) {
  cool::net::NetworkConfig net_config;
  net_config.sensor_count = 12;
  net_config.target_count = 4;
  net_config.region_side = 120.0;
  net_config.sensing_radius = 45.0;
  net_config.comm_radius = 60.0;
  util::Rng net_rng(11);
  const auto network = net::make_random_network(net_config, net_rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(12, network.coverage(), 0.4));
  sim::CampaignConfig config;
  config.days = 6;
  config.failure_rate_per_slot = 0.02;

  const auto run_campaign = [&] {
    const sim::CampaignRunner runner(network, utility, config, util::Rng(77));
    return runner.run();
  };
  util::set_thread_count(1);
  const auto serial = run_campaign();
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const auto parallel = run_campaign();
    EXPECT_EQ(parallel.average_utility, serial.average_utility);
    EXPECT_EQ(parallel.total_slots, serial.total_slots);
    EXPECT_EQ(parallel.total_violations, serial.total_violations);
    EXPECT_EQ(parallel.total_failures, serial.total_failures);
    ASSERT_EQ(parallel.days.size(), serial.days.size());
    for (std::size_t day = 0; day < serial.days.size(); ++day) {
      EXPECT_EQ(parallel.days[day].weather, serial.days[day].weather);
      EXPECT_EQ(parallel.days[day].slots, serial.days[day].slots);
      EXPECT_EQ(parallel.days[day].average_utility,
                serial.days[day].average_utility)
          << "day " << day << " at " << threads << " threads";
      EXPECT_EQ(parallel.days[day].failures, serial.days[day].failures);
    }
  }
}

TEST_F(ParallelDeterminism, CampaignTrialsAreDecorrelatedButStable) {
  cool::net::NetworkConfig net_config;
  net_config.sensor_count = 10;
  net_config.target_count = 3;
  net_config.region_side = 100.0;
  net_config.sensing_radius = 45.0;
  util::Rng net_rng(4);
  const auto network = net::make_random_network(net_config, net_rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(10, network.coverage(), 0.4));
  sim::CampaignConfig config;
  config.days = 4;
  config.failure_rate_per_slot = 0.05;

  const sim::CampaignRunner runner(network, utility, config, util::Rng(9));
  util::set_thread_count(1);
  const auto serial = runner.run_trials(3);
  util::set_thread_count(4);
  const auto parallel = runner.run_trials(3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t trial = 0; trial < serial.size(); ++trial)
    EXPECT_EQ(parallel[trial].average_utility, serial[trial].average_utility)
        << "trial " << trial;
}

}  // namespace
}  // namespace cool
