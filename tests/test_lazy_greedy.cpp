#include "core/lazy_greedy.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/greedy.h"
#include "net/network.h"
#include "submodular/detection.h"
#include "util/rng.h"

namespace cool::core {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

Problem random_instance(std::size_t n, std::size_t m, std::size_t T,
                        std::uint64_t seed) {
  net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = m;
  util::Rng rng(seed);
  const auto network = net::make_random_network(config, rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
  return Problem(std::move(utility), T, 1, true);
}

TEST(LazyGreedy, RequiresRhoGreaterThanOne) {
  const Problem problem(detect(4, 0.4), 4, 1, false);
  EXPECT_THROW(LazyGreedyScheduler().schedule(problem), std::invalid_argument);
}

TEST(LazyGreedy, FeasibleAndComplete) {
  const auto problem = random_instance(40, 5, 4, 1);
  const auto result = LazyGreedyScheduler().schedule(problem);
  EXPECT_TRUE(result.schedule.feasible(problem));
  for (std::size_t v = 0; v < 40; ++v)
    EXPECT_EQ(result.schedule.active_count(v), 1u);
}

TEST(LazyGreedy, IssuesFewerOracleCallsOnStructuredInstances) {
  const auto problem = random_instance(120, 10, 4, 7);
  const auto plain = GreedyScheduler().schedule(problem);
  const auto lazy = LazyGreedyScheduler().schedule(problem);
  EXPECT_LT(lazy.oracle_calls, plain.oracle_calls / 2)
      << "lazy " << lazy.oracle_calls << " vs plain " << plain.oracle_calls;
}

TEST(LazyGreedy, StepGainsNonIncreasing) {
  const auto problem = random_instance(25, 3, 4, 11);
  const auto result = LazyGreedyScheduler().schedule(problem);
  for (std::size_t i = 1; i < result.steps.size(); ++i)
    EXPECT_LE(result.steps[i].gain, result.steps[i - 1].gain + 1e-9);
}

TEST(LazyGreedy, IdenticalSensorsBalancedAcrossSlots) {
  const Problem problem(detect(8, 0.4), 4, 1, true);
  const auto result = LazyGreedyScheduler().schedule(problem);
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_EQ(result.schedule.active_set(t).size(), 2u);
}

}  // namespace
}  // namespace cool::core
