// Scheduler-level differential tests for the fused slot-row argmax path
// (DESIGN.md section 15). The greedy family resolves a FusedSlotEvaluator
// once per schedule() call and, when available, walks each candidate's
// coverage row once for all T slots instead of once per slot. The states of
// sub::reference_detection() are not the CSR type, so they never fuse;
// comparing schedules on the production utility with schedules on its
// reference exercises fused-vs-unfused end to end: identical placements,
// identical step gains bit-for-bit, identical oracle accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/problem.h"
#include "core/stochastic_greedy.h"
#include "submodular/detection.h"
#include "submodular/function.h"
#include "util/rng.h"

namespace cool::core {
namespace {

std::shared_ptr<sub::MultiTargetDetectionUtility> random_utility(
    std::size_t sensors, std::size_t targets, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sub::MultiTargetDetectionUtility::Target> spec(targets);
  for (auto& target : spec) {
    target.weight = rng.uniform(0.5, 3.0);
    const auto fan = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    for (std::size_t k = 0; k < fan; ++k) {
      const auto sensor = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sensors) - 1));
      target.detectors.emplace_back(sensor, rng.uniform(0.1, 0.9));
    }
  }
  return std::make_shared<sub::MultiTargetDetectionUtility>(sensors,
                                                            std::move(spec));
}

void expect_same_result(const GreedyResult& a, const GreedyResult& b,
                        const char* what) {
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].sensor, b.steps[i].sensor) << what << " step " << i;
    EXPECT_EQ(a.steps[i].slot, b.steps[i].slot) << what << " step " << i;
    // Bit-for-bit: the fused kernel adds the same terms in the same order.
    EXPECT_EQ(a.steps[i].gain, b.steps[i].gain) << what << " step " << i;
  }
  EXPECT_TRUE(a.schedule == b.schedule) << what;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << what;
}

TEST(FusedScan, GreedyScheduleIdenticalAcrossKernels) {
  for (const std::uint64_t seed : {7ull, 99ull}) {
    const auto utility = random_utility(26, 12, seed);
    const Problem problem(utility, 4, 3, true);
    const Problem unfused(sub::reference_detection(*utility), 4, 3, true);
    const auto reference = GreedyScheduler().schedule(unfused);
    const auto fast = GreedyScheduler().schedule(problem);
    expect_same_result(reference, fast, "greedy");
  }
}

TEST(FusedScan, StochasticGreedyScheduleIdenticalAcrossKernels) {
  const auto utility = random_utility(30, 10, 5);
  const Problem problem(utility, 3, 3, true);
  const Problem unfused(sub::reference_detection(*utility), 3, 3, true);
  const StochasticGreedyScheduler scheduler(0.2);
  util::Rng reference_rng(1234);
  const auto reference = scheduler.schedule(unfused, reference_rng);
  util::Rng rng(1234);
  const auto fast = scheduler.schedule(problem, rng);
  expect_same_result(reference, fast, "stochastic");
}

TEST(FusedScan, ResolveFusedRequiresFastStatesOverOneUtility) {
  const auto utility = random_utility(16, 6, 42);

  // Fast states over one shared utility: fused path available.
  std::vector<std::unique_ptr<sub::EvalState>> fast;
  for (int t = 0; t < 3; ++t) fast.push_back(utility->make_state());
  EXPECT_TRUE(static_cast<bool>(sub::resolve_fused(fast)));

  // Reference states: no fused path (they are not the CSR type).
  const auto reference = sub::reference_detection(*utility);
  std::vector<std::unique_ptr<sub::EvalState>> scalar;
  for (int t = 0; t < 3; ++t) scalar.push_back(reference->make_state());
  EXPECT_FALSE(static_cast<bool>(sub::resolve_fused(scalar)));

  // States over two different utilities: rejected (rows don't alias).
  const auto other = random_utility(16, 6, 43);
  std::vector<std::unique_ptr<sub::EvalState>> mixed;
  mixed.push_back(utility->make_state());
  mixed.push_back(other->make_state());
  EXPECT_FALSE(static_cast<bool>(sub::resolve_fused(mixed)));

  // Empty slot list: nothing to fuse.
  const std::vector<std::unique_ptr<sub::EvalState>> empty;
  EXPECT_FALSE(static_cast<bool>(sub::resolve_fused(empty)));
}

// The fused kernel itself, checked directly against marginal():
// mid-schedule (states diverge after adds), the per-slot winner must be
// the FIRST strict maximum of marginal() over the candidate ids, with the
// exact gain value. Per the FusedSlotEvaluator contract the ids exclude
// every element any state holds (the odd elements added below never appear
// in the even-only candidate list).
TEST(FusedScan, FusedArgmaxMatchesMarginalMidSchedule) {
  const auto utility = random_utility(20, 8, 77);
  std::vector<std::unique_ptr<sub::EvalState>> states;
  for (int t = 0; t < 5; ++t) states.push_back(utility->make_state());
  states[0]->add(3);
  states[1]->add(7);
  states[1]->add(11);
  states[4]->add(3);

  const auto fused = sub::resolve_fused(states);
  ASSERT_TRUE(static_cast<bool>(fused));
  std::vector<const sub::EvalState*> ptrs;
  for (const auto& state : states) ptrs.push_back(state.get());
  std::vector<std::size_t> ids;
  for (std::size_t e = 0; e < 20; e += 2) ids.push_back(e);
  std::vector<double> best_gain(states.size(), -2.0);
  std::vector<std::size_t> best_index(states.size(), 99);
  fused.fn(ptrs.data(), ptrs.size(), ids.data(), ids.size(),
           best_gain.data(), best_index.data());
  for (std::size_t t = 0; t < states.size(); ++t) {
    std::size_t expect_arg = 0;
    double expect_gain = states[t]->marginal(ids[0]);
    for (std::size_t k = 1; k < ids.size(); ++k) {
      const double gain = states[t]->marginal(ids[k]);
      if (gain > expect_gain) {
        expect_gain = gain;
        expect_arg = k;
      }
    }
    EXPECT_EQ(best_index[t], expect_arg) << "slot " << t;
    EXPECT_EQ(best_gain[t], expect_gain) << "slot " << t;
  }
}

}  // namespace
}  // namespace cool::core
