// Differential suite for the exact greedy family (paper Algorithm 1). The
// plain scan (GreedyScheduler) and CELF (LazyGreedyScheduler) must produce
// byte-identical results — same placement order, same step-gain bits, same
// schedule — with the fused slot-row kernel on (kAuto) or forced off
// (kScalar), at every thread count. Oracle accounting is per scheduler, so
// each scheduler's count must match across kernels and thread counts.
//
// Instances are seeded svc::make_problem networks chosen to stress the
// tie-break contract (ascending sensor id, then slot): exact ties, exact
// saturation (late placements all gain 0), the benchmark's own shapes, and a
// slot count above FusedSlotEvaluator::kMaxSlots, which takes the unfused
// path even at kAuto.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "submodular/function.h"
#include "submodular/kernel.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "util/parallel.h"

namespace cool::core {
namespace {

class ExactGreedyDifferential : public ::testing::Test {
 protected:
  void TearDown() override {
    sub::set_marginal_kernel(saved_kernel_);
    util::set_thread_count(0);
  }

 private:
  sub::MarginalKernel saved_kernel_ = sub::marginal_kernel();
};

svc::NetworkSpec spec(std::size_t sensors, std::size_t targets,
                      std::uint64_t seed) {
  svc::NetworkSpec s;
  s.sensors = sensors;
  s.targets = targets;
  s.seed = seed;
  return s;
}

void expect_identical(const GreedyResult& reference, const GreedyResult& run,
                      const std::string& what) {
  ASSERT_EQ(reference.steps.size(), run.steps.size()) << what;
  for (std::size_t i = 0; i < reference.steps.size(); ++i) {
    const GreedyStep& a = reference.steps[i];
    const GreedyStep& b = run.steps[i];
    ASSERT_EQ(a.sensor, b.sensor) << what << " step " << i;
    ASSERT_EQ(a.slot, b.slot) << what << " step " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.gain),
              std::bit_cast<std::uint64_t>(b.gain))
        << what << " step " << i;
  }
  EXPECT_TRUE(reference.schedule == run.schedule) << what;
}

// Every exact-greedy variant on one instance must reproduce the one-thread
// fused plain scan, which is returned for instance-shape checks.
GreedyResult expect_all_variants_identical(const svc::NetworkSpec& s,
                                           const std::string& label) {
  const Problem problem = svc::make_problem(s);
  sub::set_marginal_kernel(sub::MarginalKernel::kAuto);
  util::set_thread_count(1);
  const GreedyResult reference = GreedyScheduler().schedule(problem);

  for (const bool lazy : {false, true}) {
    std::size_t oracle_calls = 0;
    bool first = true;
    for (const auto kernel :
         {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
      sub::set_marginal_kernel(kernel);
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        util::set_thread_count(threads);
        const GreedyResult run = lazy
                                     ? LazyGreedyScheduler().schedule(problem)
                                     : GreedyScheduler().schedule(problem);
        const std::string what =
            label + (lazy ? " lazy" : " greedy") +
            (kernel == sub::MarginalKernel::kAuto ? " kAuto" : " kScalar") +
            " threads=" + std::to_string(threads);
        expect_identical(reference, run, what);
        if (first) oracle_calls = run.oracle_calls;
        first = false;
        EXPECT_EQ(run.oracle_calls, oracle_calls) << what;
      }
    }
  }
  return reference;
}

TEST_F(ExactGreedyDifferential, ExactTies) {
  // A sensing radius beyond the region diagonal (100·√2) makes every sensor
  // cover every target with the same probability: at each step all unplaced
  // sensors tie, so the schedule is decided by the tie-break alone.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto s = spec(24, 12, seed);
    s.sensing_radius = 150.0;
    const auto reference =
        expect_all_variants_identical(s, "ties seed " + std::to_string(seed));
    EXPECT_EQ(reference.steps[0].gain, reference.steps[1].gain);
  }
}

TEST_F(ExactGreedyDifferential, Saturation) {
  // detect_p = 1: one active sensor per slot drives its targets' miss
  // probability to exactly 0, so once every slot covers everything the
  // remaining placements are exact zero-gain ties.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    auto s = spec(60, 8, seed);
    s.sensing_radius = 45.0;
    s.detect_p = 1.0;
    const auto reference = expect_all_variants_identical(
        s, "saturation seed " + std::to_string(seed));
    EXPECT_EQ(reference.steps.back().gain, 0.0);
  }
}

TEST_F(ExactGreedyDifferential, BenchmarkShapes) {
  // The shapes the benchmark plans: n=30 / 50 targets (coold-small-open
  // tenants), n=200 / 40 targets on a 140 m region with r=40 (gateway-month),
  // and n=800 / 800 targets with r=6 (coold-large-closed).
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    auto s = spec(30, 50, seed);
    expect_all_variants_identical(s, "n=30 seed " + std::to_string(seed));
  }
  for (const std::uint64_t seed : {31u, 32u}) {
    auto s = spec(200, 40, seed);
    s.region_side = 140.0;
    s.sensing_radius = 40.0;
    s.comm_radius = 45.0;
    expect_all_variants_identical(s, "n=200 seed " + std::to_string(seed));
  }
  auto s = spec(800, 800, 41);
  s.sensing_radius = 6.0;
  expect_all_variants_identical(s, "n=800 seed 41");
}

TEST_F(ExactGreedyDifferential, UnfusedSlotCount) {
  // T = 70 exceeds FusedSlotEvaluator::kMaxSlots, so even kAuto takes the
  // per-slot marginal_batch path.
  static_assert(70 > sub::FusedSlotEvaluator::kMaxSlots);
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    auto s = spec(40, 30, seed);
    s.slots_per_period = 70;
    s.periods = 1;
    expect_all_variants_identical(s, "T=70 seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace cool::core
