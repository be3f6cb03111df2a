// Differential suite for the exact greedy family (paper Algorithm 1). The
// plain scan (GreedyScheduler) and the lazy greedy (LazyGreedyScheduler)
// must produce byte-identical results — same placement order, same
// step-gain bits, same schedule — with the fused slot-row kernel on (kAuto)
// or forced off (kScalar), at every thread count. Oracle accounting is per
// scheduler, so each scheduler's count must match across kernels and thread
// counts, and the lazy greedy may never issue more calls than the scan.
//
// Instances are seeded networks chosen to stress the tie-break contract
// (ascending sensor id, then slot): exact ties, exact saturation (late
// placements all gain 0), the benchmark's own shapes, a slot count above
// FusedSlotEvaluator::kMaxSlots (unfused even at kAuto), dead sensors masked
// to zero gain (recompute_schedule's shape), unit-weight max cover, and an
// all-overlap network where every placement makes most heap entries stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "core/repair.h"
#include "submodular/coverage.h"
#include "submodular/function.h"
#include "submodular/kernel.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "util/parallel.h"
#include "util/rng.h"

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

struct Differential {
  GreedyResult reference;  // the one-thread fused plain scan
  std::size_t greedy_calls = 0;
  std::size_t lazy_calls = 0;
};

// Every exact-greedy variant on one instance must reproduce the one-thread
// fused plain scan, which is returned with each scheduler's oracle count
// for instance-shape checks.
Differential expect_all_variants_identical(const Problem& problem,
                                           const std::string& label) {
  sub::set_marginal_kernel(sub::MarginalKernel::kAuto);
  util::set_thread_count(1);
  Differential out{GreedyScheduler().schedule(problem)};
  const GreedyResult& reference = out.reference;

  for (const bool lazy : {false, true}) {
    std::size_t& oracle_calls = lazy ? out.lazy_calls : out.greedy_calls;
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
  EXPECT_LE(out.lazy_calls, out.greedy_calls) << label;
  return out;
}

Differential expect_all_variants_identical(const svc::NetworkSpec& s,
                                           const std::string& label) {
  return expect_all_variants_identical(svc::make_problem(s), label);
}

TEST_F(ExactGreedyDifferential, ExactTies) {
  // A sensing radius beyond the region diagonal (100·√2) makes every sensor
  // cover every target with the same probability: at each step all unplaced
  // sensors tie, so the schedule is decided by the tie-break alone.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto s = spec(24, 12, seed);
    s.sensing_radius = 150.0;
    const GreedyResult reference =
        expect_all_variants_identical(s, "ties seed " + std::to_string(seed))
            .reference;
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
    const GreedyResult reference = expect_all_variants_identical(
        s, "saturation seed " + std::to_string(seed)).reference;
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
  const Differential large = expect_all_variants_identical(s, "n=800 seed 41");
  // One heap entry per sensor: on coold-large-closed's shape the lazy
  // greedy makes at most 2% of the plain scan's oracle calls.
  EXPECT_LE(large.lazy_calls * 50, large.greedy_calls)
      << "lazy " << large.lazy_calls << " vs greedy " << large.greedy_calls;
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

TEST_F(ExactGreedyDifferential, MaskedDeadSensors) {
  // recompute_schedule's shape: about 30% of the sensors dead, masked to an
  // exact zero gain in every slot. The masked states are not the flat
  // detection oracle, so every refresh takes the unfused path, and every
  // dead sensor lands in the zero-gain tail, ordered by the tie-break alone.
  for (const std::uint64_t seed : {61u, 62u, 63u, 64u}) {
    const Problem base = svc::make_problem(spec(120, 60, seed));
    util::Rng rng(seed);
    std::vector<std::uint8_t> dead(base.sensor_count());
    for (auto& d : dead) d = rng.uniform() < 0.3;
    const Problem problem(
        std::make_shared<MaskedUtility>(base.slot_utility_ptr(), dead),
        base.slots_per_period(), base.periods(), true);
    const GreedyResult reference = expect_all_variants_identical(
        problem, "masked seed " + std::to_string(seed)).reference;
    EXPECT_EQ(reference.steps.back().gain, 0.0);
  }
}

TEST_F(ExactGreedyDifferential, WeightedCoverage) {
  // Unit-weight max cover, not detection: each sensor covers 1-4 distinct
  // items of 20, so gains are small integers and most steps tie.
  for (const std::uint64_t seed : {71u, 72u, 73u, 74u}) {
    util::Rng rng(seed);
    const std::size_t sensors = 60, items = 20;
    std::vector<std::vector<std::size_t>> covers(sensors);
    for (auto& row : covers) {
      const auto k = rng.uniform_int(1, 4);
      while (row.size() < static_cast<std::size_t>(k)) {
        const auto item = static_cast<std::size_t>(rng.uniform_int(0, items - 1));
        if (std::find(row.begin(), row.end(), item) == row.end())
          row.push_back(item);
      }
    }
    const Problem problem(
        std::make_shared<sub::WeightedCoverage>(sensors, std::move(covers), items),
        4, 1, true);
    expect_all_variants_identical(problem,
                                  "coverage seed " + std::to_string(seed));
  }
}

TEST_F(ExactGreedyDifferential, AllOverlap) {
  // n=800, 4 targets, r=200: every sensor covers every target, so each
  // placement stales every entry whose best slot it hit — the most
  // refreshes per step of any shape. The plain scan is faster here.
  auto s = spec(800, 4, 81);
  s.sensing_radius = 200.0;
  expect_all_variants_identical(s, "all-overlap seed 81");
}

}  // namespace
}  // namespace cool::core
