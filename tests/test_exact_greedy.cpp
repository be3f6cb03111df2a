// Differential suite for the exact greedy family (paper Algorithm 1). The
// plain scan (GreedyScheduler) and the lazy greedy (LazyGreedyScheduler)
// must produce byte-identical results — same placement order, same
// step-gain bits, same schedule — on the production detection utility
// (fused slot-row kernel) and on sub::reference_detection() of it (the
// unfused vector-of-pairs reference), at every thread count. Oracle
// accounting is per scheduler, so each scheduler's count must match across
// utilities and thread counts, and the lazy greedy may never issue more
// calls than the scan.
//
// Instances are seeded networks chosen to stress the tie-break contract
// (ascending sensor id, then slot): exact ties, exact saturation (late
// placements all gain 0), the benchmark's own shapes, a slot count above
// FusedSlotEvaluator::kMaxSlots (unfused on either utility), dead sensors
// masked to zero gain (recompute_schedule's shape), unit-cell area
// coverage, and an all-overlap network where every placement makes most
// heap entries stale.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "core/repair.h"
#include "geometry/arrangement.h"
#include "submodular/area.h"
#include "submodular/detection.h"
#include "submodular/function.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cool::core {
namespace {

class ExactGreedyDifferential : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(0); }
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
  GreedyResult reference;  // the one-thread plain scan on `problem`
  std::size_t greedy_calls = 0;
  std::size_t lazy_calls = 0;
};

// `problem` with its slot utility replaced by `utility`.
Problem with_utility(const Problem& problem,
                     std::shared_ptr<const sub::SubmodularFunction> utility) {
  return Problem(std::move(utility), problem.slots_per_period(),
                 problem.periods(), problem.rho_greater_than_one());
}

std::shared_ptr<const sub::SubmodularFunction> reference_of(
    const std::shared_ptr<const sub::SubmodularFunction>& detection) {
  return sub::reference_detection(
      dynamic_cast<const sub::MultiTargetDetectionUtility&>(*detection));
}

// Every exact-greedy variant on `problem` and, when given, on
// `reference_problem` (the same instance over the reference utility) must
// reproduce the one-thread plain scan on `problem`, which is returned with
// each scheduler's oracle count for instance-shape checks.
Differential expect_all_variants_identical(const Problem& problem,
                                           const Problem* reference_problem,
                                           const std::string& label) {
  util::set_thread_count(1);
  Differential out{GreedyScheduler().schedule(problem)};
  const GreedyResult& reference = out.reference;

  for (const bool lazy : {false, true}) {
    std::size_t& oracle_calls = lazy ? out.lazy_calls : out.greedy_calls;
    bool first = true;
    for (const Problem* instance : {&problem, reference_problem}) {
      if (instance == nullptr) continue;
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        util::set_thread_count(threads);
        const GreedyResult run = lazy
                                     ? LazyGreedyScheduler().schedule(*instance)
                                     : GreedyScheduler().schedule(*instance);
        const std::string what =
            label + (lazy ? " lazy" : " greedy") +
            (instance == &problem ? " production" : " reference") +
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
  const Problem problem = svc::make_problem(s);
  const Problem reference =
      with_utility(problem, reference_of(problem.slot_utility_ptr()));
  return expect_all_variants_identical(problem, &reference, label);
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
  // T = 70 exceeds FusedSlotEvaluator::kMaxSlots, so even the production
  // utility takes the per-slot marginal_batch path.
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
    const Problem problem = with_utility(
        base, std::make_shared<MaskedUtility>(base.slot_utility_ptr(), dead));
    const Problem masked_reference = with_utility(
        base, std::make_shared<MaskedUtility>(
                  reference_of(base.slot_utility_ptr()), dead));
    const GreedyResult reference =
        expect_all_variants_identical(problem, &masked_reference,
                                      "masked seed " + std::to_string(seed))
            .reference;
    EXPECT_EQ(reference.steps.back().gain, 0.0);
  }
}

TEST_F(ExactGreedyDifferential, AreaCoverage) {
  // Area coverage, not detection: 60 disks of radius 1-3 over a 20 m square
  // sampled on 1 m cells, so every face area is a whole number of cells,
  // gains are small integers and most steps tie.
  for (const std::uint64_t seed : {71u, 72u, 73u, 74u}) {
    util::Rng rng(seed);
    std::vector<geom::Disk> disks;
    for (std::size_t v = 0; v < 60; ++v) {
      const geom::Vec2 center{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
      disks.emplace_back(center, rng.uniform(1.0, 3.0));
    }
    const Problem problem(
        std::make_shared<sub::AreaUtility>(std::make_shared<geom::Arrangement>(
            geom::Rect::square(20.0), disks, 20)),
        4, 1, true);
    expect_all_variants_identical(problem, nullptr,
                                  "area seed " + std::to_string(seed));
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
