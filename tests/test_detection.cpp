#include "submodular/detection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace cool::sub {
namespace {

TEST(DetectionUtility, EmptySetIsZero) {
  const DetectionUtility fn({0.4, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(fn.value({}), 0.0);
}

TEST(DetectionUtility, SingletonEqualsProbability) {
  const DetectionUtility fn({0.4, 0.7});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0}), 0.4);
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{1}), 0.7);
}

TEST(DetectionUtility, PairMatchesClosedForm) {
  const DetectionUtility fn({0.4, 0.4});
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 1}), 1.0 - 0.36, 1e-12);
}

TEST(DetectionUtility, DuplicatesIgnored) {
  const DetectionUtility fn({0.4, 0.4});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0, 0, 0}), 0.4);
}

TEST(DetectionUtility, MarginalMatchesMissProduct) {
  const DetectionUtility fn({0.4, 0.4, 0.4});
  const auto state = fn.make_state();
  EXPECT_DOUBLE_EQ(state->marginal(0), 0.4);
  state->add(0);
  EXPECT_NEAR(state->marginal(1), 0.6 * 0.4, 1e-12);
  state->add(1);
  EXPECT_NEAR(state->marginal(2), 0.36 * 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(state->marginal(0), 0.0);  // already in the set
}

TEST(DetectionUtility, MaxValue) {
  const DetectionUtility fn({0.5, 0.5});
  EXPECT_DOUBLE_EQ(fn.max_value(), 0.75);
}

TEST(DetectionUtility, CloneIsIndependent) {
  const DetectionUtility fn({0.4, 0.4});
  const auto a = fn.make_state();
  a->add(0);
  const auto b = a->clone();
  b->add(1);
  EXPECT_DOUBLE_EQ(a->value(), 0.4);
  EXPECT_NEAR(b->value(), 0.64, 1e-12);
}

TEST(DetectionUtility, Validation) {
  EXPECT_THROW(DetectionUtility({1.5}), std::invalid_argument);
  EXPECT_THROW(DetectionUtility({-0.1}), std::invalid_argument);
  const DetectionUtility fn({0.4});
  const auto state = fn.make_state();
  EXPECT_THROW(state->marginal(1), std::out_of_range);
  EXPECT_THROW(state->add(1), std::out_of_range);
  EXPECT_THROW(fn.value(std::vector<std::size_t>{5}), std::out_of_range);
}

TEST(MultiTargetDetection, SumsPerTargetUtilities) {
  // Two targets: t0 covered by {0,1}, t1 covered by {1,2}. p = 0.4.
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0, 1}, {1, 2}}, 0.4);
  EXPECT_EQ(fn.target_count(), 2u);
  // S = {1} covers both: 0.4 + 0.4.
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{1}), 0.8, 1e-12);
  // S = {0, 2}: each target gets one sensor.
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 2}), 0.8, 1e-12);
  // Full set: each target has two sensors: 2·(1 − 0.36).
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 1, 2}), 1.28, 1e-12);
  EXPECT_NEAR(fn.max_value(), 1.28, 1e-12);
}

TEST(MultiTargetDetection, MarginalOnlyCountsCoveredTargets) {
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0, 1}, {1, 2}}, 0.4);
  const auto state = fn.make_state();
  EXPECT_NEAR(state->marginal(1), 0.8, 1e-12);   // covers both targets
  EXPECT_NEAR(state->marginal(0), 0.4, 1e-12);   // covers one
  state->add(0);
  EXPECT_NEAR(state->marginal(1), 0.6 * 0.4 + 0.4, 1e-12);
}

TEST(MultiTargetDetection, WeightsScaleTargets) {
  MultiTargetDetectionUtility::Target t0{{{0, 0.5}}, 3.0};
  const MultiTargetDetectionUtility fn(1, {t0});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0}), 1.5);
}

TEST(MultiTargetDetection, SensorNotCoveringAnythingHasZeroGain) {
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0}}, 0.4);
  const auto state = fn.make_state();
  EXPECT_DOUBLE_EQ(state->marginal(2), 0.0);
}

TEST(MultiTargetDetection, Validation) {
  MultiTargetDetectionUtility::Target bad_sensor{{{5, 0.4}}, 1.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_sensor}), std::out_of_range);
  MultiTargetDetectionUtility::Target bad_p{{{0, 1.4}}, 1.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_p}), std::invalid_argument);
  MultiTargetDetectionUtility::Target bad_w{{{0, 0.4}}, 0.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_w}), std::invalid_argument);
}

TEST(MultiTargetDetection, EmptyTargetListIsZeroFunction) {
  const MultiTargetDetectionUtility fn(4, {});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0, 1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(fn.max_value(), 0.0);
}

// Differential tests of the CSR state against reference_detection(): a
// deterministic schedule-like workload records every observable double --
// batched gains over all elements, scalar gains, and value() after each
// add -- and the two traces must be identical to the last bit.
std::vector<double> run_trace(const SubmodularFunction& fn,
                              std::uint64_t seed) {
  const auto state = fn.make_state();
  const std::size_t n = fn.ground_size();
  std::vector<std::size_t> all(n);
  for (std::size_t e = 0; e < n; ++e) all[e] = e;
  std::vector<double> gains(n, 0.0);
  std::vector<double> trace;
  util::Rng rng(seed);
  std::vector<std::uint8_t> in_set(n, 0);
  for (std::size_t round = 0; round < n; ++round) {
    state->marginal_batch(all, gains);
    trace.insert(trace.end(), gains.begin(), gains.end());
    for (std::size_t e = 0; e < n; ++e) trace.push_back(state->marginal(e));
    // Add a random not-yet-added element (plus the occasional duplicate
    // add, which must be a no-op for both states).
    std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    while (in_set[pick]) pick = (pick + 1) % n;
    state->add(pick);
    in_set[pick] = 1;
    if (round % 3 == 0) state->add(pick);
    trace.push_back(state->value());
  }
  // reset() must take both states back to the identical empty trace.
  state->reset();
  state->marginal_batch(all, gains);
  trace.insert(trace.end(), gains.begin(), gains.end());
  trace.push_back(state->value());
  return trace;
}

void expect_matches_reference(const MultiTargetDetectionUtility& fn,
                              std::uint64_t seed) {
  const auto reference = reference_detection(fn);
  ASSERT_EQ(reference->ground_size(), fn.ground_size());
  EXPECT_EQ(reference->max_value(), fn.max_value());
  const auto expected = run_trace(*reference, seed);
  const auto trace = run_trace(fn, seed);
  ASSERT_EQ(trace.size(), expected.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(trace[i], expected[i]) << "trace index " << i;
}

// rows[i]: a duplicate-free random subset of [0, items).
std::vector<std::vector<std::size_t>> random_rows(std::size_t count,
                                                  std::size_t items,
                                                  util::Rng& rng) {
  std::vector<std::vector<std::size_t>> rows(count);
  for (auto& row : rows) {
    const auto fan = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(items)));
    std::vector<std::uint8_t> used(items, 0);
    for (std::size_t k = 0; k < fan; ++k) {
      const auto item = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(items) - 1));
      if (used[item]) continue;
      used[item] = 1;
      row.push_back(item);
    }
  }
  return rows;
}

TEST(DetectionReference, MultiTargetDetectionDifferentialUniform) {
  // The paper's evaluation oracle (uniform p = 0.4) across random coverage
  // relations: the CSR state must match the vector-of-pairs reference on
  // every gain, including after every add.
  for (const std::uint64_t seed : {11ull, 77ull, 501ull}) {
    util::Rng rng(seed);
    const std::size_t sensors = 6 + seed % 20;
    const std::size_t targets = 3 + seed % 11;
    // covers[i] = sensors covering target i.
    const auto covers = random_rows(targets, sensors, rng);
    expect_matches_reference(
        MultiTargetDetectionUtility::uniform(sensors, covers, 0.4), seed);
  }
}

TEST(DetectionReference, MultiTargetDetectionDifferentialWeightedRandomProbs) {
  // Heterogeneous probabilities and target weights: the weighted_miss
  // precompute must stay exactly (weight * miss), so gains remain
  // bit-identical to the reference's (weight * miss) * p evaluation.
  for (const std::uint64_t seed : {19ull, 333ull}) {
    util::Rng rng(seed);
    const std::size_t sensors = 15;
    std::vector<MultiTargetDetectionUtility::Target> targets(9);
    for (auto& target : targets) {
      target.weight = rng.uniform(0.25, 4.0);
      const auto covers = random_rows(1, sensors, rng)[0];
      for (const auto sensor : covers)
        target.detectors.emplace_back(sensor, rng.uniform(0.05, 0.95));
    }
    expect_matches_reference(
        MultiTargetDetectionUtility(sensors, std::move(targets)), seed);
  }
}

}  // namespace
}  // namespace cool::sub
