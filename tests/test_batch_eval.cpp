// marginal_batch and reset() contracts across every oracle family: the
// batched gains must equal the scalar marginal() exactly (bit-for-bit —
// the parallel schedulers rely on it), and a reset() state must be
// indistinguishable from a freshly made one.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "geometry/deployment.h"
#include "submodular/area.h"
#include "submodular/concave.h"
#include "submodular/detection.h"
#include "submodular/function.h"

namespace cool::sub {
namespace {

// Batched gains equal scalar gains, for an empty context and after a few
// additions (states answer differently once elements are in the set).
void expect_batch_matches(const SubmodularFunction& fn) {
  std::vector<std::size_t> candidates;
  for (std::size_t e = 0; e < fn.ground_size(); ++e) candidates.push_back(e);
  std::vector<double> gains(candidates.size(), -1.0);

  const auto state = fn.make_state();
  for (int pass = 0; pass < 2; ++pass) {
    state->marginal_batch(candidates, gains);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      EXPECT_EQ(gains[i], state->marginal(candidates[i]))
          << "element " << candidates[i] << " pass " << pass;
    // Second pass: same check with a non-empty context.
    state->add(0);
    if (fn.ground_size() > 2) state->add(2);
  }
}

void expect_reset_matches_fresh(const SubmodularFunction& fn) {
  const auto state = fn.make_state();
  const auto fresh = fn.make_state();
  state->add(0);
  if (fn.ground_size() > 1) state->add(fn.ground_size() - 1);
  state->reset();
  EXPECT_EQ(state->value(), fresh->value());
  for (std::size_t e = 0; e < fn.ground_size(); ++e)
    EXPECT_EQ(state->marginal(e), fresh->marginal(e)) << "element " << e;
  // A reset state must accept the same build-up again.
  state->add(0);
  fresh->add(0);
  EXPECT_EQ(state->value(), fresh->value());
}

void expect_oracle_contracts(const SubmodularFunction& fn) {
  expect_batch_matches(fn);
  expect_reset_matches_fresh(fn);
}

std::vector<std::vector<std::size_t>> sample_covers() {
  // 6 sensors over 4 items, mixed fan-out.
  return {{0, 1}, {1}, {1, 2}, {3}, {0, 3}, {2}};
}

TEST(BatchEval, DetectionUtility) {
  expect_oracle_contracts(DetectionUtility({0.1, 0.4, 0.35, 0.9, 0.0, 0.6}));
}

TEST(BatchEval, MultiTargetDetectionUtility) {
  expect_oracle_contracts(
      MultiTargetDetectionUtility::uniform(6, sample_covers(), 0.4));
}

TEST(BatchEval, ConcaveOfModular) {
  expect_oracle_contracts(ConcaveOfModular(
      {1.0, 2.0, 0.5, 1.5, 3.0, 0.25},
      [](double x) { return std::log1p(x); }));
}

TEST(BatchEval, AreaUtility) {
  const geom::Rect region = geom::Rect::square(10.0);
  const std::vector<geom::Disk> disks{geom::Disk({4.0, 5.0}, 1.5),
                                      geom::Disk({6.0, 5.0}, 1.5),
                                      geom::Disk({5.0, 6.0}, 1.5)};
  expect_oracle_contracts(
      AreaUtility(std::make_shared<geom::Arrangement>(region, disks, 256)));
}

TEST(BatchEval, DefaultBatchRejectsShortGainsSpan) {
  const DetectionUtility fn({0.5, 0.5, 0.5});
  const auto state = fn.make_state();
  std::vector<std::size_t> candidates{0, 1, 2};
  std::vector<double> too_small(2);
  EXPECT_THROW(
      state->marginal_batch(candidates, too_small), std::invalid_argument);
}

}  // namespace
}  // namespace cool::sub
