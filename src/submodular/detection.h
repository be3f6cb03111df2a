// Detection-probability utilities (the paper's running example):
//   U_i(S) = 1 − Π_{v_j ∈ S ∩ V(O_i)} (1 − p_j)
// i.e. the probability that at least one active sensor covering target O_i
// detects an event there. The multi-target overall utility is the symmetric
// sum Σ_i U_i (Eq. (1)), optionally with per-target importance weights.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "submodular/function.h"

namespace cool::sub {

// Single-target detection utility: element j detects with probability p[j]
// (p[j] = 0 models "sensor j does not cover this target").
class DetectionUtility final : public SubmodularFunction {
 public:
  explicit DetectionUtility(std::vector<double> probabilities);

  std::size_t ground_size() const override { return p_.size(); }
  std::unique_ptr<EvalState> make_state() const override;
  double max_value() const override;

  const std::vector<double>& probabilities() const noexcept { return p_; }

 private:
  std::vector<double> p_;
};

// Multi-target detection utility over one shared sensor ground set:
//   U(S) = Σ_i w_i · (1 − Π_{j ∈ S ∩ cover_i} (1 − p_{ij})).
//
// Per-target coverage lists make marginal queries O(#targets covered by the
// sensor) instead of O(m).
//
// make_state() walks a flattened CSR (DESIGN.md section 15): one offsets
// array, one contiguous target-index stream and one contiguous probability
// stream, plus a maintained weighted_miss[t] = weight_t · miss_t gather
// array. reference_detection() below keeps the original per-sensor
// vector-of-pairs walk, which evaluates (weight · miss) · p
// left-associated; the CSR state stores that exact first product and
// multiplies by p in the same list order, so every gain is bit-for-bit
// identical to the reference.
class MultiTargetDetectionUtility final : public SubmodularFunction {
 public:
  struct Target {
    // (sensor index, detection probability) for every covering sensor.
    std::vector<std::pair<std::size_t, double>> detectors;
    double weight = 1.0;
  };

  MultiTargetDetectionUtility(std::size_t sensor_count, std::vector<Target> targets);

  // Uniform detection probability p for every (sensor, target) pair in the
  // coverage relation `covers[i]` = sensors covering target i. This is the
  // paper's evaluation setup with p = 0.4.
  static MultiTargetDetectionUtility uniform(
      std::size_t sensor_count,
      const std::vector<std::vector<std::size_t>>& covers, double p);

  std::size_t ground_size() const override { return sensor_count_; }
  std::size_t target_count() const noexcept { return targets_.size(); }
  std::unique_ptr<EvalState> make_state() const override;
  double max_value() const override;
  // Move-local refresh (DESIGN.md, "Incremental schedule repair"): a
  // marginal reads only its own row's targets, so a move refreshes just the
  // sensors sharing a target with the mover.
  std::unique_ptr<MoveScorer> make_move_scorer(
      const SlotPartition& partition) const override;

  const std::vector<Target>& targets() const noexcept { return targets_; }

 private:
  std::size_t sensor_count_;
  std::vector<Target> targets_;
  // The (sensor, target, p) relation as CSR struct-of-arrays:
  // csr_targets_/csr_probs_[csr_offsets_[e] .. csr_offsets_[e+1]) list
  // sensor e's (target, p) pairs in target order, then detector-list order
  // -- the reference's per-sensor list order, so the in-order gain
  // summation matches it term for term.
  std::vector<std::size_t> csr_offsets_;
  std::vector<std::uint32_t> csr_targets_;
  std::vector<double> csr_probs_;
  // target_weights_[i] = targets_[i].weight, densely packed for the
  // weighted-miss recompute on add().
  std::vector<double> target_weights_;
};

// The differential reference for `utility`: a utility over a copy of its
// targets whose make_state() is the original per-sensor vector-of-pairs
// walk and whose move scorer is the default rebuild loop. Tests compare
// every result of the CSR state and the move-local scorer with it, bit for
// bit; no production path constructs it.
std::unique_ptr<SubmodularFunction> reference_detection(
    const MultiTargetDetectionUtility& utility);

}  // namespace cool::sub
