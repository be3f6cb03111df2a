// Online estimation of the realized charge ratio ρ′ under supply
// uncertainty.
//
// The schedulers plan against a nominal ρ (or the Section V ρ′ derived from
// the stochastic model's *means*), but clouds stretch real recharge times:
// a plan that was feasible at dawn silently browns nodes out by noon. This
// module is the measurement half of the closed loop: it ingests realized
// per-node recharge and discharge durations (piggybacked on heartbeats in a
// deployment; fed directly by the simulator here), maintains
//   * per-node EWMA means (fast, O(1), tracks heterogeneous shading),
//   * fleet-level EWMA means over all samples in arrival order, and
//   * a drift detector that flags when the fleet ρ̂′ departs from the
//     planned ρ by more than a relative threshold,
// and hands the adaptive replanner (sim/runtime) per-node availability
// verdicts. Units are caller-defined (minutes or slots) — only ratios and
// comparisons against the planned ρ in the same units matter.
#pragma once

#include <cstddef>
#include <vector>

namespace cool::energy {

struct RhoEstimatorConfig {
  // EWMA weight of the newest sample (0 < alpha <= 1).
  double ewma_alpha = 0.25;
  // Relative departure |ρ̂′/ρ − 1| that arms the drift flag.
  double drift_threshold = 0.25;
  // Recharge + discharge samples (fleet-wide, each kind) required before
  // drift can fire — keeps the detector quiet during warm-up.
  std::size_t min_samples = 4;
};

// Throws std::invalid_argument on out-of-range knobs.
void validate_estimator_config(const RhoEstimatorConfig& config);

// Per-node and fleet-level ρ′ estimation with drift detection.
class RhoPrimeEstimator {
 public:
  // `planned_rho` is the ratio the current schedule was built for, in the
  // same units the record_* calls use (e.g. T−1 recharge slots per 1
  // discharge slot in the normalized runtime).
  RhoPrimeEstimator(std::size_t node_count, double planned_rho,
                    const RhoEstimatorConfig& config = {});

  void record_recharge(std::size_t node, double duration);
  void record_discharge(std::size_t node, double duration);
  // Forget a node's history: its ρ̂′ falls back to the planned ρ until
  // fresh samples arrive. Used when a benched node is re-admitted on
  // probation — its stale estimate must not instantly re-bench it. Fleet
  // aggregates are untouched.
  void reset_node(std::size_t node);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  double planned_rho() const noexcept { return planned_rho_; }
  const RhoEstimatorConfig& config() const noexcept { return config_; }

  // Per-node EWMA means; 0 before the node's first sample of that kind.
  double node_recharge_mean(std::size_t node) const;
  double node_discharge_mean(std::size_t node) const;
  std::size_t node_recharge_samples(std::size_t node) const;
  // Per-node ρ̂′ = recharge EWMA / discharge EWMA; falls back to the
  // planned ρ until the node has at least one sample of each kind.
  double node_rho(std::size_t node) const;

  // Fleet EWMA means over all samples in arrival order; 0 before any.
  double fleet_recharge_mean() const noexcept { return fleet_recharge_mean_; }
  double fleet_discharge_mean() const noexcept { return fleet_discharge_mean_; }
  std::size_t recharge_samples() const noexcept { return recharge_samples_; }
  std::size_t discharge_samples() const noexcept { return discharge_samples_; }
  // Fleet ρ̂′; the planned ρ until both kinds have samples.
  double fleet_rho() const;

  // Signed relative departure of the fleet ρ̂′ from plan: ρ̂′/ρ − 1.
  // 0 until min_samples of each kind have been seen.
  double drift() const;
  // |drift()| >= drift_threshold.
  bool drifted() const;

 private:
  struct NodeState {
    double recharge_mean = 0.0;
    double discharge_mean = 0.0;
    std::size_t recharge_samples = 0;
    std::size_t discharge_samples = 0;
  };

  void ewma(double& mean, std::size_t seen, double sample) const;

  RhoEstimatorConfig config_;
  double planned_rho_;
  std::vector<NodeState> nodes_;
  double fleet_recharge_mean_ = 0.0;
  double fleet_discharge_mean_ = 0.0;
  std::size_t recharge_samples_ = 0;
  std::size_t discharge_samples_ = 0;
};

}  // namespace cool::energy
