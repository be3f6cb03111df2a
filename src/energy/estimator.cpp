#include "energy/estimator.h"

#include <cmath>
#include <stdexcept>

namespace cool::energy {

void validate_estimator_config(const RhoEstimatorConfig& config) {
  if (!(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0))
    throw std::invalid_argument(
        "RhoEstimatorConfig: ewma_alpha outside (0, 1]");
  if (config.drift_threshold <= 0.0)
    throw std::invalid_argument("RhoEstimatorConfig: drift_threshold <= 0");
}

RhoPrimeEstimator::RhoPrimeEstimator(std::size_t node_count, double planned_rho,
                                     const RhoEstimatorConfig& config)
    : config_(config), planned_rho_(planned_rho), nodes_(node_count) {
  if (node_count == 0)
    throw std::invalid_argument("RhoPrimeEstimator: zero nodes");
  if (planned_rho <= 0.0)
    throw std::invalid_argument("RhoPrimeEstimator: planned rho <= 0");
  validate_estimator_config(config);
}

void RhoPrimeEstimator::ewma(double& mean, std::size_t seen,
                             double sample) const {
  mean = seen == 0 ? sample
                   : mean + config_.ewma_alpha * (sample - mean);
}

void RhoPrimeEstimator::record_recharge(std::size_t node, double duration) {
  if (node >= nodes_.size())
    throw std::invalid_argument("RhoPrimeEstimator: node out of range");
  if (duration <= 0.0)
    throw std::invalid_argument("RhoPrimeEstimator: recharge duration <= 0");
  auto& state = nodes_[node];
  ewma(state.recharge_mean, state.recharge_samples, duration);
  ++state.recharge_samples;
  ewma(fleet_recharge_mean_, recharge_samples_, duration);
  ++recharge_samples_;
}

void RhoPrimeEstimator::record_discharge(std::size_t node, double duration) {
  if (node >= nodes_.size())
    throw std::invalid_argument("RhoPrimeEstimator: node out of range");
  if (duration <= 0.0)
    throw std::invalid_argument("RhoPrimeEstimator: discharge duration <= 0");
  auto& state = nodes_[node];
  ewma(state.discharge_mean, state.discharge_samples, duration);
  ++state.discharge_samples;
  ewma(fleet_discharge_mean_, discharge_samples_, duration);
  ++discharge_samples_;
}

void RhoPrimeEstimator::reset_node(std::size_t node) {
  if (node >= nodes_.size())
    throw std::invalid_argument("RhoPrimeEstimator: node out of range");
  nodes_[node] = NodeState{};
}

double RhoPrimeEstimator::node_recharge_mean(std::size_t node) const {
  return nodes_.at(node).recharge_mean;
}

double RhoPrimeEstimator::node_discharge_mean(std::size_t node) const {
  return nodes_.at(node).discharge_mean;
}

std::size_t RhoPrimeEstimator::node_recharge_samples(std::size_t node) const {
  return nodes_.at(node).recharge_samples;
}

double RhoPrimeEstimator::node_rho(std::size_t node) const {
  const auto& state = nodes_.at(node);
  if (state.recharge_samples == 0 || state.discharge_samples == 0)
    return planned_rho_;
  return state.recharge_mean / state.discharge_mean;
}

double RhoPrimeEstimator::fleet_rho() const {
  if (recharge_samples_ == 0 || discharge_samples_ == 0) return planned_rho_;
  return fleet_recharge_mean_ / fleet_discharge_mean_;
}

double RhoPrimeEstimator::drift() const {
  if (recharge_samples_ < config_.min_samples ||
      discharge_samples_ < config_.min_samples)
    return 0.0;
  return fleet_rho() / planned_rho_ - 1.0;
}

bool RhoPrimeEstimator::drifted() const {
  return std::abs(drift()) >= config_.drift_threshold;
}

}  // namespace cool::energy
