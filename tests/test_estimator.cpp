#include "energy/estimator.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cool::energy {
namespace {

TEST(EstimatorConfig, Validation) {
  RhoEstimatorConfig config;
  EXPECT_NO_THROW(validate_estimator_config(config));
  config.ewma_alpha = 0.0;
  EXPECT_THROW(validate_estimator_config(config), std::invalid_argument);
  config.ewma_alpha = 1.5;
  EXPECT_THROW(validate_estimator_config(config), std::invalid_argument);
  config = RhoEstimatorConfig{};
  config.drift_threshold = 0.0;
  EXPECT_THROW(validate_estimator_config(config), std::invalid_argument);
}

TEST(RhoPrimeEstimator, ConstructionValidation) {
  EXPECT_THROW(RhoPrimeEstimator(0, 3.0), std::invalid_argument);
  EXPECT_THROW(RhoPrimeEstimator(4, 0.0), std::invalid_argument);
  RhoPrimeEstimator est(4, 3.0);
  EXPECT_THROW(est.record_recharge(4, 1.0), std::invalid_argument);
  EXPECT_THROW(est.record_recharge(0, 0.0), std::invalid_argument);
  EXPECT_THROW(est.record_discharge(0, -1.0), std::invalid_argument);
}

TEST(RhoPrimeEstimator, FallsBackToPlannedRho) {
  RhoPrimeEstimator est(3, 3.0);
  EXPECT_DOUBLE_EQ(est.node_rho(0), 3.0);
  EXPECT_DOUBLE_EQ(est.fleet_rho(), 3.0);
  est.record_recharge(0, 6.0);  // recharge alone is not enough
  EXPECT_DOUBLE_EQ(est.node_rho(0), 3.0);
  est.record_discharge(0, 1.0);
  EXPECT_DOUBLE_EQ(est.node_rho(0), 6.0);
  // Node 1 untouched: still planned.
  EXPECT_DOUBLE_EQ(est.node_rho(1), 3.0);
}

TEST(RhoPrimeEstimator, EwmaConvergesToConstantStream) {
  RhoEstimatorConfig config;
  config.ewma_alpha = 0.5;
  RhoPrimeEstimator est(2, 3.0, config);
  est.record_recharge(0, 10.0);  // first sample seeds the mean
  EXPECT_DOUBLE_EQ(est.node_recharge_mean(0), 10.0);
  for (int i = 0; i < 30; ++i) est.record_recharge(0, 4.0);
  EXPECT_NEAR(est.node_recharge_mean(0), 4.0, 1e-6);
  EXPECT_NEAR(est.fleet_recharge_mean(), 4.0, 1e-6);
}

TEST(RhoPrimeEstimator, DriftFlagsSustainedDeparture) {
  RhoEstimatorConfig config;
  config.drift_threshold = 0.25;
  config.min_samples = 4;
  RhoPrimeEstimator est(2, 3.0, config);
  // Nominal samples: recharge 3 slots per 1-slot discharge, rho' = planned.
  for (int i = 0; i < 6; ++i) {
    est.record_discharge(i % 2, 1.0);
    est.record_recharge(i % 2, 3.0);
  }
  EXPECT_NEAR(est.drift(), 0.0, 1e-9);
  EXPECT_FALSE(est.drifted());
  // Clouds stretch recharge to 6 slots: rho' -> 6, drift -> +1.
  for (int i = 0; i < 20; ++i) {
    est.record_discharge(i % 2, 1.0);
    est.record_recharge(i % 2, 6.0);
  }
  EXPECT_GT(est.drift(), 0.25);
  EXPECT_TRUE(est.drifted());
  EXPECT_NEAR(est.fleet_rho(), 6.0, 0.2);
}

TEST(RhoPrimeEstimator, DriftSilentDuringWarmup) {
  RhoEstimatorConfig config;
  config.min_samples = 8;
  RhoPrimeEstimator est(1, 3.0, config);
  for (int i = 0; i < 7; ++i) {
    est.record_discharge(0, 1.0);
    est.record_recharge(0, 30.0);  // wildly off-plan
  }
  EXPECT_DOUBLE_EQ(est.drift(), 0.0);  // still warming up
  EXPECT_FALSE(est.drifted());
  est.record_discharge(0, 1.0);
  est.record_recharge(0, 30.0);
  EXPECT_TRUE(est.drifted());
}

TEST(RhoPrimeEstimator, ResetNodeRestoresPlannedFallback) {
  RhoPrimeEstimator est(2, 3.0);
  est.record_discharge(0, 1.0);
  est.record_recharge(0, 9.0);
  EXPECT_DOUBLE_EQ(est.node_rho(0), 9.0);
  const double fleet_before = est.fleet_rho();
  est.reset_node(0);
  EXPECT_DOUBLE_EQ(est.node_rho(0), 3.0);  // back to planned
  EXPECT_EQ(est.node_recharge_samples(0), 0u);
  EXPECT_DOUBLE_EQ(est.fleet_rho(), fleet_before);  // fleet untouched
  EXPECT_THROW(est.reset_node(2), std::invalid_argument);
}

TEST(RhoPrimeEstimator, PerNodeHeterogeneityIsSeparated) {
  RhoPrimeEstimator est(3, 3.0);
  for (int i = 0; i < 10; ++i) {
    est.record_discharge(0, 1.0);
    est.record_recharge(0, 3.0);  // healthy node
    est.record_discharge(1, 1.0);
    est.record_recharge(1, 9.0);  // shaded node
  }
  EXPECT_NEAR(est.node_rho(0), 3.0, 1e-9);
  EXPECT_NEAR(est.node_rho(1), 9.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.node_rho(2), 3.0);  // no data: planned
  // Fleet sits between the two contributing nodes.
  EXPECT_GT(est.fleet_rho(), 3.0);
  EXPECT_LT(est.fleet_rho(), 9.0);
}

}  // namespace
}  // namespace cool::energy
