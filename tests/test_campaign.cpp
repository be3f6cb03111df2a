#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "util/csv.h"

namespace cool::sim {
namespace {

struct Fixture {
  Fixture()
      : network(make_network()),
        utility(std::make_shared<sub::MultiTargetDetectionUtility>(
            sub::MultiTargetDetectionUtility::uniform(
                network.sensor_count(), network.coverage(), 0.4))) {}

  static net::Network make_network() {
    net::NetworkConfig config;
    config.sensor_count = 20;
    config.target_count = 4;
    config.sensing_radius = 40.0;
    util::Rng rng(1);
    return net::make_random_network(config, rng);
  }

  net::Network network;
  std::shared_ptr<sub::MultiTargetDetectionUtility> utility;
};

TEST(Campaign, RunsThirtyDaysWithWeatherVariation) {
  Fixture f;
  CampaignConfig config;
  config.days = 30;
  CampaignRunner runner(f.network, f.utility, config, util::Rng(2));
  const auto report = runner.run();
  ASSERT_EQ(report.days.size(), 30u);
  EXPECT_GT(report.average_utility, 0.0);
  EXPECT_GT(report.total_slots, 0u);
  // Weather must change at least once in 30 days.
  bool changed = false;
  for (const auto& day : report.days)
    if (day.weather != energy::Weather::kSunny) changed = true;
  EXPECT_TRUE(changed);
  // Worse weather means larger rho.
  for (const auto& day : report.days) {
    if (day.weather == energy::Weather::kOvercast) {
      EXPECT_GT(day.rho, 3.0);
    }
  }
}

TEST(Campaign, NormalizedBackendHasNoViolations) {
  Fixture f;
  CampaignConfig config;
  config.days = 5;
  CampaignRunner runner(f.network, f.utility, config, util::Rng(3));
  const auto report = runner.run();
  EXPECT_EQ(report.total_violations, 0u);
}

TEST(Campaign, FaultsDegradeUtility) {
  Fixture f;
  CampaignConfig clean;
  clean.days = 10;
  CampaignConfig faulty = clean;
  faulty.failure_rate_per_slot = 0.05;
  const auto clean_report =
      CampaignRunner(f.network, f.utility, clean, util::Rng(4)).run();
  const auto faulty_report =
      CampaignRunner(f.network, f.utility, faulty, util::Rng(4)).run();
  EXPECT_GT(faulty_report.total_failures, 0u);
  EXPECT_LT(faulty_report.average_utility, clean_report.average_utility);
}

TEST(Campaign, DisseminationLossReflectedInReport) {
  Fixture f;
  CampaignConfig config;
  config.days = 3;
  net::LinkModelConfig lossy;
  lossy.global_loss = 0.3;
  config.dissemination = lossy;
  CampaignRunner runner(f.network, f.utility, config, util::Rng(5));
  const auto report = runner.run();
  for (const auto& day : report.days) {
    EXPECT_GT(day.assignments_targeted, 0u);
    EXPECT_LE(day.assignments_delivered, day.assignments_targeted);
  }
}

TEST(Campaign, RepairPolicyBeatsRigidOnHarvestBackend) {
  Fixture f;
  CampaignConfig rigid;
  rigid.days = 5;
  rigid.backend = EnergyBackend::kHarvest;
  CampaignConfig repair = rigid;
  repair.repair_policy = true;
  const auto rigid_report =
      CampaignRunner(f.network, f.utility, rigid, util::Rng(6)).run();
  const auto repair_report =
      CampaignRunner(f.network, f.utility, repair, util::Rng(6)).run();
  EXPECT_LE(repair_report.total_violations, rigid_report.total_violations);
  // Utility gains are workload-dependent (off-phase re-dispatch can shift a
  // node away from its home slot); on small instances allow a modest band —
  // the large-fleet win is pinned by ScheduleRepairPolicy tests and the
  // testbed replay numbers in EXPERIMENTS.md.
  EXPECT_GE(repair_report.average_utility, rigid_report.average_utility * 0.9);
}

TEST(Campaign, CsvExportRoundTrips) {
  Fixture f;
  CampaignConfig config;
  config.days = 4;
  CampaignRunner runner(f.network, f.utility, config, util::Rng(7));
  const auto report = runner.run();
  const std::string path = "/tmp/cool_test_campaign.csv";
  report.write_csv(path);
  const auto table = util::read_csv_file(path, /*has_header=*/true);
  EXPECT_EQ(table.rows.size(), 4u);
  EXPECT_EQ(table.column("avg_utility"), 4u);
  std::remove(path.c_str());
}

TEST(Campaign, Validation) {
  Fixture f;
  CampaignConfig config;
  EXPECT_THROW(CampaignRunner(f.network, nullptr, config, util::Rng(8)),
               std::invalid_argument);
  config.days = 0;
  EXPECT_THROW(CampaignRunner(f.network, f.utility, config, util::Rng(8)),
               std::invalid_argument);
  auto wrong = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(3, {{0}}, 0.4));
  config.days = 1;
  EXPECT_THROW(CampaignRunner(f.network, wrong, config, util::Rng(8)),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::sim
