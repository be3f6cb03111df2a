// Campaign runner: the multi-day operational loop as a reusable component.
//
// For each day: advance the weather process, pick the day's charging
// pattern (planner), build the day's greedy schedule, optionally push it
// through lossy dissemination, then run the day on the chosen energy
// backend with fault injection. Produces one row per day plus campaign
// aggregates — the programmatic form of the paper's "run the system for 30
// days (daytime)" evaluation loop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.h"
#include "net/link.h"
#include "net/network.h"
#include "proto/dissemination.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cool::sim {

struct CampaignConfig {
  std::size_t days = 30;
  double working_minutes = 720.0;
  EnergyBackend backend = EnergyBackend::kNormalized;
  // Transient faults (sim/faults.h) in each simulated day; a zero rate
  // injects none.
  double failure_rate_per_slot = 0.0;
  std::size_t repair_slots = 4;
  // When set, schedules are disseminated over lossy links before running
  // and undelivered nodes stay passive.
  std::optional<net::LinkModelConfig> dissemination;
  // Use the schedule-repair policy instead of the rigid follower.
  bool repair_policy = false;
  energy::Weather initial_weather = energy::Weather::kSunny;
};

struct CampaignDay {
  std::size_t day = 0;
  energy::Weather weather = energy::Weather::kSunny;
  double rho = 0.0;
  std::size_t slots = 0;
  double average_utility = 0.0;      // per slot
  std::size_t energy_violations = 0;
  std::size_t failures = 0;
  std::size_t assignments_delivered = 0;
  std::size_t assignments_targeted = 0;
};

struct CampaignReport {
  std::vector<CampaignDay> days;
  double average_utility = 0.0;  // per-slot, over the whole campaign
  std::size_t total_slots = 0;
  std::size_t total_violations = 0;
  std::size_t total_failures = 0;

  // One CSV row per day.
  void write_csv(const std::string& path) const;
};

class CampaignRunner {
 public:
  // `utility` must be the per-slot objective over the network's sensors.
  CampaignRunner(const net::Network& network,
                 std::shared_ptr<const sub::SubmodularFunction> utility,
                 CampaignConfig config, util::Rng rng);

  // One campaign under this runner's RNG. Days fan out across the
  // util/parallel pool (the weather chain is pre-rolled serially); the
  // report is bit-identical at every thread count.
  CampaignReport run() const;

  // Repeated campaigns under decorrelated RNG streams (child 3000 + trial),
  // fanned out per trial. Trial k is NOT the same draw as run().
  std::vector<CampaignReport> run_trials(std::size_t trials) const;

 private:
  const net::Network* network_;
  std::shared_ptr<const sub::SubmodularFunction> utility_;
  CampaignConfig config_;
  util::Rng rng_;
};

}  // namespace cool::sim
