// Slot-driven network simulator.
//
// Executes an activation policy against per-node batteries over one or many
// working days, enforcing the paper's active/passive/ready state machine
// (Section II-B). Two energy backends:
//   * kNormalized — the analytical model the schedulers assume: an active
//     slot needs and empties a full battery (ρ > 1) or drains 1/(T−1) of it
//     (ρ ≤ 1); a passive slot recharges deterministically.
//   * kHarvest — physical backend: per-node solar harvest through the
//     energy layer (solar position, weather, cloud noise, cell efficiency),
//     so recharge speed varies over the day and across days. This is the
//     30-day testbed replay substitute.
// Partial-charge policies are honoured: when a node is activated below full
// charge (allowed only by policies that ask for it), it contributes a
// SoC-proportional fraction of the slot's coverage.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/problem.h"
#include "energy/harvester.h"
#include "energy/pattern.h"
#include "energy/weather.h"
#include "sim/faults.h"
#include "sim/policy.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cool::sim {

enum class EnergyBackend { kNormalized, kHarvest };

struct SimConfig {
  EnergyBackend backend = EnergyBackend::kNormalized;
  std::size_t days = 1;
  // Working day structure (paper: L = 12 h of 15-minute slots).
  double slot_minutes = 15.0;
  std::size_t slots_per_day = 48;
  double day_start_minute = 6.0 * 60.0;  // harvest backend: dawn-aligned
  // Nodes whose SoC is below this cannot contribute at all.
  double min_useful_soc = 1e-6;
  // Whether activation below full charge is permitted (partial-charge
  // policies need this; the paper's base model forbids it).
  bool allow_partial_activation = false;
  // Harvest backend parameters.
  energy::SolarModelConfig solar;
  energy::SolarCellConfig cell;
  energy::NodeEnergyConfig node;
  energy::Weather initial_weather = energy::Weather::kSunny;
  // Normalized backend parameter.
  energy::ChargingPattern pattern;  // defines ρ and the charge per slot
  // Fault injection (sim/faults.h): transient outages, crash-stop death,
  // battery wearout, or trace replay. Down nodes cannot be activated and
  // produce no coverage.
  FaultModelConfig faults;
  // Record every node's state of charge at each slot start (for debugging
  // and energy plots); costs O(nodes x slots) memory.
  bool record_soc = false;
};

struct SimReport {
  double total_utility = 0.0;
  double average_utility_per_slot = 0.0;
  std::size_t slots_simulated = 0;
  std::size_t activations = 0;
  // Policy asked for a node the energy model could not activate.
  std::size_t energy_violations = 0;
  std::size_t partial_activations = 0;
  // Fault injection: failure events and selections refused because the node
  // was down; node_deaths counts permanent (crash-stop/wearout) deaths.
  std::size_t failures_injected = 0;
  std::size_t failed_selections = 0;
  std::size_t node_deaths = 0;
  util::Accumulator active_set_size;
  util::Accumulator slot_utility;
  // Per-day average utility (for multi-day weather studies).
  std::vector<double> daily_average;
  // Slot-start SoC per node, one row per slot; empty unless
  // SimConfig::record_soc.
  std::vector<std::vector<double>> soc_trace;
};

class Simulator {
 public:
  // `utility` is the per-slot submodular objective (over nodes).
  Simulator(std::shared_ptr<const sub::SubmodularFunction> utility,
            const SimConfig& config, util::Rng rng);

  SimReport run(ActivationPolicy& policy);

 private:
  std::shared_ptr<const sub::SubmodularFunction> utility_;
  SimConfig config_;
  util::Rng rng_;
};

}  // namespace cool::sim
