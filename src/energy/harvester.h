// Solar cell + charge path: converts irradiance into battery charge power.
//
// Defaults are sized so that a sunny day yields the paper's measured
// charging pattern: recharge time Tr ≈ 45 min and discharge time Td ≈ 15 min
// (ρ = 3) for the TelosB-class node defined in NodeEnergyConfig.
#pragma once

#include "energy/battery.h"
#include "energy/solar.h"
#include "energy/weather.h"
#include "util/rng.h"

namespace cool::energy {

struct SolarCellConfig {
  double area_m2 = 0.0015;     // ~39 x 39 mm cell (the small cell in Fig 6)
  double efficiency = 0.15;    // polycrystalline
  double charge_efficiency = 0.70;  // MPPT-less charge path losses
};

class SolarCell {
 public:
  explicit SolarCell(const SolarCellConfig& config = {});

  // Electrical power delivered into the battery, in watts, for the ambient
  // irradiance reaching the panel.
  double charge_power(double irradiance_wm2) const;

  const SolarCellConfig& config() const noexcept { return config_; }

 private:
  SolarCellConfig config_;
};

// The node's electrical loads (TelosB-class).
struct NodeEnergyConfig {
  double battery_capacity_j = 330.0;  // sized for Td = 15 min active
  double active_power_w = 0.3667;     // sensing + radio duty-cycled (B / 900 s)
  double ready_power_w = 0.0;         // paper: ready-state drain negligible
};

// One node's harvest-and-consume stack for trace generation and the
// network simulator: solar model x cloud field x cell -> battery.
class HarvestSimulator {
 public:
  HarvestSimulator(const SolarModel& solar, Weather weather,
                   const SolarCellConfig& cell, const NodeEnergyConfig& node,
                   util::Rng rng);

  // Advances `dt_min` minutes from `minute_of_day`, charging the battery
  // when the node is not active and discharging when it is. Returns the lux
  // reading at the step start (what Fig 7 plots). Consumes cloud noise:
  // minutes are expected to be monotone, like CloudField's.
  double step(double minute_of_day, double dt_min, bool node_active);
  // The same step under a clear-sky irradiance the caller already holds for
  // `minute_of_day` (generate_daily_trace reads one curve per day); the
  // step above passes the solar model's value.
  double step(double minute_of_day, double dt_min, bool node_active,
              double clear_sky_wm2);

  const Battery& battery() const noexcept { return battery_; }
  Battery& battery() noexcept { return battery_; }
  const NodeEnergyConfig& node() const noexcept { return node_; }

 private:
  const SolarModel* solar_;
  SolarCell cell_;
  NodeEnergyConfig node_;
  CloudField clouds_;
  Battery battery_;
};

}  // namespace cool::energy
