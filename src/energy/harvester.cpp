#include "energy/harvester.h"

#include <algorithm>
#include <stdexcept>

namespace cool::energy {

SolarCell::SolarCell(const SolarCellConfig& config) : config_(config) {
  if (config.area_m2 <= 0.0) throw std::invalid_argument("SolarCell: area <= 0");
  if (config.efficiency <= 0.0 || config.efficiency > 1.0)
    throw std::invalid_argument("SolarCell: efficiency outside (0, 1]");
  if (config.charge_efficiency <= 0.0 || config.charge_efficiency > 1.0)
    throw std::invalid_argument("SolarCell: charge efficiency outside (0, 1]");
}

double SolarCell::charge_power(double irradiance_wm2) const {
  if (irradiance_wm2 <= 0.0) return 0.0;
  return irradiance_wm2 * config_.area_m2 * config_.efficiency *
         config_.charge_efficiency;
}

HarvestSimulator::HarvestSimulator(const SolarModel& solar, Weather weather,
                                   const SolarCellConfig& cell,
                                   const NodeEnergyConfig& node, util::Rng rng)
    : solar_(&solar), cell_(cell), node_(node),
      clouds_(weather, std::move(rng)), battery_(node.battery_capacity_j) {
  if (node.active_power_w <= 0.0)
    throw std::invalid_argument("HarvestSimulator: active power <= 0");
  if (node.ready_power_w < 0.0)
    throw std::invalid_argument("HarvestSimulator: ready power < 0");
}

double HarvestSimulator::step(double minute_of_day, double dt_min, bool node_active) {
  return step(minute_of_day, dt_min, node_active,
              solar_->clear_sky_irradiance(minute_of_day));
}

double HarvestSimulator::step(double minute_of_day, double dt_min, bool node_active,
                              double clear_sky_wm2) {
  if (dt_min < 0.0) throw std::invalid_argument("HarvestSimulator::step: dt < 0");
  const double attenuation = clouds_.attenuation(minute_of_day);
  const double irradiance = clear_sky_wm2 * attenuation;
  const double power_in = cell_.charge_power(irradiance);
  const double seconds = dt_min * 60.0;
  if (node_active) {
    // Active nodes run off the battery; harvest still tops it up.
    const double net = (node_.active_power_w - power_in) * seconds;
    if (net >= 0.0) {
      battery_.discharge(net);
    } else {
      battery_.charge(-net);
    }
  } else {
    const double net = (power_in - node_.ready_power_w) * seconds;
    if (net >= 0.0) {
      battery_.charge(net);
    } else {
      battery_.discharge(-net);
    }
  }
  return irradiance_to_lux(irradiance);
}

}  // namespace cool::energy
