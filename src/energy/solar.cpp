#include "energy/solar.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cool::energy {

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;
}

SolarModel::SolarModel(const SolarModelConfig& config) : config_(config) {
  if (config.peak_irradiance_wm2 <= 0.0)
    throw std::invalid_argument("SolarModel: peak irradiance <= 0");
  if (config.latitude_deg < -90.0 || config.latitude_deg > 90.0)
    throw std::invalid_argument("SolarModel: latitude outside [-90, 90]");
  if (config.day_of_year < 1 || config.day_of_year > 366)
    throw std::invalid_argument("SolarModel: day_of_year outside [1, 366]");
  // Cooper's formula for solar declination.
  declination_rad_ = 23.45 * kDegToRad *
      std::sin(2.0 * std::numbers::pi * (284.0 + config.day_of_year) / 365.0);
  // Each product keeps the operands and the order of the per-minute
  // expression it replaces, so every elevation keeps its bits.
  const double lat = config_.latitude_deg * kDegToRad;
  sin_lat_sin_dec_ = std::sin(lat) * std::sin(declination_rad_);
  cos_lat_cos_dec_ = std::cos(lat) * std::cos(declination_rad_);
}

double SolarModel::elevation_rad(double minute_of_day) const {
  // Hour angle: 0 at solar noon, 15 deg per hour.
  const double hour_angle = (minute_of_day / 60.0 - 12.0) * 15.0 * kDegToRad;
  const double sin_elev = sin_lat_sin_dec_ + cos_lat_cos_dec_ * std::cos(hour_angle);
  return std::asin(std::clamp(sin_elev, -1.0, 1.0));
}

double SolarModel::clear_sky_irradiance(double minute_of_day) const {
  const double elev = elevation_rad(minute_of_day);
  if (elev <= 0.0) return 0.0;
  // Simple air-mass attenuation: I = I_peak * sin(e) * 0.7^(AM^0.678),
  // normalized so noon in midsummer approaches the configured peak.
  const double sin_elev = std::sin(elev);
  const double air_mass = 1.0 / std::max(sin_elev, 1e-3);
  const double atmospheric = std::pow(0.7, std::pow(air_mass, 0.678));
  // Normalize against the same expression at AM 1 so the configured peak is
  // attained when the sun is overhead.
  const double at_zenith = 0.7;
  return config_.peak_irradiance_wm2 * sin_elev * atmospheric / at_zenith;
}

double SolarModel::sunrise_minute() const {
  const double lat = config_.latitude_deg * kDegToRad;
  const double cos_h = -std::tan(lat) * std::tan(declination_rad_);
  if (cos_h >= 1.0) return 720.0;   // polar night: degenerate
  if (cos_h <= -1.0) return 0.0;    // polar day
  const double h = std::acos(cos_h);  // half day length in radians
  return 720.0 - h / (15.0 * kDegToRad) * 60.0;
}

double SolarModel::sunset_minute() const {
  const double rise = sunrise_minute();
  return 1440.0 - rise;
}

double irradiance_to_lux(double irradiance_wm2) noexcept {
  return std::max(0.0, irradiance_wm2) * 120.0;
}

}  // namespace cool::energy
