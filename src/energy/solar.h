// Clear-sky solar irradiance model.
//
// Substitutes for the paper's rooftop measurements (Fig 7): irradiance is
// driven by solar elevation computed from day-of-year, latitude and local
// solar time (declination + hour-angle formulas), scaled to a peak clear-sky
// value. Weather multiplies this by an attenuation process (weather.h).
#pragma once

namespace cool::energy {

struct SolarModelConfig {
  double latitude_deg = 30.3;        // Hangzhou, where the testbed stood
  double peak_irradiance_wm2 = 1000; // clear-sky noon peak
  int day_of_year = 197;             // July 16 (the paper's measurement day)
};

class SolarModel {
 public:
  explicit SolarModel(const SolarModelConfig& config = {});

  // Solar elevation in radians at local solar time `minute_of_day` (0-1440).
  double elevation_rad(double minute_of_day) const;

  // Clear-sky horizontal irradiance in W/m^2 (0 when the sun is down).
  double clear_sky_irradiance(double minute_of_day) const;

  // Sunrise/sunset in minutes after midnight (clamped to [0, 1440]; for
  // polar day/night the pair degenerates).
  double sunrise_minute() const;
  double sunset_minute() const;

  const SolarModelConfig& config() const noexcept { return config_; }

 private:
  SolarModelConfig config_;
  double declination_rad_;
  // sin(lat)·sin(δ) and cos(lat)·cos(δ): constant all day, so each
  // elevation costs one cos of the hour angle and one asin.
  double sin_lat_sin_dec_;
  double cos_lat_cos_dec_;
};

// Rough lux equivalent of an irradiance (daylight: ~120 lux per W/m^2);
// Fig 7 reports "light strength", which TelosB senses via a photodiode in
// lux-like units.
double irradiance_to_lux(double irradiance_wm2) noexcept;

}  // namespace cool::energy
