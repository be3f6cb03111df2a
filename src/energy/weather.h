// Weather: attenuation of clear-sky irradiance plus day-to-day evolution.
//
// The paper re-estimates the charging pattern per day/weather ("we may
// choose different charging pattern each day for different weather
// condition"). We model weather at two scales:
//   * per-day condition from a Markov chain (DayWeatherProcess);
//   * within-day cloud transients (CloudField) — an Ornstein-Uhlenbeck-like
//     mean-reverting attenuation so light strength fluctuates the way Fig 7
//     shows while remaining integrable for charging.
#pragma once

#include <string>
#include <vector>

#include "util/rng.h"

namespace cool::energy {

enum class Weather { kSunny = 0, kPartlyCloudy = 1, kOvercast = 2, kRain = 3 };

constexpr int kWeatherCount = 4;

const char* weather_name(Weather w) noexcept;

// Mean fraction of clear-sky irradiance that reaches the panel.
double weather_mean_attenuation(Weather w) noexcept;

// Day-to-day Markov chain over conditions.
class DayWeatherProcess {
 public:
  // Default transition matrix is summer-continental-ish: sunny is sticky
  // (0.6 self-transition), rain rarely persists.
  explicit DayWeatherProcess(util::Rng rng, Weather initial = Weather::kSunny);
  DayWeatherProcess(util::Rng rng, Weather initial,
                    const std::vector<std::vector<double>>& transition);

  Weather today() const noexcept { return today_; }
  // Advances one day and returns the new condition.
  Weather advance();
  // The next `days` conditions, starting from (and mutating) the process.
  std::vector<Weather> forecast(std::size_t days);

 private:
  util::Rng rng_;
  Weather today_;
  std::vector<std::vector<double>> transition_;
};

// Within-day attenuation transients: multiplicative factor in (0, 1].
class CloudField {
 public:
  CloudField(Weather condition, util::Rng rng);

  // Attenuation at the given minute; call with non-decreasing minutes.
  double attenuation(double minute_of_day);

 private:
  Weather condition_;
  util::Rng rng_;
  double state_;        // current deviation from the weather mean
  double last_minute_ = 0.0;
  // The decay and noise scale of the last distinct step length (none yet
  // while step_dt_ < 0): a trace steps by one sample period, so they are
  // computed once, not per step.
  double step_dt_ = -1.0;
  double step_decay_ = 0.0;
  double step_noise_scale_ = 0.0;
};

}  // namespace cool::energy
