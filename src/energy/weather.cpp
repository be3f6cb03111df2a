#include "energy/weather.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cool::energy {

const char* weather_name(Weather w) noexcept {
  switch (w) {
    case Weather::kSunny: return "sunny";
    case Weather::kPartlyCloudy: return "partly-cloudy";
    case Weather::kOvercast: return "overcast";
    case Weather::kRain: return "rain";
  }
  return "?";
}

double weather_mean_attenuation(Weather w) noexcept {
  switch (w) {
    case Weather::kSunny: return 0.95;
    case Weather::kPartlyCloudy: return 0.65;
    case Weather::kOvercast: return 0.35;
    case Weather::kRain: return 0.15;
  }
  return 0.0;
}

namespace {

std::vector<std::vector<double>> default_transition() {
  // Rows: from-state; columns: sunny, partly-cloudy, overcast, rain.
  return {
      {0.60, 0.25, 0.10, 0.05},
      {0.30, 0.40, 0.20, 0.10},
      {0.15, 0.30, 0.35, 0.20},
      {0.20, 0.30, 0.30, 0.20},
  };
}

void validate_transition(const std::vector<std::vector<double>>& transition) {
  if (transition.size() != kWeatherCount)
    throw std::invalid_argument("DayWeatherProcess: need 4 transition rows");
  for (const auto& row : transition) {
    if (row.size() != kWeatherCount)
      throw std::invalid_argument("DayWeatherProcess: need 4 columns per row");
    double sum = 0.0;
    for (const double p : row) {
      if (p < 0.0) throw std::invalid_argument("DayWeatherProcess: negative probability");
      sum += p;
    }
    if (std::abs(sum - 1.0) > 1e-9)
      throw std::invalid_argument("DayWeatherProcess: row does not sum to 1");
  }
}

// Per-condition volatility of the within-day attenuation process.
double cloud_sigma(Weather w) noexcept {
  switch (w) {
    case Weather::kSunny: return 0.03;
    case Weather::kPartlyCloudy: return 0.18;
    case Weather::kOvercast: return 0.08;
    case Weather::kRain: return 0.05;
  }
  return 0.0;
}

}  // namespace

DayWeatherProcess::DayWeatherProcess(util::Rng rng, Weather initial)
    : DayWeatherProcess(std::move(rng), initial, default_transition()) {}

DayWeatherProcess::DayWeatherProcess(util::Rng rng, Weather initial,
                                     const std::vector<std::vector<double>>& transition)
    : rng_(std::move(rng)), today_(initial), transition_(transition) {
  validate_transition(transition_);
}

Weather DayWeatherProcess::advance() {
  const auto& row = transition_[static_cast<std::size_t>(today_)];
  today_ = static_cast<Weather>(rng_.weighted_index(row));
  return today_;
}

std::vector<Weather> DayWeatherProcess::forecast(std::size_t days) {
  std::vector<Weather> out;
  out.reserve(days);
  for (std::size_t i = 0; i < days; ++i) out.push_back(advance());
  return out;
}

CloudField::CloudField(Weather condition, util::Rng rng)
    : condition_(condition), rng_(std::move(rng)), state_(0.0) {}

double CloudField::attenuation(double minute_of_day) {
  const double dt = std::max(0.0, minute_of_day - last_minute_);
  last_minute_ = minute_of_day;
  // Mean-reverting walk: state decays toward 0 with ~20-minute memory and
  // receives noise scaled by the condition's volatility.
  if (dt != step_dt_) {
    const double theta = 1.0 / 20.0;
    step_dt_ = dt;
    step_decay_ = std::exp(-theta * dt);
    const double sigma = cloud_sigma(condition_);
    step_noise_scale_ =
        sigma * std::sqrt(std::max(1e-12, 1.0 - step_decay_ * step_decay_));
  }
  state_ = state_ * step_decay_ + rng_.normal(0.0, step_noise_scale_);
  const double mean = weather_mean_attenuation(condition_);
  return std::clamp(mean + state_, 0.01, 1.0);
}

}  // namespace cool::energy
