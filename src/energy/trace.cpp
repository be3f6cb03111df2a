#include "energy/trace.h"

#include <array>
#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "util/csv.h"
#include "util/strings.h"

namespace cool::energy {

void ChargingTrace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("ChargingTrace::write_csv: cannot open " + path);
  util::CsvWriter csv(out);
  csv.write_row({"minute", "lux", "voltage", "soc", "charging"});
  for (const auto& s : samples) {
    csv.cell(s.minute_of_day)
        .cell(s.lux)
        .cell(s.voltage)
        .cell(s.soc);
    csv.cell(std::string_view(s.charging ? "1" : "0"));
    csv.end_row();
  }
}

ChargingTrace read_trace_csv(const std::string& path) {
  const auto table = util::read_csv_file(path, /*has_header=*/true);
  const auto minute = table.column("minute");
  const auto lux = table.column("lux");
  const auto voltage = table.column("voltage");
  const auto soc = table.column("soc");
  const auto charging = table.column("charging");
  ChargingTrace trace;
  trace.samples.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (row.size() < 5) throw std::runtime_error("read_trace_csv: short row");
    TraceSample sample;
    try {
      sample.minute_of_day = util::parse_double(row[minute]);
      sample.lux = util::parse_double(row[lux]);
      sample.voltage = util::parse_double(row[voltage]);
      sample.soc = util::parse_double(row[soc]);
      sample.charging = util::parse_int(row[charging]) != 0;
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("read_trace_csv: ") + e.what());
    }
    trace.samples.push_back(sample);
  }
  return trace;
}

namespace {

// Every input a day's clear-sky samples depend on, doubles by their bits:
// latitude, peak irradiance, the shifted day of year, and the sample
// period, mode and report duty that set the minutes a trace steps from.
// Equal keys give bit-identical curves.
using ClearSkyKey = std::array<std::uint64_t, 6>;

ClearSkyKey clear_sky_key(const SolarModelConfig& solar, const TraceConfig& config) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {bits(solar.latitude_deg), bits(solar.peak_irradiance_wm2),
          static_cast<std::uint64_t>(solar.day_of_year),
          bits(config.sample_period_min), static_cast<std::uint64_t>(config.mode),
          bits(config.report_duty)};
}

// The clear-sky irradiance at each step's start minute, in step order: one
// step per sample in kCycling mode, two in kMeasurement mode (the
// reporting burst at `minute`, the idle rest at `minute + active_min`).
// Each thread keeps the curve of its last key, so the probe traces of one
// day compute it once; a new key overwrites it, which bounds the memo to
// one day's grid, and no thread reads another's.
const std::vector<double>& clear_sky_curve(const SolarModel& solar,
                                           const TraceConfig& config,
                                           std::size_t steps) {
  thread_local std::optional<ClearSkyKey> memo_key;
  thread_local std::vector<double> memo_curve;
  const ClearSkyKey key = clear_sky_key(solar.config(), config);
  if (memo_key == key) return memo_curve;
  memo_key.reset();
  memo_curve.clear();
  const bool measurement = config.mode == TraceConfig::Mode::kMeasurement;
  const double active_min = config.sample_period_min * config.report_duty;
  memo_curve.reserve(measurement ? 2 * steps : steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double minute = static_cast<double>(i) * config.sample_period_min;
    memo_curve.push_back(solar.clear_sky_irradiance(minute));
    if (measurement) memo_curve.push_back(solar.clear_sky_irradiance(minute + active_min));
  }
  memo_key = key;
  return memo_curve;
}

}  // namespace

ChargingTrace generate_daily_trace(const TraceConfig& config, Weather weather,
                                   int node_id, int day, util::Rng& rng) {
  if (config.sample_period_min <= 0.0)
    throw std::invalid_argument("generate_daily_trace: sample period <= 0");
  if (config.initial_soc < 0.0 || config.initial_soc > 1.0)
    throw std::invalid_argument("generate_daily_trace: initial soc outside [0,1]");
  if (config.report_duty < 0.0 || config.report_duty > 1.0)
    throw std::invalid_argument("generate_daily_trace: report duty outside [0,1]");

  SolarModelConfig solar_cfg = config.solar;
  solar_cfg.day_of_year = ((solar_cfg.day_of_year - 1 + day) % 365) + 1;
  const SolarModel solar(solar_cfg);
  HarvestSimulator sim(solar, weather, config.cell, config.node, rng.fork(17));
  sim.battery().set_level(config.initial_soc * config.node.battery_capacity_j);

  ChargingTrace trace;
  trace.node_id = node_id;
  trace.day = day;
  trace.weather = weather;
  const auto steps = static_cast<std::size_t>(1440.0 / config.sample_period_min);
  const std::vector<double>& sky = clear_sky_curve(solar, config, steps);
  trace.samples.reserve(steps);
  bool cycling_active = false;
  for (std::size_t i = 0; i < steps; ++i) {
    const double minute = static_cast<double>(i) * config.sample_period_min;
    double lux = 0.0;
    if (config.mode == TraceConfig::Mode::kCycling) {
      // Paper state machine: ready -> active until empty -> passive until full.
      if (sim.battery().full()) cycling_active = true;
      if (sim.battery().empty()) cycling_active = false;
      lux = sim.step(minute, config.sample_period_min, cycling_active, sky[i]);
    } else {
      // Split the interval into a short reporting burst plus idle charging.
      const double active_min = config.sample_period_min * config.report_duty;
      lux = sim.step(minute, active_min, /*node_active=*/true, sky[2 * i]);
      lux = sim.step(minute + active_min, config.sample_period_min - active_min,
                     /*node_active=*/false, sky[2 * i + 1]);
    }
    TraceSample sample;
    sample.minute_of_day = minute;
    sample.lux = lux;
    sample.voltage = sim.battery().voltage();
    sample.soc = sim.battery().soc();
    sample.charging = !sim.battery().full() && lux > 0.0;
    trace.samples.push_back(sample);
  }
  return trace;
}

std::vector<ChargingTrace> generate_multi_day_traces(const TraceConfig& config,
                                                     DayWeatherProcess& weather,
                                                     int node_id, int days,
                                                     util::Rng& rng) {
  if (days < 0) throw std::invalid_argument("generate_multi_day_traces: days < 0");
  std::vector<ChargingTrace> traces;
  traces.reserve(static_cast<std::size_t>(days));
  for (int d = 0; d < days; ++d) {
    traces.push_back(generate_daily_trace(config, weather.today(), node_id, d, rng));
    weather.advance();
  }
  return traces;
}

}  // namespace cool::energy
