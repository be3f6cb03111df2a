#include "energy/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cool::energy {
namespace {

TEST(Trace, DailyTraceCoversFullDay) {
  TraceConfig config;
  util::Rng rng(1);
  const auto trace = generate_daily_trace(config, Weather::kSunny, 1, 0, rng);
  ASSERT_EQ(trace.samples.size(), 1440u);
  EXPECT_DOUBLE_EQ(trace.samples.front().minute_of_day, 0.0);
  EXPECT_DOUBLE_EQ(trace.samples.back().minute_of_day, 1439.0);
  EXPECT_EQ(trace.weather, Weather::kSunny);
}

TEST(Trace, LuxZeroAtNightPositiveAtNoon) {
  TraceConfig config;
  util::Rng rng(2);
  const auto trace = generate_daily_trace(config, Weather::kSunny, 1, 0, rng);
  EXPECT_DOUBLE_EQ(trace.samples[60].lux, 0.0);    // 1 am
  EXPECT_GT(trace.samples[720].lux, 50000.0);      // noon, sunny
}

TEST(Trace, MeasurementModeChargesMonotonicallyUntilFull) {
  TraceConfig config;
  config.report_duty = 0.0;  // pure idle: SoC can only rise in daylight
  util::Rng rng(3);
  const auto trace = generate_daily_trace(config, Weather::kSunny, 1, 0, rng);
  for (std::size_t i = 1; i < trace.samples.size(); ++i)
    EXPECT_GE(trace.samples[i].soc + 1e-12, trace.samples[i - 1].soc);
  EXPECT_NEAR(trace.samples.back().soc, 1.0, 1e-6);
}

TEST(Trace, CyclingModeProducesManyCycles) {
  TraceConfig config;
  config.mode = TraceConfig::Mode::kCycling;
  util::Rng rng(4);
  const auto trace = generate_daily_trace(config, Weather::kSunny, 1, 0, rng);
  // Count full-to-empty discharge onsets: a sunny 12 h day at T = 60 min
  // must cycle several times.
  std::size_t discharges = 0;
  for (std::size_t i = 1; i < trace.samples.size(); ++i)
    if (trace.samples[i].soc < trace.samples[i - 1].soc - 1e-9) ++discharges;
  EXPECT_GT(discharges, 60u);  // ~15 min of per-minute decrements per cycle
}

TEST(Trace, RainyDayHarvestsLess) {
  TraceConfig config;
  config.report_duty = 0.0;
  util::Rng rng_a(5), rng_b(5);
  config.initial_soc = 0.0;
  const auto sunny = generate_daily_trace(config, Weather::kSunny, 1, 0, rng_a);
  const auto rain = generate_daily_trace(config, Weather::kRain, 1, 0, rng_b);
  // Compare mid-morning, before either battery can saturate.
  EXPECT_GT(sunny.samples[480].soc, 2.0 * rain.samples[480].soc);
  EXPECT_GT(sunny.samples[720].lux, 2.0 * rain.samples[720].lux);
}

TEST(Trace, CsvRoundTrip) {
  TraceConfig config;
  config.sample_period_min = 30.0;  // small file
  util::Rng rng(6);
  const auto trace = generate_daily_trace(config, Weather::kSunny, 1, 0, rng);
  const std::string path = "/tmp/cool_test_trace.csv";
  trace.write_csv(path);
  const auto restored = read_trace_csv(path);
  ASSERT_EQ(restored.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    EXPECT_NEAR(restored.samples[i].minute_of_day,
                trace.samples[i].minute_of_day, 1e-6);
    EXPECT_NEAR(restored.samples[i].voltage, trace.samples[i].voltage, 1e-6);
    EXPECT_NEAR(restored.samples[i].soc, trace.samples[i].soc, 1e-6);
    EXPECT_EQ(restored.samples[i].charging, trace.samples[i].charging);
  }
  std::remove(path.c_str());
}

TEST(Trace, ReadMissingFileThrows) {
  EXPECT_THROW(read_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(Trace, MultiDayAdvancesWeather) {
  TraceConfig config;
  config.sample_period_min = 15.0;
  DayWeatherProcess weather(util::Rng(7), Weather::kSunny);
  util::Rng rng(8);
  const auto traces = generate_multi_day_traces(config, weather, 3, 10, rng);
  ASSERT_EQ(traces.size(), 10u);
  EXPECT_EQ(traces[0].weather, Weather::kSunny);
  bool weather_changed = false;
  for (const auto& t : traces)
    if (t.weather != Weather::kSunny) weather_changed = true;
  EXPECT_TRUE(weather_changed);  // 10 days of 0.6-sticky sun: change is near-certain
  for (int d = 0; d < 10; ++d) EXPECT_EQ(traces[static_cast<std::size_t>(d)].day, d);
}

TEST(Trace, Validation) {
  TraceConfig config;
  config.sample_period_min = 0.0;
  util::Rng rng(9);
  EXPECT_THROW(generate_daily_trace(config, Weather::kSunny, 1, 0, rng),
               std::invalid_argument);
  config = {};
  config.initial_soc = 1.5;
  EXPECT_THROW(generate_daily_trace(config, Weather::kSunny, 1, 0, rng),
               std::invalid_argument);
  config = {};
  config.report_duty = -0.1;
  EXPECT_THROW(generate_daily_trace(config, Weather::kSunny, 1, 0, rng),
               std::invalid_argument);
  config = {};
  DayWeatherProcess weather(util::Rng(10), Weather::kSunny);
  EXPECT_THROW(generate_multi_day_traces(config, weather, 1, -1, rng),
               std::invalid_argument);
}


// Golden probe traces. Each case generates the gateway's probe shape (five
// nodes on one day, each from its own seeded stream) under all four
// weathers, and folds the bits of every sample field into one FNV-1a hash.
// The constants were taken from the per-sample implementation, in which
// every probe recomputed the clear-sky curve and every cloud step its own
// decay. A faster trace generator must reproduce every draw and every
// floating-point bit, so a mismatch means a sample changed.

constexpr int kProbes = 5;
constexpr Weather kWeathers[] = {Weather::kSunny, Weather::kPartlyCloudy,
                                 Weather::kOvercast, Weather::kRain};

class SampleFold {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void trace(const ChargingTrace& t) {
    word(t.samples.size());
    for (const TraceSample& s : t.samples) {
      word(std::bit_cast<std::uint64_t>(s.minute_of_day));
      word(std::bit_cast<std::uint64_t>(s.lux));
      word(std::bit_cast<std::uint64_t>(s.voltage));
      word(std::bit_cast<std::uint64_t>(s.soc));
      word(s.charging ? 1 : 0);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t probe_seed(int day, Weather weather, int probe) {
  return 0x7ACE0000ULL + static_cast<std::uint64_t>(day) * 1000 +
         static_cast<std::uint64_t>(weather) * 10 +
         static_cast<std::uint64_t>(probe);
}

ChargingTrace probe_trace(const TraceConfig& config, Weather weather, int probe,
                          int day) {
  util::Rng rng(probe_seed(day, weather, probe));
  return generate_daily_trace(config, weather, probe, day, rng);
}

// Every weather, every day in `days`, kProbes probes each.
std::uint64_t golden_hash(const TraceConfig& config, const std::vector<int>& days) {
  SampleFold fold;
  for (const int day : days)
    for (const Weather weather : kWeathers)
      for (int probe = 0; probe < kProbes; ++probe)
        fold.trace(probe_trace(config, weather, probe, day));
  return fold.value();
}

void expect_golden(const TraceConfig& config, const std::vector<int>& days,
                   std::uint64_t want) {
  const std::uint64_t got = golden_hash(config, days);
  EXPECT_EQ(got, want) << "trace hash is now 0x" << std::hex << got;
}

TraceConfig cycling() {
  TraceConfig config;
  config.mode = TraceConfig::Mode::kCycling;
  return config;
}

// Southern latitude, dimmer peak and a 2.5-minute grid.
TraceConfig non_default(TraceConfig::Mode mode) {
  TraceConfig config;
  config.mode = mode;
  config.solar.latitude_deg = -41.3;
  config.solar.peak_irradiance_wm2 = 850.0;
  config.sample_period_min = 2.5;
  config.report_duty = 0.05;
  return config;
}

TEST(TraceGolden, MeasurementModeAllWeathers) {
  expect_golden(TraceConfig{}, {0, 1}, 0xf2529aec3522daf8ULL);
}

TEST(TraceGolden, CyclingModeAllWeathers) {
  expect_golden(cycling(), {0, 1}, 0x1deb00e8aca324e0ULL);
}

// Day 197 + 168 is day of year 365; day 169 wraps to day of year 1.
TEST(TraceGolden, DayOfYearWrapsPast365) {
  expect_golden(TraceConfig{}, {168, 169, 400}, 0xc865f0d407e58322ULL);
  expect_golden(cycling(), {168, 169, 400}, 0x6bf8eefc46055475ULL);
}

TEST(TraceGolden, NonDefaultLatitudeAndPeriod) {
  expect_golden(non_default(TraceConfig::Mode::kMeasurement), {0, 30},
                0x0de869d42b6b18c4ULL);
  expect_golden(non_default(TraceConfig::Mode::kCycling), {0, 30},
                0x2efa79bf9872e316ULL);
}

void expect_same_samples(const ChargingTrace& want, const ChargingTrace& got,
                         const std::string& what) {
  ASSERT_EQ(want.samples.size(), got.samples.size()) << what;
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    const TraceSample& a = want.samples[i];
    const TraceSample& b = got.samples[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.minute_of_day),
              std::bit_cast<std::uint64_t>(b.minute_of_day)) << what << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.lux), std::bit_cast<std::uint64_t>(b.lux))
        << what << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.voltage),
              std::bit_cast<std::uint64_t>(b.voltage)) << what << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.soc), std::bit_cast<std::uint64_t>(b.soc))
        << what << " sample " << i;
    ASSERT_EQ(a.charging, b.charging) << what << " sample " << i;
  }
}

// One call on a thread of its own, so nothing an earlier call on the
// calling thread left behind can reach it.
ChargingTrace fresh_trace(const TraceConfig& config, Weather weather, int probe,
                          int day) {
  ChargingTrace trace;
  std::thread([&] { trace = probe_trace(config, weather, probe, day); }).join();
  return trace;
}

// Consecutive calls that differ in one input at a time — each input the
// day's clear-sky curve depends on, and some it does not — must each equal
// a fresh single call.
TEST(TraceGolden, InterleavedDaysAndConfigsMatchFreshCalls) {
  struct Call {
    const char* what;
    TraceConfig config;
    Weather weather;
    int day;
  };
  const TraceConfig base = cycling();
  TraceConfig latitude = base;
  latitude.solar.latitude_deg = 45.0;
  TraceConfig peak = base;
  peak.solar.peak_irradiance_wm2 = 800.0;
  TraceConfig period = base;
  period.sample_period_min = 2.0;
  TraceConfig measurement;  // kMeasurement, default duty
  TraceConfig duty = measurement;
  duty.report_duty = 0.1;
  TraceConfig next_day_of_year = base;  // day 0 here is base's day 1
  next_day_of_year.solar.day_of_year = 198;
  TraceConfig cell = base;  // not part of the curve
  cell.cell.area_m2 = 0.003;
  cell.initial_soc = 0.6;
  const std::vector<Call> calls = {
      {"base", base, Weather::kSunny, 0},
      {"latitude", latitude, Weather::kSunny, 0},
      {"base", base, Weather::kSunny, 0},
      {"peak", peak, Weather::kSunny, 0},
      {"base/rain", base, Weather::kRain, 0},
      {"period", period, Weather::kSunny, 0},
      {"base", base, Weather::kSunny, 0},
      {"measurement", measurement, Weather::kSunny, 0},
      {"duty", duty, Weather::kSunny, 0},
      {"measurement", measurement, Weather::kOvercast, 0},
      {"base/day 1", base, Weather::kSunny, 1},
      {"next day of year", next_day_of_year, Weather::kSunny, 0},
      {"base", base, Weather::kSunny, 0},
      {"cell", cell, Weather::kSunny, 0},
      {"base/day 169", base, Weather::kPartlyCloudy, 169},
      {"latitude/day 169", latitude, Weather::kPartlyCloudy, 169},
      {"base/day 169", base, Weather::kPartlyCloudy, 169},
  };
  int probe = 0;
  for (const Call& call : calls) {
    const ChargingTrace want = fresh_trace(call.config, call.weather, probe, call.day);
    const ChargingTrace got = probe_trace(call.config, call.weather, probe, call.day);
    expect_same_samples(want, got, call.what);
    probe = (probe + 1) % kProbes;
  }
}

// Four threads generate different days at once; each trace equals the one
// generated on this thread beforehand.
TEST(TraceGolden, ConcurrentThreadsMatchOneThreadReference) {
  constexpr int kThreads = 4;
  constexpr int kDaysPerThread = 3;
  const TraceConfig configs[] = {cycling(), TraceConfig{}};
  const auto job = [&](int thread, int k, int probe) {
    const int day = thread * kDaysPerThread + k;
    return std::pair{&configs[static_cast<std::size_t>((day + probe) % 2)],
                     kWeathers[static_cast<std::size_t>(day % 4)]};
  };
  std::vector<std::vector<ChargingTrace>> want(kThreads), got(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int k = 0; k < kDaysPerThread; ++k)
      for (int probe = 0; probe < kProbes; ++probe) {
        const auto [config, weather] = job(t, k, probe);
        want[static_cast<std::size_t>(t)].push_back(
            probe_trace(*config, weather, probe, t * kDaysPerThread + k));
      }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int k = 0; k < kDaysPerThread; ++k)
        for (int probe = 0; probe < kProbes; ++probe) {
          const auto [config, weather] = job(t, k, probe);
          got[static_cast<std::size_t>(t)].push_back(
              probe_trace(*config, weather, probe, t * kDaysPerThread + k));
        }
    });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(want[t].size(), got[t].size());
    for (std::size_t i = 0; i < want[t].size(); ++i)
      expect_same_samples(want[t][i], got[t][i],
                          "thread " + std::to_string(t) + " trace " + std::to_string(i));
  }
}

}  // namespace
}  // namespace cool::energy
