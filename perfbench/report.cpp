#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <span>

#include "obs/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace coolbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "coolbench: check failed: %s\n", why.c_str());
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + cool::obs::json_escape(metrics[i].name) + "\":{\"value\":";
    // json_number round-trips every double; non-finite values (which no
    // metric should produce) become 0 so the line stays valid JSON.
    const std::string number = cool::obs::json_number(metrics[i].value);
    out += number == "null" ? "0" : number;
    out += ",\"unit\":\"" + cool::obs::json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + salt;
  return cool::util::splitmix64(state);
}

double tail_quantile(std::size_t samples) {
  if (samples < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

double quantile(const std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  return cool::util::percentile(std::span<const double>(sample), q);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return cool::util::mean(std::span<const double>(sample));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace coolbench
