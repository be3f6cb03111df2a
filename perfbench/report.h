// Result plumbing shared by every workload: the metric list printed as the
// final JSON line, the correctness verdict, and the one quantile definition
// (util::percentile) every reported percentile goes through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace coolbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a failed correctness check; the run reports correct=false.
  void fail(const std::string& why);
  std::string to_json() const;
};

// Decorrelated child seed: one run seed feeds many independent streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Highest quantile with at least ten samples beyond it, capped at 0.99 — the
// "p99" every latency metric reports. Needs at least 20 samples.
double tail_quantile(std::size_t samples);

// util::percentile over a copy; 0 for an empty sample.
double quantile(const std::vector<double>& sample, double q);
inline double median(const std::vector<double>& sample) {
  return quantile(sample, 0.5);
}
double mean(const std::vector<double>& sample);

// Peak resident set of this process in MiB (getrusage).
double self_peak_rss_mb();

// Shape of a run, from the command line.
struct RunOptions {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string coold;    // path to the coold binary
  std::string workdir;  // scratch directory inside the checkout
};

RunResult run_small_open(const RunOptions& options);
RunResult run_large_closed(const RunOptions& options);
RunResult run_gateway_month(const RunOptions& options);

}  // namespace coolbench
