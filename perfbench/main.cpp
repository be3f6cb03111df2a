// coolbench — the repository benchmark's client. Normally started by run.py,
// which builds it and coold first:
//
//   coolbench --workload coold-small-open|coold-large-closed|gateway-month
//             --seed N --seconds S --trace 0|1
//             --coold PATH --workdir DIR
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// {"correct","attempted","failed","metrics"}. Exits non-zero without a
// result when the run cannot be carried out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"

namespace {

// Aggregate CPU tick counters from /proc/stat (user ... steal), or empty.
std::vector<unsigned long long> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::vector<unsigned long long> ticks(8, 0);
  if (!(stat >> cpu) || cpu != "cpu") return {};
  for (auto& tick : ticks)
    if (!(stat >> tick)) return {};
  return ticks;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coolbench;
  try {
    RunOptions options;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--coold") options.coold = value;
      else if (flag == "--workdir") options.workdir = value;
      else throw std::invalid_argument("unknown flag " + flag);
    }
    if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
    if (options.workdir.empty()) throw std::invalid_argument("--workdir is required");
    std::filesystem::create_directories(options.workdir);
    // The default thread count is the hardware's, for coold and in-process.
    ::unsetenv("COOL_THREADS");

    // Host CPU steal over the run, for reading a noisy run; on a shared VM
    // it is the main source of run-to-run spread.
    const std::vector<unsigned long long> before = cpu_ticks();
    RunResult result;
    if (options.workload == "coold-small-open") {
      result = run_small_open(options);
    } else if (options.workload == "coold-large-closed") {
      result = run_large_closed(options);
    } else if (options.workload == "gateway-month") {
      result = run_gateway_month(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    const std::vector<unsigned long long> after = cpu_ticks();
    if (!before.empty() && !after.empty()) {
      const double total = static_cast<double>(
          std::accumulate(after.begin(), after.end(), 0ULL) -
          std::accumulate(before.begin(), before.end(), 0ULL));
      const double busy = static_cast<double>(after[0] + after[2] - before[0] - before[2]);
      const double steal = static_cast<double>(after[7] - before[7]);
      if (total > 0.0)
        std::fprintf(stderr, "coolbench: host cpu busy %.1f%%, stolen %.1f%%\n",
                     100.0 * busy / total, 100.0 * steal / total);
    }
    for (const Metric& metric : result.metrics)
      std::fprintf(stderr, "  %-40s %14.6g %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coolbench: %s\n", e.what());
    return 1;
  }
}
