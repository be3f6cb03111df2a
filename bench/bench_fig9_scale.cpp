// Figure 9: average utility per target per time-slot as the system scales —
// number of sensors n ∈ {100..500} × number of targets m ∈ {10..50}
// (p = 0.4, ρ = 3, T = 4). Uses the lazy greedy, which produces the
// same schedules as Algorithm 1 with far fewer oracle calls.
//
//   ./bench_fig9_scale [--days 5] [--seed 2] [--csv fig9.csv]
//
// Expected shape (paper): utility grows with n and shrinks with m; with
// n = 100–200 the average stays >= ~0.69 and with n = 300–500 >= ~0.78 —
// comfortably above the 0.5 guarantee everywhere.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/evaluator.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "energy/pattern.h"
#include "net/network.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

double run_point(std::size_t n, std::size_t m, std::size_t days,
                 std::uint64_t seed) {
  const auto pattern =
      cool::energy::pattern_for_weather(cool::energy::Weather::kSunny);
  cool::util::Accumulator acc;
  for (std::size_t day = 0; day < days; ++day) {
    cool::net::NetworkConfig config;
    config.sensor_count = n;
    config.target_count = m;
    config.region_side = 200.0;
    config.sensing_radius = 45.0;
    cool::util::Rng rng(seed * 7919 + day);
    const auto network = cool::net::make_random_network(config, rng);
    const auto problem =
        cool::core::Problem::detection_instance(network, 0.4, pattern, 12);
    const auto schedule =
        cool::core::LazyGreedyScheduler().schedule(problem).schedule;
    const auto eval = cool::core::evaluate(problem, schedule);
    acc.add(cool::core::average_utility_per_target(eval, m));
  }
  return acc.mean();
}

}  // namespace

int main(int argc, char** argv) {
  cool::util::Cli cli(argc, argv);
  const auto days = static_cast<std::size_t>(cli.get_int("days", 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2));
  const auto csv_path = cli.get_string("csv", "");
  cli.finish();

  std::ofstream csv_file;
  cool::util::CsvWriter* csv = nullptr;
  cool::util::CsvWriter writer(csv_file);
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", csv_path.c_str());
      return 1;
    }
    csv = &writer;
    csv->write_row({"sensors", "targets", "days", "avg_utility_per_target"});
  }

  std::printf("=== Figure 9: average utility, n = 100..500 x m = 10..50 "
              "(p = 0.4, rho = 3, %zu days each) ===\n\n", days);
  cool::util::Table table({"m \\ n", "100", "200", "300", "400", "500"});
  double min_small_n = 1.0, min_large_n = 1.0;
  for (std::size_t m = 10; m <= 50; m += 10) {
    std::vector<std::string> row{cool::util::format("%zu", m)};
    for (std::size_t n = 100; n <= 500; n += 100) {
      const double u = run_point(n, m, days, seed + m * 10 + n);
      row.push_back(cool::util::format("%.4f", u));
      if (csv)
        csv->write_row({cool::util::format("%zu", n),
                        cool::util::format("%zu", m),
                        cool::util::format("%zu", days),
                        cool::util::format("%.6f", u)});
      if (n <= 200) min_small_n = std::min(min_small_n, u);
      else min_large_n = std::min(min_large_n, u);
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
  std::printf("\nmin over n in {100,200}: %.4f (paper reports >= 0.69)\n",
              min_small_n);
  std::printf("min over n in {300,400,500}: %.4f (paper reports >= 0.78)\n",
              min_large_n);
  std::printf("every cell must exceed the 0.5 approximation floor: %s\n",
              std::min(min_small_n, min_large_n) > 0.5 ? "yes" : "NO");
  if (!csv_path.empty()) std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
