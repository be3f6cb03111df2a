// Ablation: plain greedy (the paper's Algorithm 1) vs lazy greedy vs
// stochastic greedy. Plain and lazy return the same schedule (lazy-delta is
// exactly 0) at very different oracle budgets — DESIGN.md §6 and §15. The
// last row is an all-overlap network (every sensor covers every target),
// the shape where the plain scan beats the lazy heap most clearly on wall
// time.
//
//   ./bench_ablation_lazy [--seed 9] [--days 3]
#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "core/stochastic_greedy.h"
#include "net/network.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  cool::util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
  const auto days = static_cast<std::size_t>(cli.get_int("days", 3));
  cli.finish();

  std::printf("=== Ablation: plain greedy vs lazy vs stochastic "
              "(sampling) greedy ===\n\n");
  cool::util::Table table({"shape", "plain-oracle", "lazy-oracle", "stoch-oracle",
                           "plain-ms", "lazy-ms", "stoch-ms", "lazy-delta",
                           "stoch-delta%"});
  struct Shape {
    const char* label;
    std::size_t n, targets;
    double region_side, sensing_radius;
  };
  const Shape shapes[] = {{"50", 50, 20, 200.0, 40.0},
                          {"100", 100, 20, 200.0, 40.0},
                          {"200", 200, 20, 200.0, 40.0},
                          {"400", 400, 20, 200.0, 40.0},
                          {"800", 800, 20, 200.0, 40.0},
                          {"800 all-overlap", 800, 4, 100.0, 200.0}};
  for (const Shape& shape : shapes) {
    const std::size_t n = shape.n;
    cool::util::Accumulator plain_calls, lazy_calls, stoch_calls;
    cool::util::Accumulator plain_ms, lazy_ms, stoch_ms, delta, stoch_rel;
    for (std::size_t day = 0; day < days; ++day) {
      cool::net::NetworkConfig config;
      config.sensor_count = n;
      config.target_count = shape.targets;
      config.region_side = shape.region_side;
      config.sensing_radius = shape.sensing_radius;
      cool::util::Rng rng(seed * 101 + n * 7 + day);
      const auto network = cool::net::make_random_network(config, rng);
      const auto problem = cool::core::Problem::detection_instance(
          network, 0.4, cool::energy::ChargingPattern{}, 12);

      const double t0 = now_ms();
      const auto plain = cool::core::GreedyScheduler().schedule(problem);
      const double t1 = now_ms();
      const auto lazy = cool::core::LazyGreedyScheduler().schedule(problem);
      const double t2 = now_ms();
      cool::util::Rng stoch_rng(seed * 997 + day);
      const auto stoch =
          cool::core::StochasticGreedyScheduler(0.1).schedule(problem, stoch_rng);
      const double t3 = now_ms();

      plain_calls.add(static_cast<double>(plain.oracle_calls));
      lazy_calls.add(static_cast<double>(lazy.oracle_calls));
      stoch_calls.add(static_cast<double>(stoch.oracle_calls));
      plain_ms.add(t1 - t0);
      lazy_ms.add(t2 - t1);
      stoch_ms.add(t3 - t2);
      const double plain_u =
          cool::core::evaluate(problem, plain.schedule).total_utility;
      delta.add(cool::core::evaluate(problem, lazy.schedule).total_utility -
                plain_u);
      stoch_rel.add(
          100.0 *
          (cool::core::evaluate(problem, stoch.schedule).total_utility / plain_u -
           1.0));
    }
    table.row({shape.label,
               cool::util::format("%.0f", plain_calls.mean()),
               cool::util::format("%.0f", lazy_calls.mean()),
               cool::util::format("%.0f", stoch_calls.mean()),
               cool::util::format("%.2f", plain_ms.mean()),
               cool::util::format("%.2f", lazy_ms.mean()),
               cool::util::format("%.2f", stoch_ms.mean()),
               cool::util::format("%+.2e", delta.mean()),
               cool::util::format("%+.2f%%", stoch_rel.mean())});
  }
  table.print(std::cout);
  std::printf("\nexpected: lazy greedy matches plain utility exactly "
              "(lazy-delta 0) at a growing oracle saving; on these short "
              "coverage rows its wall time stays near the scan's, and the "
              "scan wins clearly on the all-overlap row; stochastic greedy "
              "cuts oracles further for a fraction of a percent of "
              "utility.\n");
  return 0;
}
