// Microbenchmarks (google-benchmark): scheduling throughput, oracle cost,
// the simplex solver, and arrangement construction — the performance
// envelope a deployer cares about when re-planning every 2-hour estimation
// window.
//
// Beyond the google-benchmark flags, three flags of our own are peeled off
// before benchmark::Initialize sees the command line:
//   --json <file>     perf-harness mode: skip google-benchmark, run a
//                     fixed deterministic scheduling workload, and emit the
//                     stable {bench, config, provenance, metrics} schema
//                     that scripts/run_bench_suite.sh merges into
//                     BENCH_results.json (see obs/analyze/bench_json.h);
//                     --perf-n / --perf-reps / --seed size that workload.
//                     A non-default --perf-n names the record
//                     bench_scheduler_perf_n<N> so each problem size gets
//                     its own baseline rows (lazy_speedup is plain
//                     greedy time over lazy greedy time at each size).
//                     The workload runs against a persistent PlannerContext
//                     (scratch states + arena), and when the allocation
//                     hooks are compiled in the run also records
//                     greedy/lazy_steady_alloc_calls: the exact heap
//                     allocation count of one warmed schedule() call
//   --repair-shapes <R>
//                     repair timing mode: skip google-benchmark and, on
//                     one thread, time R repairs (8 fresh random dead
//                     sensors each) of a lazy-greedy plan for each
//                     svc::make_problem shape below, printing the
//                     median and quartile ms with mean moves and oracle
//                     calls per shape; --seed picks the instances
//   --threads <N>     scheduler thread count (util/parallel pool). In json
//                     mode N > 1 runs the workload serially AND at N
//                     threads, records *_par_speedup metrics, and names the
//                     record bench_scheduler_perf_t<N> so the threads axis
//                     gets its own baseline rows; N <= 1 keeps the
//                     original bench_scheduler_perf record untouched.
//   --trace <file>    Chrome trace of the run (obs/session.h)
//   --metrics <file>  metrics registry dump (.json selects JSON, else CSV)
//   --profile <file>  sampling CPU + allocation profile of the run (JSON
//                     plus a flamegraph-ready .folded sidecar;
//                     --profile-hz overrides the 997 Hz default)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/lp_scheduler.h"
#include "core/passive_greedy.h"
#include "core/problem.h"
#include "core/repair.h"
#include "geometry/arrangement.h"
#include "geometry/deployment.h"
#include "lp/simplex.h"
#include "net/network.h"
#include "obs/analyze/bench_json.h"
#include "obs/prof.h"
#include "obs/session.h"
#include "submodular/detection.h"
#include "svc/session.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

cool::core::Problem make_problem(std::size_t n, std::size_t m, bool rho_gt_one,
                                 std::uint64_t seed) {
  cool::net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = m;
  config.region_side = 200.0;
  config.sensing_radius = 40.0;
  cool::util::Rng rng(seed);
  const auto network = cool::net::make_random_network(config, rng);
  auto utility = std::make_shared<cool::sub::MultiTargetDetectionUtility>(
      cool::sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
  return cool::core::Problem(std::move(utility), 4, 12, rho_gt_one);
}

void BM_GreedySchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto problem = make_problem(n, n / 10 + 1, true, 42);
  for (auto _ : state)
    benchmark::DoNotOptimize(cool::core::GreedyScheduler().schedule(problem));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GreedySchedule)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_LazyGreedySchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto problem = make_problem(n, n / 10 + 1, true, 42);
  for (auto _ : state)
    benchmark::DoNotOptimize(cool::core::LazyGreedyScheduler().schedule(problem));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LazyGreedySchedule)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_PassiveGreedySchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto problem = make_problem(n, n / 10 + 1, false, 42);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cool::core::PassiveGreedyScheduler().schedule(problem));
}
BENCHMARK(BM_PassiveGreedySchedule)->Arg(25)->Arg(50)->Arg(100);

void BM_MarginalQuery(benchmark::State& state) {
  const auto problem = make_problem(500, 50, true, 7);
  const auto eval = problem.slot_utility().make_state();
  for (std::size_t v = 0; v < 250; ++v) eval->add(v * 2);
  std::size_t v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval->marginal(v));
    v = (v + 2) % 500;
  }
}
BENCHMARK(BM_MarginalQuery);

void BM_SimplexActivationLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cool::net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = 4;
  config.sensing_radius = 45.0;
  cool::util::Rng rng(3);
  const auto network = cool::net::make_random_network(config, rng);
  auto utility = std::make_shared<cool::sub::MultiTargetDetectionUtility>(
      cool::sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
  const cool::core::Problem problem(utility, 4, 1, true);
  for (auto _ : state) {
    cool::util::Rng round_rng(5);
    benchmark::DoNotOptimize(
        cool::core::LpScheduler().schedule(problem, *utility, round_rng));
  }
}
BENCHMARK(BM_SimplexActivationLp)->Arg(10)->Arg(20)->Arg(40);

void BM_ArrangementBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto region = cool::geom::Rect::square(100.0);
  cool::util::Rng rng(9);
  const auto centers = cool::geom::uniform_points(region, n, rng);
  const auto disks = cool::geom::disks_at(centers, 18.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(cool::geom::Arrangement(region, disks, 256));
}
BENCHMARK(BM_ArrangementBuild)->Arg(20)->Arg(50)->Arg(100);

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-reps wall clock for one scheduler at the currently configured
// thread count: the least-interrupted measurement of identical work.
template <typename Run>
double best_of(std::size_t reps, Run&& run) {
  double best = -1.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run());
    const double ms = ms_since(start);
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

// Perf-harness mode: a fixed greedy/lazy-greedy workload with deterministic
// utilities and oracle counts; only the wall-clock metrics vary between
// runs, which is exactly what the tolerance bands in
// scripts/check_perf_regress.sh account for. With threads > 1 the workload
// is timed both serially and on the pool; the parallel run must produce the
// identical schedule (checked here, not just in the unit tests) and the
// serial/parallel ratio lands in *_par_speedup.
int run_json_mode(const std::string& json_path, std::size_t n,
                  std::size_t reps, std::uint64_t seed, std::size_t threads,
                  const cool::obs::Provenance& provenance,
                  cool::obs::ObsSession& obs) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto problem = make_problem(n, n / 10 + 1, true, seed);

  // Persistent planner context, exactly like a warm coold session: the slot
  // states and the scratch arena are created by the first schedule() call
  // and reused by every later one, so the timed reps measure the
  // steady-state (allocation-free) hot path.
  std::vector<std::unique_ptr<cool::sub::EvalState>> scratch;
  cool::util::Arena arena;
  cool::core::PlannerContext ctx;
  ctx.scratch_states = &scratch;
  ctx.arena = &arena;

  cool::util::set_thread_count(1);
  const auto greedy = cool::core::GreedyScheduler().schedule(problem, ctx);
  const auto lazy = cool::core::LazyGreedyScheduler().schedule(problem, ctx);
  const double greedy_ms = best_of(reps, [&] {
    return cool::core::GreedyScheduler().schedule(problem, ctx);
  });
  const double lazy_ms = best_of(reps, [&] {
    return cool::core::LazyGreedyScheduler().schedule(problem, ctx);
  });
  const double greedy_utility =
      cool::core::evaluate(problem, greedy.schedule).per_slot_average;
  const double lazy_utility =
      cool::core::evaluate(problem, lazy.schedule).per_slot_average;

  std::vector<std::pair<std::string, double>> metrics{
      {"wall_ms", 0.0},  // patched below once the run is complete
      {"greedy_wall_ms", greedy_ms},
      {"lazy_wall_ms", lazy_ms},
      {"lazy_speedup", lazy_ms > 0.0 ? greedy_ms / lazy_ms : 0.0},
      {"utility", greedy_utility},
      {"lazy_utility", lazy_utility},
      {"greedy_oracle_calls", static_cast<double>(greedy.oracle_calls)},
      {"lazy_oracle_calls", static_cast<double>(lazy.oracle_calls)},
      {"greedy_oracle_calls_per_s",
       greedy_ms > 0.0
           ? static_cast<double>(greedy.oracle_calls) / (greedy_ms / 1000.0)
           : 0.0}};

  // Steady-state allocation audit: one more schedule() against the warmed
  // context, with the allocation hooks counting. The counts are exact and
  // deterministic (a handful of result-object allocations; all planner
  // scratch comes from the warm arena), so check_perf_regress.sh holds them
  // with a zero-tolerance band. Skipped under sanitizers (no hooks) and
  // when a --profile capture owns the alloc machinery.
  if (cool::obs::prof::alloc_hooks_compiled() && !cool::obs::prof::running()) {
    const auto steady_allocs = [&](auto&& run) {
      cool::obs::prof::reset_alloc_stats();
      cool::obs::prof::set_alloc_profiling(true);
      run();
      cool::obs::prof::set_alloc_profiling(false);
      const double calls =
          static_cast<double>(cool::obs::prof::alloc_totals().calls);
      cool::obs::prof::reset_alloc_stats();
      return calls;
    };
    metrics.push_back({"greedy_steady_alloc_calls", steady_allocs([&] {
                         benchmark::DoNotOptimize(
                             cool::core::GreedyScheduler().schedule(problem,
                                                                    ctx));
                       })});
    metrics.push_back({"lazy_steady_alloc_calls", steady_allocs([&] {
                         benchmark::DoNotOptimize(
                             cool::core::LazyGreedyScheduler().schedule(
                                 problem, ctx));
                       })});
  }

  std::string bench_name = "bench_scheduler_perf";
  if (n != 200) bench_name += "_n" + std::to_string(n);
  if (threads > 1) {
    cool::util::set_thread_count(threads);
    const auto greedy_par = cool::core::GreedyScheduler().schedule(problem, ctx);
    const auto lazy_par =
        cool::core::LazyGreedyScheduler().schedule(problem, ctx);
    if (greedy_par.schedule != greedy.schedule ||
        lazy_par.schedule != lazy.schedule) {
      std::fprintf(stderr,
                   "parallel schedule diverged from serial at %zu threads\n",
                   threads);
      return 1;
    }
    const double greedy_par_ms = best_of(reps, [&] {
      return cool::core::GreedyScheduler().schedule(problem, ctx);
    });
    const double lazy_par_ms = best_of(reps, [&] {
      return cool::core::LazyGreedyScheduler().schedule(problem, ctx);
    });
    cool::util::set_thread_count(1);
    metrics.push_back({"greedy_par_wall_ms", greedy_par_ms});
    metrics.push_back({"lazy_par_wall_ms", lazy_par_ms});
    metrics.push_back(
        {"greedy_par_speedup",
         greedy_par_ms > 0.0 ? greedy_ms / greedy_par_ms : 0.0});
    metrics.push_back(
        {"lazy_par_speedup", lazy_par_ms > 0.0 ? lazy_ms / lazy_par_ms : 0.0});
    bench_name += "_t" + std::to_string(threads);
  }

  // Write the session's outputs first: this record's timing digits vary in
  // length, so writing it inside a --profile window would move the
  // capture's allocation totals from run to run.
  obs.flush();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  cool::obs::Provenance stamped = provenance;
  stamped.wall_ms = ms_since(t0);
  metrics.front().second = stamped.wall_ms;
  cool::obs::analyze::write_bench_json(
      out, bench_name,
      {{"sensors", std::to_string(n)},
       {"reps", std::to_string(reps)},
       {"seed", std::to_string(seed)},
       {"threads", std::to_string(threads == 0 ? 1 : threads)}},
      stamped, metrics);
  std::printf("wrote %s (greedy %.1f ms, lazy %.1f ms, utility %.4f)\n",
              json_path.c_str(), greedy_ms, lazy_ms, greedy_utility);
  return 0;
}

// Repair timing mode: svc::make_problem instances shaped like the
// small-open and large-closed tenants, the gateway deployment at two
// densities, and an all-overlap network, each repaired `repairs` times
// with fresh dead sets.
int run_repair_shapes(std::size_t repairs, std::uint64_t seed) {
  struct Shape {
    const char* name;
    std::size_t sensors, targets;
    double radius, side;
  };
  const Shape shapes[] = {
      {"n30/50/r15 (small-open)", 30, 50, 15.0, 100.0},
      {"n200/40/r40 100 m", 200, 40, 40.0, 100.0},
      {"n200/40/r40 140 m (gateway)", 200, 40, 40.0, 140.0},
      {"n800/800/r6 (large-closed)", 800, 800, 6.0, 100.0},
      {"n800/4/r200 (all overlap)", 800, 4, 200.0, 100.0},
  };
  constexpr std::size_t kDead = 8;
  cool::util::set_thread_count(1);
  std::printf("%-30s %9s %9s %9s %7s %9s\n", "shape", "p25_ms", "median_ms",
              "p75_ms", "moves", "oracle");
  for (const Shape& shape : shapes) {
    cool::svc::NetworkSpec spec;
    spec.sensors = shape.sensors;
    spec.targets = shape.targets;
    spec.sensing_radius = shape.radius;
    spec.region_side = shape.side;
    spec.seed = seed;
    const auto problem = cool::svc::make_problem(spec);
    const auto schedule =
        cool::core::LazyGreedyScheduler().schedule(problem).schedule;
    cool::util::Rng rng(seed);
    std::vector<double> ms;
    double moves = 0.0, oracle = 0.0;
    for (std::size_t r = 0; r < repairs; ++r) {
      std::vector<std::uint8_t> dead(shape.sensors, 0);
      for (std::size_t killed = 0; killed < kDead;) {
        const auto v = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(shape.sensors) - 1));
        if (!dead[v]) {
          dead[v] = 1;
          ++killed;
        }
      }
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          cool::core::repair_schedule(schedule, problem.slot_utility(), dead);
      ms.push_back(ms_since(start));
      moves += static_cast<double>(result.moves);
      oracle += static_cast<double>(result.oracle_calls);
    }
    const double count = static_cast<double>(repairs);
    std::printf("%-30s %9.3f %9.3f %9.3f %7.1f %9.0f\n", shape.name,
                cool::util::percentile(ms, 0.25),
                cool::util::percentile(ms, 0.5),
                cool::util::percentile(ms, 0.75), moves / count,
                oracle / count);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel our flags; everything else passes through to google-benchmark.
  std::string json_path, trace_path, metrics_path, profile_path;
  std::size_t perf_n = 200, perf_reps = 3, threads = 1, repair_shapes = 0;
  std::uint64_t seed = 42;
  int profile_hz = 0;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&](const char* name,
                                std::string* value) -> bool {
      const std::string prefix = std::string(name) + '=';
      if (arg == name) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", name);
          std::exit(2);
        }
        *value = argv[++i];
        return true;
      }
      if (cool::util::starts_with(arg, prefix)) {
        *value = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string number;
    if (flag_value("--json", &json_path) || flag_value("--trace", &trace_path) ||
        flag_value("--metrics", &metrics_path) ||
        flag_value("--profile", &profile_path))
      continue;
    if (flag_value("--profile-hz", &number)) {
      profile_hz = static_cast<int>(cool::util::parse_int(number));
      continue;
    }
    if (flag_value("--perf-n", &number)) {
      perf_n = static_cast<std::size_t>(cool::util::parse_int(number));
      continue;
    }
    if (flag_value("--perf-reps", &number)) {
      perf_reps = static_cast<std::size_t>(cool::util::parse_int(number));
      continue;
    }
    if (flag_value("--seed", &number)) {
      seed = static_cast<std::uint64_t>(cool::util::parse_int(number));
      continue;
    }
    if (flag_value("--repair-shapes", &number)) {
      repair_shapes = static_cast<std::size_t>(cool::util::parse_int(number));
      continue;
    }
    if (flag_value("--threads", &number)) {
      threads = static_cast<std::size_t>(cool::util::parse_int(number));
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  cool::util::set_thread_count(threads);

  const auto provenance = cool::obs::Provenance::collect(seed, argc, argv);
  cool::obs::ObsSession obs(trace_path, metrics_path, profile_path, profile_hz,
                            provenance);
  if (repair_shapes > 0) return run_repair_shapes(repair_shapes, seed);
  if (!json_path.empty())
    return run_json_mode(json_path, perf_n, perf_reps, seed, threads,
                         provenance, obs);

  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
