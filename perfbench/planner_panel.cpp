#include "planner_panel.h"

#include <memory>
#include <string>
#include <utility>

#include "coold_client.h"
#include "core/baselines.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/repair.h"
#include "spans.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace coolbench {

namespace {

namespace core = cool::core;

// Minimum wall time per (planner, thread count) cell; every problem runs at
// least once.
constexpr double kCellMs = 250.0;

struct Scratch {
  std::vector<std::unique_ptr<cool::sub::EvalState>> states;
  cool::util::Arena arena;
};

struct Cell {
  double ms_per_call = 0.0;
  double oracle_calls = 0.0;
};

// Runs plan(i) over the problem indices cyclically for kCellMs, one span
// per call; plan returns the call's oracle-query count.
template <typename Plan>
Cell time_cell(const std::string& span_name, std::size_t problems, Plan&& plan) {
  Spans spans(true);
  std::size_t calls = 0;
  double oracle = 0.0;
  const Clock::time_point start = Clock::now();
  while (calls < problems || ms_between(start, Clock::now()) < kCellMs) {
    Spans::Scope span(spans, span_name.c_str(), calls);
    oracle += static_cast<double>(plan(calls % problems));
    ++calls;
  }
  const Spans::Totals totals = spans.totals().at(span_name);
  return {totals.total_ms / static_cast<double>(calls),
          oracle / static_cast<double>(calls)};
}

}  // namespace

void planner_panel(const std::vector<PanelProblem>& problems, RunResult& result) {
  std::vector<Scratch> scratch(problems.size());
  std::vector<core::PeriodicSchedule> planned;
  for (const PanelProblem& problem : problems)
    planned.push_back(core::LazyGreedyScheduler{}.schedule(*problem.problem).schedule);
  const auto context = [&scratch](std::size_t i) {
    core::PlannerContext ctx;
    ctx.scratch_states = &scratch[i].states;
    ctx.arena = &scratch[i].arena;
    return ctx;
  };
  const auto run = [&](const std::string& planner, std::size_t i) -> std::size_t {
    const core::Problem& problem = *problems[i].problem;
    if (planner == "lazy_greedy")
      return core::LazyGreedyScheduler{}.schedule(problem, context(i)).oracle_calls;
    if (planner == "greedy")
      return core::GreedyScheduler{}.schedule(problem, context(i)).oracle_calls;
    if (planner == "hef")
      return core::HefScheduler{}.schedule(problem, context(i)).oracle_calls;
    return core::repair_schedule(planned[i], problem.slot_utility(),
                                 problems[i].dead)
        .oracle_calls;
  };
  // (planner, verb): metrics core.<planner>.<verb>_ms[.t1],
  // core.<planner>.oracle_calls and util.parallel.speedup.<planner>.
  const std::pair<const char*, const char*> planners[] = {
      {"lazy_greedy", "schedule"}, {"greedy", "schedule"},
      {"hef", "schedule"}, {"repair", "repair"}};
  for (const auto& [planner, verb] : planners) {
    const std::string span = std::string("core.") + planner + "." + verb;
    Cell cells[2];  // default threads, one thread
    for (int one_thread = 0; one_thread < 2; ++one_thread) {
      cool::util::set_thread_count(one_thread ? 1 : 0);
      cells[one_thread] = time_cell(span, problems.size(), [&](std::size_t i) {
        return run(planner, i);
      });
    }
    cool::util::set_thread_count(0);
    result.add(span + "_ms", cells[0].ms_per_call, "ms");
    result.add(span + "_ms.t1", cells[1].ms_per_call, "ms");
    result.add(std::string("core.") + planner + ".oracle_calls",
               cells[0].oracle_calls, "count");
    result.add(std::string("util.parallel.speedup.") + planner,
               cells[1].ms_per_call / cells[0].ms_per_call, "ratio");
  }
}

}  // namespace coolbench
