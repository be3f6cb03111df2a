// Planner panel: the four planners coold and the gateway loop use, timed one
// span per call on a workload's own instances, at the default thread count
// and again at one thread. Reports per-call time, oracle calls per call and
// util.parallel.speedup = one-thread time / default time per planner.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "report.h"

namespace coolbench {

struct PanelProblem {
  const cool::core::Problem* problem = nullptr;  // rho > 1
  std::vector<std::uint8_t> dead;                // repair's failed sensors
};

void planner_panel(const std::vector<PanelProblem>& problems, RunResult& result);

}  // namespace coolbench
