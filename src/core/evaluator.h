// Schedule evaluation: total and per-slot utility over the working time
// (paper Section II-D: U_X = Σ_t Σ_i U_i(S_X(O_i, t))).
//
// Slots are evaluated one after another on the calling thread and summed
// in slot order. A reusable Evaluator keeps one reset()-able oracle state,
// so repeated evaluation (the repair oracle, LP rounding, benches) stops
// allocating a fresh EvalState per slot per call.
#pragma once

#include <memory>
#include <vector>

#include "core/problem.h"
#include "core/schedule.h"
#include "submodular/function.h"

namespace cool::core {

struct Evaluation {
  double total_utility = 0.0;        // Σ over all ℒ slots
  double per_slot_average = 0.0;     // total / ℒ
  std::vector<double> slot_utilities;  // one entry per slot of one period
                                       // (periodic) or per horizon slot
};

// Reusable evaluation engine bound to one problem. Not safe for concurrent
// use by multiple callers (it owns a scratch state), but cheap to call
// repeatedly: the state is allocated once and reset() between slots.
class Evaluator {
 public:
  explicit Evaluator(const Problem& problem);

  // Periodic schedule: evaluates one period and scales by α (valid because
  // the tiled schedule repeats the same active sets; Theorem 4.3).
  Evaluation operator()(const PeriodicSchedule& schedule);

  // Full-horizon schedule: evaluates every slot.
  Evaluation operator()(const HorizonSchedule& schedule);

 private:
  template <typename Schedule>
  void evaluate_slots(const Schedule& schedule, std::size_t slot_count,
                      std::vector<double>& out);

  const Problem* problem_;
  // Scratch oracle state, reset() between slots.
  std::unique_ptr<sub::EvalState> state_;
};

// One-shot forms (build a temporary Evaluator).
Evaluation evaluate(const Problem& problem, const PeriodicSchedule& schedule);
Evaluation evaluate(const Problem& problem, const HorizonSchedule& schedule);

// The paper's reported metric: average utility per target per time-slot.
// `targets` is the number m of targets the slot utility sums over (pass 1
// for single-objective utilities).
double average_utility_per_target(const Evaluation& eval, std::size_t targets);

}  // namespace cool::core
