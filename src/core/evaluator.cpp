#include "core/evaluator.h"

#include <stdexcept>

namespace cool::core {

Evaluator::Evaluator(const Problem& problem)
    : problem_(&problem), state_(problem.slot_utility().make_state()) {}

template <typename Schedule>
void Evaluator::evaluate_slots(const Schedule& schedule,
                               std::size_t slot_count,
                               std::vector<double>& out) {
  out.assign(slot_count, 0.0);
  for (std::size_t t = 0; t < slot_count; ++t) {
    state_->reset();
    for (const auto s : schedule.active_set(t)) state_->add(s);
    out[t] = state_->value();
  }
}

Evaluation Evaluator::operator()(const PeriodicSchedule& schedule) {
  if (schedule.sensor_count() != problem_->sensor_count() ||
      schedule.slots_per_period() != problem_->slots_per_period())
    throw std::invalid_argument("evaluate: schedule shape mismatch");
  Evaluation eval;
  evaluate_slots(schedule, schedule.slots_per_period(), eval.slot_utilities);
  double period_total = 0.0;
  for (const double v : eval.slot_utilities) period_total += v;
  eval.total_utility = period_total * static_cast<double>(problem_->periods());
  eval.per_slot_average =
      eval.total_utility / static_cast<double>(problem_->horizon_slots());
  return eval;
}

Evaluation Evaluator::operator()(const HorizonSchedule& schedule) {
  if (schedule.sensor_count() != problem_->sensor_count() ||
      schedule.horizon_slots() != problem_->horizon_slots())
    throw std::invalid_argument("evaluate: schedule shape mismatch");
  Evaluation eval;
  evaluate_slots(schedule, schedule.horizon_slots(), eval.slot_utilities);
  for (const double v : eval.slot_utilities) eval.total_utility += v;
  eval.per_slot_average =
      eval.total_utility / static_cast<double>(problem_->horizon_slots());
  return eval;
}

Evaluation evaluate(const Problem& problem, const PeriodicSchedule& schedule) {
  Evaluator eval(problem);
  return eval(schedule);
}

Evaluation evaluate(const Problem& problem, const HorizonSchedule& schedule) {
  Evaluator eval(problem);
  return eval(schedule);
}

double average_utility_per_target(const Evaluation& eval, std::size_t targets) {
  if (targets == 0) throw std::invalid_argument("average_utility_per_target: m = 0");
  return eval.per_slot_average / static_cast<double>(targets);
}

}  // namespace cool::core
