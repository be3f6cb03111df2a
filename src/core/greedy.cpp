#include "core/greedy.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/obs.h"
#include "submodular/function.h"
#include "util/arena.h"

namespace cool::core {

namespace detail {

std::vector<std::unique_ptr<sub::EvalState>>& prepare_slot_states(
    const Problem& problem, const PlannerContext& ctx, std::size_t slots,
    std::vector<std::unique_ptr<sub::EvalState>>& local) {
  auto& states = ctx.scratch_states ? *ctx.scratch_states : local;
  if (states.size() != slots) {
    states.clear();
    states.reserve(slots);
    for (std::size_t t = 0; t < slots; ++t)
      states.push_back(problem.slot_utility().make_state());
  } else {
    // reset() is contractually equivalent to a fresh make_state(); the
    // ResetReuse tests pin this down bit-for-bit.
    for (auto& state : states) state->reset();
  }
  return states;
}

ScanBest scan_best(const sub::FusedSlotEvaluator& fused,
                   const sub::EvalState* const* states, std::size_t T,
                   const std::size_t* ids, std::size_t count, double* gains) {
  const auto better = [](const ScanBest& a, const ScanBest& b) {
    if (a.gain != b.gain) return a.gain > b.gain ? a : b;
    if (a.index != b.index) return a.index < b.index ? a : b;
    return a.slot <= b.slot ? a : b;
  };
  // Each slot row's first strict maximum is its lowest-index best; folding
  // the T row winners in slot order keeps the lowest slot among equal gains.
  ScanBest best{-1.0, count, T};
  if (fused) {
    double bg[sub::FusedSlotEvaluator::kMaxSlots];
    std::size_t bi[sub::FusedSlotEvaluator::kMaxSlots];
    fused.fn(states, T, ids, count, bg, bi);
    for (std::size_t t = 0; t < T; ++t)
      best = better(best, ScanBest{bg[t], bi[t], t});
  } else {
    for (std::size_t t = 0; t < T; ++t) {
      states[t]->marginal_batch({ids, count}, {gains, count});
      // Linear first-max scan — identical tie-break semantics to the
      // fused kernel's in-register argmax.
      std::size_t arg = 0;
      for (std::size_t i = 1; i < count; ++i)
        if (gains[i] > gains[arg]) arg = i;
      best = better(best, ScanBest{gains[arg], arg, t});
    }
  }
  return best;
}

}  // namespace detail

GreedyResult GreedyScheduler::schedule(const Problem& problem,
                                       const PlannerContext& ctx) const {
  COOL_SPAN("greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "GreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  // One incremental evaluator per slot; slot states grow as sensors land.
  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // All scan scratch comes from the planner arena (a call-local one when the
  // caller did not provide a warmed arena). A warmed arena serves every
  // later schedule() call with zero heap allocations — the property
  // scripts/check_profile.sh gates.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();
  // Unplaced sensors in ascending id order; a placement removes one entry.
  std::size_t* ids = arena.allocate_array<std::size_t>(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = v;
  // One gain row for the unfused fallback, reused for every slot.
  double* gains = arena.allocate_array<double>(n);

  // Fused slot-row scan-and-argmax (resolved once per call): when every slot
  // state is the flat detection oracle over one utility, each candidate's
  // coverage row is walked a single time for all T slots and the per-slot
  // argmax falls out of the same pass. Gains are bit-identical either way,
  // so both paths pick the same candidate.
  const sub::FusedSlotEvaluator fused = sub::resolve_fused(slot_state);
  const sub::EvalState** state_ptrs =
      arena.allocate_array<const sub::EvalState*>(T);
  for (std::size_t t = 0; t < T; ++t) state_ptrs[t] = slot_state[t].get();

  for (std::size_t step = 0; step < n; ++step) {
    // Deadline poll between placement steps: a step either fully lands or
    // never starts, so cancellation leaves no half-applied placement.
    if (ctx.cancel) ctx.cancel->checkpoint();
    // The scan walks one ascending list of unplaced sensor ids, so the
    // lowest index is the lowest sensor id: the tie-break of the plain
    // v-outer/t-inner scan (max gain, lowest sensor, lowest slot).
    const std::size_t len = n - step;
    const detail::ScanBest best =
        detail::scan_best(fused, state_ptrs, T, ids, len, gains);
    // Monotone utilities make every gain >= 0, so a pair always exists.
    result.oracle_calls += len * T;
    const std::size_t sensor = ids[best.index];
    std::copy(ids + best.index + 1, ids + len, ids + best.index);
    slot_state[best.slot]->add(sensor);
    result.schedule.set_active(sensor, best.slot);
    result.steps.push_back(GreedyStep{sensor, best.slot, best.gain});
  }
  // Published once per schedule, not per marginal query, so the enabled-
  // but-idle cost stays off the O(n^2 T) inner loop.
  COOL_METRIC_ADD("greedy.schedules", 1);
  COOL_METRIC_ADD("greedy.oracle_calls", result.oracle_calls);
  COOL_METRIC_OBSERVE("greedy.oracle_calls_per_schedule", result.oracle_calls);
  return result;
}

}  // namespace cool::core
