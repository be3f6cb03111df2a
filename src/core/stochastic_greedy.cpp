#include "core/stochastic_greedy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "submodular/function.h"
#include "util/arena.h"

namespace cool::core {

StochasticGreedyScheduler::StochasticGreedyScheduler(double epsilon)
    : epsilon_(epsilon) {
  if (epsilon <= 0.0 || epsilon >= 1.0)
    throw std::invalid_argument("StochasticGreedyScheduler: epsilon outside (0,1)");
}

GreedyResult StochasticGreedyScheduler::schedule(const Problem& problem,
                                                 util::Rng& rng,
                                                 const PlannerContext& ctx) const {
  COOL_SPAN("stochastic_greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "StochasticGreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // Sample size per step: the textbook (|V|/k)·ln(1/ε) over the |V| = n·T
  // (sensor, slot) pairs with k = n placements is T·ln(1/ε) pairs — a
  // constant ⌈ln(1/ε)⌉ sensors, each scored in all T slots, capped by the
  // sensors still unplaced.
  const auto sample_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::log(1.0 / epsilon_))));

  // Scratch (candidate pool + one gain row) comes from the planner arena;
  // the sampled candidates sit contiguously at the pool's front after the
  // partial Fisher-Yates pass, so the scan batches straight out of the
  // pool array.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();
  util::ArenaVector<std::size_t> pool(&arena);
  pool.resize(n);
  for (std::size_t v = 0; v < n; ++v) pool[v] = v;
  // One gain row for the unfused fallback, reused for every slot.
  double* gains = arena.allocate_array<double>(std::min(n, sample_cap));

  // Fused slot-row evaluation, resolved once per call (see greedy.cpp):
  // each sampled candidate's coverage row is walked a single time for all
  // T slots, producing bit-identical gains to the per-slot batch path.
  const sub::FusedSlotEvaluator fused = sub::resolve_fused(slot_state);
  const sub::EvalState** state_ptrs =
      arena.allocate_array<const sub::EvalState*>(T);
  for (std::size_t t = 0; t < T; ++t) state_ptrs[t] = slot_state[t].get();

  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t remaining = pool.size();
    const std::size_t sample_size = std::min(remaining, sample_cap);
    // Partial Fisher-Yates: move `sample_size` random picks to the front.
    for (std::size_t i = 0; i < sample_size; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(remaining) - 1));
      std::swap(pool[i], pool[j]);
    }

    // Argmax over the sampled candidates, ties to the lowest (sample
    // position, slot) pair — the first maximum of the serial scan.
    const detail::ScanBest best = detail::scan_best(
        fused, state_ptrs, T, pool.data(), sample_size, gains);
    result.oracle_calls += sample_size * T;
    const std::size_t chosen = pool[best.index];
    pool[best.index] = pool.back();
    pool.pop_back();
    slot_state[best.slot]->add(chosen);
    result.schedule.set_active(chosen, best.slot);
    result.steps.push_back(GreedyStep{chosen, best.slot, best.gain});
  }
  return result;
}

}  // namespace cool::core
