#include "core/lazy_greedy.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "util/arena.h"

namespace cool::core {

namespace {

struct QueueEntry {
  double gain = 0.0;
  std::size_t sensor = 0;
  std::size_t slot = 0;
  std::size_t slot_version = 0;  // version of the slot when gain was computed

  // Max-heap on gain with a total deterministic order: ties go to the
  // lowest (sensor, slot) pair, matching the plain greedy scan's
  // first-maximum tie-break. A total order makes the selected pair a pure
  // function of the current gains — independent of the refresh order and
  // of the heap's internal array layout (every pop surfaces the unique
  // maximum of the current entries).
  bool operator<(const QueueEntry& other) const noexcept {
    if (gain != other.gain) return gain < other.gain;
    if (sensor != other.sensor) return sensor > other.sensor;
    return slot > other.slot;
  }
};

}  // namespace

GreedyResult LazyGreedyScheduler::schedule(const Problem& problem,
                                           const PlannerContext& ctx) const {
  COOL_SPAN("lazy_greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "LazyGreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // Every scratch buffer (the heap and the stale batch) comes from the
  // planner arena (call-local when the caller did not provide one). Each
  // (sensor, slot) pair has at most one live heap entry at any time (seeded
  // once; a popped entry is reinserted at most once per round), so n·T
  // bounds the heap and the stale batch; reserving that up front means the
  // placement loop performs zero heap allocations.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();

  const std::size_t pair_count = n * T;
  std::size_t* slot_version = arena.allocate_array<std::size_t>(T);
  std::memset(slot_version, 0, T * sizeof(std::size_t));
  std::uint8_t* placed = arena.allocate_array<std::uint8_t>(n);
  std::memset(placed, 0, n);

  // Initially every slot state is empty, so all slots give the same gain
  // for a sensor: one batched scan over slot 0 seeds all n·T pairs — still
  // exact since gains are equal across empty slots. make_heap vs repeated
  // push does not matter for correctness (total order, see QueueEntry).
  util::ArenaVector<QueueEntry> heap(&arena);
  heap.reserve(pair_count);
  {
    std::size_t* seed_ids = arena.allocate_array<std::size_t>(n);
    double* seed_gains = arena.allocate_array<double>(n);
    for (std::size_t v = 0; v < n; ++v) seed_ids[v] = v;
    slot_state[0]->marginal_batch({seed_ids, n}, {seed_gains, n});
    result.oracle_calls += n;
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t t = 0; t < T; ++t)
        heap.push_back(QueueEntry{seed_gains[v], v, t, 0});
  }
  std::make_heap(heap.begin(), heap.end());

  std::size_t placed_count = 0;
  std::size_t stale_refreshes = 0;  // heap decay: stale entries re-scored
  std::size_t peak_heap = heap.size();
  util::ArenaVector<QueueEntry> stale(&arena);  // reused batch buffer
  stale.reserve(pair_count);
  while (placed_count < n) {
    // Deadline poll once per pop-refresh round: bounded work per round, and
    // the heap stays consistent at every poll point.
    if (ctx.cancel) ctx.cancel->checkpoint();
    // Pop until a fresh entry surfaces, batching up the stale ones.
    stale.clear();
    std::optional<QueueEntry> fresh;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      QueueEntry top = heap.back();
      heap.pop_back();
      if (placed[top.sensor]) continue;
      if (top.slot_version == slot_version[top.slot]) {
        fresh = top;
        break;
      }
      stale.push_back(top);
    }
    if (stale.empty()) {
      if (!fresh)
        throw std::logic_error("LazyGreedyScheduler: queue exhausted early");
      // Fresh head of a max-heap: this is the true maximum pair.
      placed[fresh->sensor] = 1;
      ++placed_count;
      slot_state[fresh->slot]->add(fresh->sensor);
      ++slot_version[fresh->slot];
      result.schedule.set_active(fresh->sensor, fresh->slot);
      result.steps.push_back(GreedyStep{fresh->sensor, fresh->slot, fresh->gain});
      continue;
    }
    // Re-score the whole stale batch against the pool (the states are
    // unchanged until the next placement). Gains can only have shrunk, and
    // the refresh order cannot affect the heap's total order.
    for (auto& entry : stale) {
      entry.gain = slot_state[entry.slot]->marginal(entry.sensor);
      entry.slot_version = slot_version[entry.slot];
    }
    result.oracle_calls += stale.size();
    stale_refreshes += stale.size();
    for (const auto& entry : stale) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    }
    if (fresh) {
      heap.push_back(*fresh);
      std::push_heap(heap.begin(), heap.end());
    }
    peak_heap = std::max(peak_heap, heap.size());
  }
  // Aggregated totals, published once per schedule so the heap loop stays
  // free of atomics. stale_refreshes / oracle_calls is the lazy-heap decay
  // rate the ablation bench reasons about.
  COOL_METRIC_ADD("lazy_greedy.schedules", 1);
  COOL_METRIC_ADD("lazy_greedy.oracle_calls", result.oracle_calls);
  COOL_METRIC_ADD("lazy_greedy.stale_refreshes", stale_refreshes);
  COOL_METRIC_OBSERVE("lazy_greedy.peak_heap", peak_heap);
  COOL_METRIC_OBSERVE("lazy_greedy.oracle_calls_per_schedule",
                      result.oracle_calls);
  return result;
}

}  // namespace cool::core
