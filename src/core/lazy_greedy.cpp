#include "core/lazy_greedy.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "util/arena.h"

namespace cool::core {

namespace {

// One heap entry per unplaced sensor (see lazy_greedy.h).
struct Entry {
  double gain = 0.0;         // best gain over all slots when scored
  std::size_t sensor = 0;
  std::size_t slot = 0;      // first slot reaching `gain`
  std::size_t version = 0;   // that slot's version when scored
};

// Max-heap order: higher gain first, then lower sensor id. Each sensor has
// one entry, so the order is total and the head is a pure function of the
// current entries, whatever the heap's internal layout.
bool lower_priority(const Entry& a, const Entry& b) noexcept {
  if (a.gain != b.gain) return a.gain < b.gain;
  return a.sensor > b.sensor;
}

// Restores the heap after the head was re-scored (its gain can only have
// dropped): moves it down past every child that outranks it. One sift
// instead of std::pop_heap + std::push_heap.
void sift_down_head(Entry* heap, std::size_t size) noexcept {
  const Entry head = heap[0];
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && lower_priority(heap[child], heap[child + 1]))
      ++child;
    if (!lower_priority(head, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = head;
}

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

  // Every scratch buffer comes from the planner arena (call-local when the
  // caller did not provide one), so a warmed arena makes the placement loop
  // allocation-free.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();

  std::size_t* slot_version = arena.allocate_array<std::size_t>(T);
  std::memset(slot_version, 0, T * sizeof(std::size_t));
  // A refresh is the plain scan's step over one id: detail::scan_best walks
  // that sensor's coverage row once for all T slots when the fused path
  // resolves (see greedy.cpp) and returns its first best slot.
  const sub::FusedSlotEvaluator fused = sub::resolve_fused(slot_state);
  const sub::EvalState** state_ptrs =
      arena.allocate_array<const sub::EvalState*>(T);
  for (std::size_t t = 0; t < T; ++t) state_ptrs[t] = slot_state[t].get();

  // Every slot starts empty, so a sensor's gain is the same in all T slots
  // and its first maximum is slot 0: one batch over slot 0 scores every
  // entry exactly.
  Entry* heap = arena.allocate_array<Entry>(n);
  {
    std::size_t* ids = arena.allocate_array<std::size_t>(n);
    double* gains = arena.allocate_array<double>(n);
    for (std::size_t v = 0; v < n; ++v) ids[v] = v;
    slot_state[0]->marginal_batch({ids, n}, {gains, n});
    result.oracle_calls += n;
    for (std::size_t v = 0; v < n; ++v) heap[v] = Entry{gains[v], v, 0, 0};
  }
  std::make_heap(heap, heap + n, lower_priority);

  std::size_t size = n;
  std::size_t refreshes = 0;  // stale entries re-scored, T oracle calls each
  for (std::size_t step = 0; step < n; ++step) {
    // Deadline poll once per placement: a step either fully lands or never
    // starts, so cancellation leaves no half-applied placement.
    if (ctx.cancel) ctx.cancel->checkpoint();
    // Re-score the head until a fresh one surfaces. Slot versions only
    // move on placement, so each entry is re-scored at most once per step.
    while (heap[0].version != slot_version[heap[0].slot]) {
      Entry& entry = heap[0];
      double gain_row;  // scan_best's unfused gain row, one id long
      const detail::ScanBest best =
          detail::scan_best(fused, state_ptrs, T, &entry.sensor, 1, &gain_row);
      entry.gain = best.gain;
      entry.slot = best.slot;
      entry.version = slot_version[best.slot];
      sift_down_head(heap, size);
      ++refreshes;
    }
    std::pop_heap(heap, heap + size, lower_priority);
    const Entry top = heap[--size];
    slot_state[top.slot]->add(top.sensor);
    ++slot_version[top.slot];
    result.schedule.set_active(top.sensor, top.slot);
    result.steps.push_back(GreedyStep{top.sensor, top.slot, top.gain});
  }
  result.oracle_calls += refreshes * T;
  // Aggregated totals, published once per schedule so the heap loop stays
  // free of atomics.
  COOL_METRIC_ADD("lazy_greedy.schedules", 1);
  COOL_METRIC_ADD("lazy_greedy.oracle_calls", result.oracle_calls);
  COOL_METRIC_ADD("lazy_greedy.stale_refreshes", refreshes);
  COOL_METRIC_OBSERVE("lazy_greedy.oracle_calls_per_schedule",
                      result.oracle_calls);
  return result;
}

}  // namespace cool::core
