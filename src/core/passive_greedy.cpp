#include "core/passive_greedy.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "util/parallel.h"

namespace cool::core {

namespace {

// Sensors per loss-scan chunk; fixed so the chunk grid is identical at
// every thread count.
constexpr std::size_t kScanGrain = 16;

constexpr std::size_t kNoSensor = static_cast<std::size_t>(-1);

// Value of a slot's active set (set-difference evaluation; the EvalState
// interface is add-only, so removals are evaluated by rebuilding into a
// reusable, reset() state).
double set_value(sub::EvalState& state, const std::vector<std::uint8_t>& mask,
                 std::size_t skip_sensor) {
  state.reset();
  for (std::size_t v = 0; v < mask.size(); ++v)
    if (mask[v] && v != skip_sensor) state.add(v);
  return state.value();
}

}  // namespace

PassiveGreedyResult PassiveGreedyScheduler::schedule(const Problem& problem) const {
  COOL_SPAN("passive_greedy.schedule", "core");
  if (problem.rho_greater_than_one())
    throw std::invalid_argument(
        "PassiveGreedyScheduler requires rho <= 1; use GreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  PassiveGreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  // Start all-active.
  std::vector<std::vector<std::uint8_t>> mask(T, std::vector<std::uint8_t>(n, 1));
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t t = 0; t < T; ++t) result.schedule.set_active(v, t);

  // The min-loss scan is sharded over fixed sensor chunks; each chunk owns
  // one reusable oracle state and a local oracle-call counter. Chunks
  // refresh exactly the stale (sensor, slot) losses in their range — the
  // same evaluations the serial scan performs — and counters are folded in
  // chunk order, so oracle_calls is exact at every thread count.
  const std::size_t chunk_count = (n + kScanGrain - 1) / kScanGrain;
  std::vector<std::unique_ptr<sub::EvalState>> chunk_state;
  chunk_state.reserve(chunk_count);
  for (std::size_t c = 0; c < chunk_count; ++c)
    chunk_state.push_back(problem.slot_utility().make_state());
  const auto base_state_ptr = problem.slot_utility().make_state();
  sub::EvalState& base_state = *base_state_ptr;

  // Cached per-slot base values and per-(sensor, slot) losses, invalidated
  // per slot when that slot's active set changes.
  std::vector<double> base(T);
  for (std::size_t t = 0; t < T; ++t) {
    base[t] = set_value(base_state, mask[t], kNoSensor);
    ++result.oracle_calls;
  }
  std::vector<std::vector<double>> loss(n, std::vector<double>(T, 0.0));
  std::vector<std::vector<std::uint8_t>> loss_fresh(n, std::vector<std::uint8_t>(T, 0));

  struct ChunkMin {
    double loss = std::numeric_limits<double>::infinity();
    std::size_t sensor;
    std::size_t slot;
    std::size_t oracle_calls = 0;
  };
  std::vector<ChunkMin> chunk_min(chunk_count);

  std::vector<std::uint8_t> assigned(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    util::parallel_chunks(chunk_count, [&](std::size_t c) {
      ChunkMin local{std::numeric_limits<double>::infinity(), n, T, 0};
      sub::EvalState& state = *chunk_state[c];
      const std::size_t end = std::min(n, (c + 1) * kScanGrain);
      for (std::size_t v = c * kScanGrain; v < end; ++v) {
        if (assigned[v]) continue;
        for (std::size_t t = 0; t < T; ++t) {
          if (!loss_fresh[v][t]) {
            loss[v][t] = base[t] - set_value(state, mask[t], v);
            loss_fresh[v][t] = 1;
            ++local.oracle_calls;
          }
          // Strict <: the first (v, t) attaining the minimum in the serial
          // v-outer/t-inner order wins within the chunk.
          if (loss[v][t] < local.loss) {
            local.loss = loss[v][t];
            local.sensor = v;
            local.slot = t;
          }
        }
      }
      chunk_min[c] = local;
    });
    double best_loss = std::numeric_limits<double>::infinity();
    std::size_t best_sensor = n;
    std::size_t best_slot = T;
    for (const auto& local : chunk_min) {
      result.oracle_calls += local.oracle_calls;
      // Strict < again: the lowest-index chunk attaining the minimum wins,
      // reproducing the serial scan's first-minimum tie-break.
      if (local.loss < best_loss) {
        best_loss = local.loss;
        best_sensor = local.sensor;
        best_slot = local.slot;
      }
    }
    assigned[best_sensor] = 1;
    mask[best_slot][best_sensor] = 0;
    result.schedule.set_active(best_sensor, best_slot, false);
    result.steps.push_back(PassiveStep{best_sensor, best_slot, best_loss});
    // Only the chosen slot's losses changed.
    base[best_slot] = set_value(base_state, mask[best_slot], kNoSensor);
    ++result.oracle_calls;
    for (std::size_t v = 0; v < n; ++v) loss_fresh[v][best_slot] = 0;
  }
  return result;
}

}  // namespace cool::core
