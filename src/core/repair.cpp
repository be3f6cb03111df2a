#include "core/repair.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/lazy_greedy.h"
#include "core/passive_greedy.h"
#include "obs/obs.h"

namespace cool::core {

namespace {

constexpr std::size_t kNoSlot = sub::SlotPartition::kNoSlot;

class MaskedState final : public sub::EvalState {
 public:
  MaskedState(std::unique_ptr<sub::EvalState> base,
              const std::vector<std::uint8_t>* masked)
      : base_(std::move(base)), masked_(masked) {}

  double marginal(std::size_t element) const override {
    return (*masked_)[element] ? 0.0 : base_->marginal(element);
  }
  void add(std::size_t element) override {
    if (!(*masked_)[element]) base_->add(element);
  }
  void reset() override { base_->reset(); }
  double value() const override { return base_->value(); }
  std::unique_ptr<sub::EvalState> clone() const override {
    return std::make_unique<MaskedState>(base_->clone(), masked_);
  }

 private:
  std::unique_ptr<sub::EvalState> base_;
  const std::vector<std::uint8_t>* masked_;  // owned by the MaskedUtility
};

}  // namespace

MaskedUtility::MaskedUtility(std::shared_ptr<const sub::SubmodularFunction> base,
                             std::vector<std::uint8_t> masked)
    : base_(std::move(base)), masked_(std::move(masked)) {
  if (!base_) throw std::invalid_argument("MaskedUtility: null base");
  if (masked_.size() != base_->ground_size())
    throw std::invalid_argument("MaskedUtility: mask size mismatch");
}

std::unique_ptr<sub::EvalState> MaskedUtility::make_state() const {
  return std::make_unique<MaskedState>(base_->make_state(), &masked_);
}

double surviving_period_utility(const PeriodicSchedule& schedule,
                                const sub::SubmodularFunction& utility,
                                const std::vector<std::uint8_t>& dead) {
  if (dead.size() != schedule.sensor_count())
    throw std::invalid_argument("surviving_period_utility: mask mismatch");
  double total = 0.0;
  const auto state = utility.make_state();
  for (std::size_t t = 0; t < schedule.slots_per_period(); ++t) {
    state->reset();
    for (const auto v : schedule.active_set(t))
      if (!dead[v]) state->add(v);
    total += state->value();
  }
  return total;
}

RepairResult repair_schedule(const PeriodicSchedule& schedule,
                             const sub::SubmodularFunction& utility,
                             const std::vector<std::uint8_t>& dead,
                             const RepairConfig& config) {
  COOL_SPAN("repair.schedule", "core");
  const std::size_t n = schedule.sensor_count();
  const std::size_t T = schedule.slots_per_period();
  if (dead.size() != n)
    throw std::invalid_argument("repair_schedule: mask mismatch");
  if (utility.ground_size() != n)
    throw std::invalid_argument("repair_schedule: utility/schedule mismatch");

  RepairResult result{PeriodicSchedule(n, T)};

  // Clear dead rows. Moves are scored into every slot in a full search,
  // else only into the affected ones: slots a dead sensor vacated.
  std::vector<std::uint8_t> scored(T, config.restrict_to_affected ? 0 : 1);
  std::vector<std::size_t> home(n, kNoSlot);
  std::vector<std::uint8_t> movable(n, 0);
  std::vector<std::vector<std::size_t>> slot_sets(T);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t count = 0;
    for (std::size_t t = 0; t < T; ++t) {
      if (!schedule.active(v, t)) continue;
      if (dead[v]) {
        scored[t] = 1;
        continue;
      }
      result.schedule.set_active(v, t);
      slot_sets[t].push_back(v);
      home[v] = t;
      ++count;
    }
    // Only single-slot (ρ > 1 shape) or unplaced survivors may be moved.
    movable[v] = !dead[v] && count <= 1;
    if (count > 1) home[v] = kNoSlot;  // multi-slot: fixed in place
  }

  result.utility_before = surviving_period_utility(result.schedule, utility, dead);

  const std::size_t max_moves =
      config.max_moves > 0 ? config.max_moves : 4 * n;
  // A move only changes two slot sets, so the oracle's scorer refreshes
  // the losses and gains that move can reach and keeps the rest.
  std::vector<double> loss(n, 0.0);
  std::vector<double> gain(n * T, 0.0);
  sub::SlotPartition partition;
  partition.slot_count = T;
  partition.members = &slot_sets;
  partition.home = &home;
  partition.movable = &movable;
  partition.scored = &scored;
  partition.loss = &loss;
  partition.gain = &gain;
  const auto scorer = utility.make_move_scorer(partition);
  if (max_moves > 0) result.oracle_calls += scorer->score_all();
  while (result.moves < max_moves) {
    double best_delta = config.min_gain;
    std::size_t best_v = n, best_to = T;
    for (std::size_t v = 0; v < n; ++v) {
      if (!movable[v]) continue;
      const double vacate = home[v] != kNoSlot ? loss[v] : 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v] || !scored[t]) continue;
        const double delta = gain[v * T + t] - vacate;
        if (delta > best_delta) {
          best_delta = delta;
          best_v = v;
          best_to = t;
        }
      }
    }
    if (best_v == n) break;

    const std::size_t from = home[best_v];
    if (from != kNoSlot) {
      result.schedule.set_active(best_v, from, false);
      auto& from_set = slot_sets[from];
      from_set.erase(std::find(from_set.begin(), from_set.end(), best_v));
      scored[from] = 1;  // a vacated slot is affected: repairs cascade
    }
    result.schedule.set_active(best_v, best_to);
    slot_sets[best_to].push_back(best_v);
    home[best_v] = best_to;
    if (++result.moves < max_moves)
      result.oracle_calls += scorer->moved(best_v, from, best_to);
  }

  result.utility_after = surviving_period_utility(result.schedule, utility, dead);
  // Delta size (moves == changed assignments == dissemination cost) and
  // oracle effort per repair, published once per call.
  COOL_METRIC_ADD("repair.calls", 1);
  COOL_METRIC_ADD("repair.moves", result.moves);
  COOL_METRIC_OBSERVE("repair.moves_per_call", result.moves);
  COOL_METRIC_OBSERVE("repair.oracle_calls_per_call", result.oracle_calls);
  return result;
}

RecomputeResult recompute_schedule(const Problem& problem,
                                   const std::vector<std::uint8_t>& dead) {
  const std::size_t n = problem.sensor_count();
  if (dead.size() != n)
    throw std::invalid_argument("recompute_schedule: mask mismatch");
  const auto masked =
      std::make_shared<MaskedUtility>(problem.slot_utility_ptr(), dead);
  const Problem survivors(masked, problem.slots_per_period(), problem.periods(),
                          problem.rho_greater_than_one());

  RecomputeResult result{PeriodicSchedule(n, problem.slots_per_period())};
  if (problem.rho_greater_than_one()) {
    auto greedy = LazyGreedyScheduler().schedule(survivors);
    result.schedule = std::move(greedy.schedule);
    result.oracle_calls = greedy.oracle_calls;
  } else {
    auto passive = PassiveGreedyScheduler().schedule(survivors);
    result.schedule = std::move(passive.schedule);
    result.oracle_calls = passive.oracle_calls;
  }
  // The greedy places masked (zero-gain) sensors too; clear their rows so
  // the schedule never asks a dead node to activate.
  for (std::size_t v = 0; v < n; ++v) {
    if (!dead[v]) continue;
    for (std::size_t t = 0; t < problem.slots_per_period(); ++t)
      result.schedule.set_active(v, t, false);
  }
  result.utility =
      surviving_period_utility(result.schedule, problem.slot_utility(), dead);
  return result;
}

}  // namespace cool::core
