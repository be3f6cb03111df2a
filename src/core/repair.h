// Incremental schedule repair after confirmed node deaths.
//
// When the gateway learns that sensors died, recomputing the whole schedule
// from scratch (GreedyScheduler over the survivors) is the utility oracle —
// but it costs O(n²·T·deg) and re-disseminates almost every assignment.
// repair_schedule() instead patches the hole locally: it removes the dead
// sensors and greedily *moves* surviving sensors into the slots that lost
// coverage, accepting only strictly improving moves. Each move changes one
// sensor's assignment, so the dissemination delta stays proportional to the
// damage, and the result provably never loses utility relative to the
// un-repaired schedule. The repaired-vs-recompute utility gap is what
// bench_failure_resilience and the resilient runtime report. The losses
// and gains that rank moves come from the oracle's MoveScorer
// (submodular/function.h), which keeps them exact move by move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/problem.h"
#include "core/schedule.h"
#include "submodular/function.h"

namespace cool::core {

// Submodular view with a subset of elements masked out: masked elements
// contribute zero marginal gain and adding them is a no-op. Used to score
// schedules over the surviving sensors and to drive the full-recompute
// oracle without rebuilding the utility.
class MaskedUtility final : public sub::SubmodularFunction {
 public:
  MaskedUtility(std::shared_ptr<const sub::SubmodularFunction> base,
                std::vector<std::uint8_t> masked);

  std::size_t ground_size() const override { return base_->ground_size(); }
  std::unique_ptr<sub::EvalState> make_state() const override;

 private:
  std::shared_ptr<const sub::SubmodularFunction> base_;
  std::vector<std::uint8_t> masked_;
};

struct RepairConfig {
  // Stop when the best move improves total period utility by less than this.
  double min_gain = 1e-9;
  // Safety bound on accepted moves; 0 means 4 * sensor_count.
  std::size_t max_moves = 0;
  // When true (default) sensors may only move *into* slots that lost a dead
  // sensor (or were vacated by an earlier repair move) — the incremental
  // regime. When false every slot is a candidate target, making repair a
  // full local search (slower, marginally better).
  bool restrict_to_affected = true;
};

struct RepairResult {
  PeriodicSchedule schedule;           // repaired (dead rows cleared)
  std::size_t moves = 0;               // accepted reassignments
  // Loss and gain values computed, one per value (each a walk over one
  // sensor's row, like a marginal() query). The oracle's MoveScorer
  // decides how many a move needs: the detection oracle refreshes only
  // sensors sharing a target with the mover, others rebuild both slots.
  std::size_t oracle_calls = 0;
  double utility_before = 0.0;         // per-period, survivors only, no repair
  double utility_after = 0.0;          // per-period, survivors only, repaired
};

// Clears the dead sensors from `schedule` and greedily patches the utility
// hole by moving surviving sensors (those with at most one active slot per
// period — the ρ > 1 shape; multi-slot sensors are kept but never moved).
// `dead` is an indicator over the ground set.
RepairResult repair_schedule(const PeriodicSchedule& schedule,
                             const sub::SubmodularFunction& utility,
                             const std::vector<std::uint8_t>& dead,
                             const RepairConfig& config = {});

struct RecomputeResult {
  PeriodicSchedule schedule;  // dead rows cleared
  double utility = 0.0;       // per-period, survivors only
  std::size_t oracle_calls = 0;
};

// The oracle baseline: full lazy-greedy recompute over the survivors of
// `problem` (dead sensors masked to zero gain, their rows cleared).
RecomputeResult recompute_schedule(const Problem& problem,
                                   const std::vector<std::uint8_t>& dead);

// Per-period utility of `schedule` counting only surviving sensors.
double surviving_period_utility(const PeriodicSchedule& schedule,
                                const sub::SubmodularFunction& utility,
                                const std::vector<std::uint8_t>& dead);

}  // namespace cool::core
