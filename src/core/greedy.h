// Greedy Hill-Climbing Activation Scheme (paper Algorithm 1).
//
// For ρ > 1 (one active slot per sensor per period): schedule sensors one at
// a time; at each step pick the (sensor, slot) pair with the maximum
// incremental utility given everything scheduled so far, until every sensor
// is placed. Lemma 4.1 / Theorem 4.3: the resulting periodic schedule is a
// 1/2-approximation of the optimal schedule for any horizon ℒ = αT.
//
// Complexity: n placement steps, each scanning at most n·T marginals, each
// marginal O(degree) for the bundled utilities — O(n²·T·deg) total. See
// LazyGreedyScheduler for the CELF-accelerated variant with identical
// output guarantees.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cancel.h"
#include "core/problem.h"
#include "core/schedule.h"
#include "submodular/function.h"

namespace cool::util {
class Arena;
}

namespace cool::core {

struct GreedyStep {
  std::size_t sensor = 0;
  std::size_t slot = 0;
  double gain = 0.0;
};

struct GreedyResult {
  PeriodicSchedule schedule;
  // Placement order with per-step marginal gains (Fig. 4's narrative).
  std::vector<GreedyStep> steps;
  // Number of marginal-gain oracle queries issued (for ablation benches).
  std::size_t oracle_calls = 0;
};

// Optional hooks a caller can hand any of the greedy-family schedulers.
//
//   cancel          polled at placement-step boundaries; when it fires the
//                   scheduler throws core::Cancelled and the partial result
//                   is discarded (the svc degradation ladder catches it);
//   scratch_states  caller-owned per-slot oracle states, reset() at entry
//                   and reused instead of allocating T fresh states per
//                   call. The states must come from the *same* utility as
//                   the problem being scheduled — the svc session cache
//                   guarantees this per network. A vector of the wrong size
//                   (e.g. first use, empty) is grown/rebuilt in place.
//   arena           caller-owned bump arena backing the scheduler's scratch
//                   buffers (candidate ids, gains matrices, the lazy heap).
//                   reset() at entry — so the caller must not hold arena
//                   pointers across schedule() calls — and retained, which
//                   makes every steady-state call allocation-free. When
//                   null, the scheduler uses a call-local arena (one-off
//                   heap blocks, same results). Schedules are bit-identical
//                   either way; the StateReuse tests pin this down.
struct PlannerContext {
  const CancelToken* cancel = nullptr;
  std::vector<std::unique_ptr<sub::EvalState>>* scratch_states = nullptr;
  util::Arena* arena = nullptr;
};

namespace detail {
// Returns the per-slot states to plan with: the context's scratch vector
// (resized to `slots` and reset()) when provided, else `local` filled with
// fresh states. Every greedy-family scheduler funnels through this so the
// reuse semantics stay identical across the ladder.
std::vector<std::unique_ptr<sub::EvalState>>& prepare_slot_states(
    const Problem& problem, const PlannerContext& ctx, std::size_t slots,
    std::vector<std::unique_ptr<sub::EvalState>>& local);

// The best (candidate, slot) pair of one greedy step: the maximum of
// states[t]->marginal(ids[index]) over every index < count and slot t < T,
// ties to the lowest index, then the lowest slot — the first maximum of the
// index-outer / slot-inner scan. `fused` (resolve_fused over the same
// states, possibly empty) walks each candidate's row once for all T slots;
// otherwise each slot is one marginal_batch into `gains` (count doubles).
// Both paths return bit-identical results. Requires count >= 1.
struct ScanBest {
  double gain = -1.0;
  std::size_t index = 0;  // position in ids, not a sensor id
  std::size_t slot = 0;
};
ScanBest scan_best(const sub::FusedSlotEvaluator& fused,
                   const sub::EvalState* const* states, std::size_t T,
                   const std::size_t* ids, std::size_t count, double* gains);
}  // namespace detail

class GreedyScheduler {
 public:
  // Requires problem.rho_greater_than_one(); use PassiveGreedyScheduler for
  // the ρ <= 1 case. Throws core::Cancelled if ctx.cancel fires.
  GreedyResult schedule(const Problem& problem,
                        const PlannerContext& ctx = {}) const;
};

}  // namespace cool::core
