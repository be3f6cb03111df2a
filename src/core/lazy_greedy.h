// Lazy (CELF-style) greedy hill-climbing.
//
// Produces the same schedule as GreedyScheduler, ties included (the heap's
// total order is the plain scan's tie-break), while issuing far fewer
// marginal-gain queries:
// submodularity means a (sensor, slot) pair's gain can only shrink as the
// slot's active set grows, so stale queue entries are safe upper bounds and
// only the queue head ever needs re-evaluation. This is the ablation for
// DESIGN.md's "oracle-efficiency" design note; the paper itself ships the
// plain O(n²T) scan.
#pragma once

#include "core/greedy.h"

namespace cool::core {

class LazyGreedyScheduler {
 public:
  // Throws core::Cancelled if ctx.cancel fires; ctx.scratch_states reuses
  // caller-owned per-slot oracle states (see PlannerContext).
  GreedyResult schedule(const Problem& problem,
                        const PlannerContext& ctx = {}) const;
};

}  // namespace cool::core
