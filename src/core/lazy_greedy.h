// Lazy greedy hill-climbing (Minoux's accelerated greedy) — paper
// Algorithm 1 with far fewer marginal-gain queries. coold's rung 0.
//
// Produces the same schedule as GreedyScheduler, ties included: same
// placement order, same step-gain bits. The heap holds one entry per
// unplaced sensor: its best gain over all T slots, that best slot (the
// first maximum, i.e. the lowest slot among equal gains) and the version
// the slot had when the entry was scored (a slot's version counts its
// placements).
//
// Freshness needs only the best slot's version. Submodularity means a
// (sensor, slot) gain can only shrink as the slot's active set grows, so
// every entry's gain bounds its sensor's current best from above. While
// the best slot is unchanged its gain is still exact, and every other
// slot's gain has at most shrunk — slots before it stay strictly below it,
// slots after it stay at or below it — so it is still the sensor's first
// maximum. A stale head is re-scored against all T slots (T oracle calls,
// one pass over its coverage row on the fused path) and sifted back down.
//
// The heap orders entries by gain (descending), then sensor id
// (ascending). A fresh head therefore carries the maximum current gain
// with the lowest sensor id among equals, at that sensor's lowest best
// slot — exactly the pair the plain v-outer / t-inner scan picks.
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
