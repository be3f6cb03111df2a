// Schedule dissemination: the gateway (sink) computed an activation
// schedule; every mote needs its own (sensor, slot) assignment before the
// working day starts. The testbed does this over the collection tree in
// reverse — this module simulates that hop-by-hop unicast dissemination
// over lossy links with per-hop ARQ (bounded retransmissions + acks),
// reporting delivery coverage, message cost and radio energy, plus the
// utility actually achieved when undelivered motes stay passive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.h"
#include "net/backoff.h"
#include "net/link.h"
#include "net/network.h"
#include "net/radio.h"
#include "net/routing.h"
#include "util/rng.h"

namespace cool::proto {

struct DisseminationConfig {
  std::size_t max_retransmissions = 5;  // per hop, per message
  // Acks travel the reverse link and can be lost too; a lost ack triggers a
  // (spurious) retransmission, like real ARQ.
  bool lossy_acks = true;
};

struct DisseminationReport {
  std::size_t nodes_targeted = 0;    // nodes with at least one activation
  std::size_t nodes_delivered = 0;   // received their assignment
  std::size_t nodes_unreachable = 0; // outside the sink's tree
  std::size_t data_transmissions = 0;
  std::size_t ack_transmissions = 0;
  std::size_t hop_failures = 0;      // hops that exhausted retransmissions
  double radio_energy_j = 0.0;       // tx+rx energy across the fleet
  // Per-node delivery flag, aligned with the network's sensors.
  std::vector<std::uint8_t> delivered;
};

// Slot-by-slot delta re-dissemination for the resilient runtime: after an
// in-field repair the gateway must push *changed* assignments only. Each
// queued node update is unicast sink -> node with the same per-hop ARQ as
// the initial dissemination; a delivery that fails outright (all hops'
// retransmission budgets exhausted, e.g. a dead relay on the path) is
// retried in a later slot under exponential backoff, so a transiently
// partitioned node eventually converges without hammering the network.
struct DeltaDisseminationConfig {
  DisseminationConfig arq;             // per-hop ARQ parameters
  std::size_t backoff_base_slots = 1;  // delay after the first failure
  double backoff_factor = 2.0;         // growth per consecutive failure
  std::size_t max_backoff_slots = 16;
  std::size_t max_attempts = 0;        // per update; 0 = keep trying forever

  // The equivalent shared policy (net/backoff.h) the disseminator runs on.
  net::BackoffConfig backoff_policy() const {
    net::BackoffConfig policy;
    policy.base_slots = backoff_base_slots;
    policy.factor = backoff_factor;
    policy.max_slots = max_backoff_slots;
    policy.jitter = 0.0;  // slot-granular delta pushes need no jitter
    policy.retry_budget = max_attempts;
    return policy;
  }
};

struct DeltaSlotReport {
  std::vector<std::size_t> delivered;  // nodes whose update landed this slot
  std::size_t attempts = 0;            // end-to-end delivery attempts
  std::size_t data_transmissions = 0;
  std::size_t ack_transmissions = 0;
  std::size_t failed_attempts = 0;
  double radio_energy_j = 0.0;
};

struct DeltaStats {
  std::size_t updates_enqueued = 0;
  std::size_t updates_delivered = 0;
  std::size_t updates_abandoned = 0;   // max_attempts exhausted
  std::size_t attempts = 0;
  std::size_t data_transmissions = 0;
  std::size_t ack_transmissions = 0;
  double radio_energy_j = 0.0;
};

class DeltaDisseminator {
 public:
  // The tree and the radio model must outlive the disseminator; the link
  // probabilities of the tree edges are read here, once.
  DeltaDisseminator(const net::Network& network, const net::RoutingTree& tree,
                    const net::LinkModel& links,
                    const net::RadioEnergyModel& radio,
                    DeltaDisseminationConfig config = {});

  // Queues (or re-arms, if already pending) an assignment update for `node`,
  // eligible from `slot` on. Unreachable nodes are counted abandoned
  // immediately — the tree cannot carry their update.
  void enqueue(std::size_t node, std::size_t slot);

  bool pending(std::size_t node) const { return pending_[node] != 0; }

  // Attempts every queued update whose backoff has expired. `up` marks nodes
  // that can receive/forward; the sink's gateway radio is always powered.
  DeltaSlotReport step(std::size_t slot, const std::vector<std::uint8_t>& up,
                       util::Rng& rng);

  const DeltaStats& stats() const noexcept { return stats_; }

 private:
  // One end-to-end unicast attempt sink -> node with per-hop ARQ.
  bool attempt(std::size_t node, const std::vector<std::uint8_t>& up,
               util::Rng& rng, DeltaSlotReport& report) const;

  const net::RoutingTree* tree_;
  // Updates travel tree edges only: p(v -> parent) and p(parent -> v).
  std::vector<double> uplink_p_;
  std::vector<double> downlink_p_;
  const net::RadioEnergyModel* radio_;
  DeltaDisseminationConfig config_;
  net::BackoffPolicy backoff_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::size_t> next_attempt_slot_;
  std::vector<std::size_t> failures_;  // consecutive failures per update
  DeltaStats stats_;
};

class ScheduleDissemination {
 public:
  // The network, the tree and the radio model must outlive the object; the
  // link probabilities of the tree edges are read here, once.
  ScheduleDissemination(const net::Network& network, const net::RoutingTree& tree,
                        const net::LinkModel& links,
                    const net::RadioEnergyModel& radio,
                        DisseminationConfig config = {});

  // Pushes each targeted node's assignment from the sink along the tree
  // path. A node is delivered only if every hop of its path succeeds.
  DisseminationReport disseminate(const core::PeriodicSchedule& schedule,
                                  util::Rng& rng) const;

  // The schedule that actually runs after dissemination: undelivered or
  // unreachable nodes stay passive (they never learned their slots).
  static core::PeriodicSchedule effective_schedule(
      const core::PeriodicSchedule& schedule, const DisseminationReport& report);

 private:
  // One reliable-hop attempt over the tree edge parent(child) -> child;
  // returns true when data + (if configured) ack both eventually succeed
  // within the retransmission budget.
  bool reliable_hop(std::size_t child, util::Rng& rng,
                    DisseminationReport& report) const;

  const net::Network* network_;
  const net::RoutingTree* tree_;
  // Assignments travel tree edges only: p(v -> parent) and p(parent -> v).
  std::vector<double> uplink_p_;
  std::vector<double> downlink_p_;
  const net::RadioEnergyModel* radio_;
  DisseminationConfig config_;
};

}  // namespace cool::proto
