// Heartbeat-based failure detection at the gateway.
//
// Every up node originates one heartbeat per reporting period and forwards
// its children's heartbeats along the collection tree; each hop is a lossy
// transmission (net::LinkModel) with a small best-effort retransmission budget
// and no acks — heartbeats are cheap, losing one is fine. The gateway runs
// a timeout detector per node: silence longer than the node's timeout moves
// it to *suspect*; continued silence for `suspect_windows` more timeout
// windows confirms *dead*. A heartbeat arriving while suspect clears the
// suspicion and multiplies that node's timeout by `backoff_factor`
// (capped) — the classic exponential-backoff accrual that trades detection
// latency against false positives on lossy links. A dead relay silences its
// whole subtree, so false suspicion of downstream nodes is an inherent (and
// here measurable) artifact of tree-based liveness.
//
// The gateway's radio is mains-powered: the final hop into the sink never
// fails for lack of a live receiver (only for packet loss), and the sink's
// own collocated sensor heartbeats with a zero-hop path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/radio.h"
#include "net/routing.h"
#include "util/rng.h"

namespace cool::proto {

struct HeartbeatConfig {
  std::size_t period_slots = 1;       // heartbeat every this many slots
  std::size_t timeout_slots = 4;      // silence before suspicion
  std::size_t suspect_windows = 2;    // extra timeout windows before death
  double backoff_factor = 2.0;        // timeout growth after a false alarm
  std::size_t max_timeout_slots = 32;
  std::size_t max_retransmissions = 1;  // per hop, best effort, no acks
};

enum class NodeVerdict : std::uint8_t { kAlive, kSuspect, kDead };

struct HeartbeatSlotReport {
  std::size_t heartbeats_sent = 0;       // originated by up nodes
  std::size_t heartbeats_delivered = 0;  // reached the sink
  std::size_t transmissions = 0;         // per-hop attempts, incl. retries
  double radio_energy_j = 0.0;
  std::vector<std::size_t> newly_suspected;
  std::vector<std::size_t> newly_dead;   // declared dead this slot
};

struct HeartbeatStats {
  std::size_t false_suspicions = 0;   // suspicion cleared by a late heartbeat
  std::size_t declared_dead = 0;
  std::size_t heartbeats_from_dead = 0;  // arrived after a death declaration
  std::size_t transmissions = 0;
  double radio_energy_j = 0.0;
};

class HeartbeatDetector {
 public:
  // The tree must outlive the detector; link probabilities and radio costs
  // are read here, once.
  HeartbeatDetector(const net::Network& network, const net::RoutingTree& tree,
                    const net::LinkModel& links,
                    const net::RadioEnergyModel& radio,
                    const HeartbeatConfig& config = {});

  // One slot of the protocol: origination + forwarding by nodes marked up,
  // then the gateway-side timeout state machine. Slots must be fed in
  // order, starting at 0.
  HeartbeatSlotReport step(std::size_t global_slot,
                           const std::vector<std::uint8_t>& up, util::Rng& rng);

  NodeVerdict verdict(std::size_t node) const { return verdict_[node]; }
  // Indicator of nodes currently declared dead.
  std::vector<std::uint8_t> believed_dead() const;
  std::size_t believed_dead_count() const noexcept { return stats_.declared_dead; }
  const HeartbeatStats& stats() const noexcept { return stats_; }
  const HeartbeatConfig& config() const noexcept { return config_; }

 private:
  // True when v's heartbeat survives every hop to the sink this slot.
  bool deliver_heartbeat(std::size_t node, const std::vector<std::uint8_t>& up,
                         util::Rng& rng, HeartbeatSlotReport& report);

  const net::RoutingTree* tree_;
  // Heartbeats only travel tree edges toward the sink: their delivery
  // probabilities and the radio's per-packet costs, read once.
  std::vector<double> uplink_p_;
  double tx_j_ = 0.0;
  double rx_j_ = 0.0;
  HeartbeatConfig config_;
  std::vector<NodeVerdict> verdict_;
  std::vector<std::size_t> last_heard_;   // slot of last delivered heartbeat
  std::vector<double> timeout_;           // per-node, grows on false alarms
  HeartbeatStats stats_;
};

}  // namespace cool::proto
