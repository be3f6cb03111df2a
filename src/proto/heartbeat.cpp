#include "proto/heartbeat.h"

#include <algorithm>
#include <stdexcept>

namespace cool::proto {

HeartbeatDetector::HeartbeatDetector(const net::Network& network,
                                     const net::RoutingTree& tree,
                                     const net::LinkModel& links,
                                     const net::RadioEnergyModel& radio,
                                     const HeartbeatConfig& config)
    : tree_(&tree), uplink_p_(links.uplink_probabilities(tree)),
      tx_j_(radio.tx_energy_j()), rx_j_(radio.rx_energy_j()),
      config_(config), verdict_(network.sensor_count(), NodeVerdict::kAlive),
      last_heard_(network.sensor_count(), 0),
      timeout_(network.sensor_count(),
               static_cast<double>(config.timeout_slots)) {
  if (config_.period_slots == 0)
    throw std::invalid_argument("HeartbeatDetector: period_slots == 0");
  if (config_.timeout_slots == 0)
    throw std::invalid_argument("HeartbeatDetector: timeout_slots == 0");
  if (config_.backoff_factor < 1.0)
    throw std::invalid_argument("HeartbeatDetector: backoff_factor < 1");
  if (config_.max_timeout_slots < config_.timeout_slots)
    throw std::invalid_argument(
        "HeartbeatDetector: max_timeout_slots < timeout_slots");
}

bool HeartbeatDetector::deliver_heartbeat(std::size_t node,
                                          const std::vector<std::uint8_t>& up,
                                          util::Rng& rng,
                                          HeartbeatSlotReport& report) {
  // Walk the parent chain node -> ... -> sink; the sink's own heartbeat
  // takes zero hops (the gateway hears itself).
  const std::size_t sink = tree_->sink();
  std::size_t from = node;
  while (from != sink) {
    const std::size_t to = tree_->parent(from);
    // A down relay cannot receive; the sink's mains-powered radio always can.
    const bool receiver_up = to == sink || up[to] != 0;
    bool hop_ok = false;
    for (std::size_t attempt = 0; attempt <= config_.max_retransmissions;
         ++attempt) {
      ++report.transmissions;
      report.radio_energy_j += tx_j_;
      if (receiver_up && rng.bernoulli(uplink_p_[from])) {
        report.radio_energy_j += rx_j_;
        hop_ok = true;
        break;
      }
    }
    if (!hop_ok) return false;
    from = to;
  }
  return true;
}

HeartbeatSlotReport HeartbeatDetector::step(std::size_t global_slot,
                                            const std::vector<std::uint8_t>& up,
                                            util::Rng& rng) {
  const std::size_t n = verdict_.size();
  if (up.size() != n)
    throw std::invalid_argument("HeartbeatDetector: up mask size mismatch");

  HeartbeatSlotReport report;
  if (global_slot % config_.period_slots == 0) {
    for (std::size_t v = 0; v < n; ++v) {
      if (!up[v] || !tree_->reachable(v)) continue;
      ++report.heartbeats_sent;
      if (!deliver_heartbeat(v, up, rng, report)) continue;
      ++report.heartbeats_delivered;
      last_heard_[v] = global_slot;
      if (verdict_[v] == NodeVerdict::kSuspect) {
        // False alarm: the node was alive all along; back the timeout off.
        verdict_[v] = NodeVerdict::kAlive;
        ++stats_.false_suspicions;
        timeout_[v] =
            std::min(timeout_[v] * config_.backoff_factor,
                     static_cast<double>(config_.max_timeout_slots));
      } else if (verdict_[v] == NodeVerdict::kDead) {
        ++stats_.heartbeats_from_dead;  // declaration was wrong; stays dead
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (!tree_->reachable(v)) continue;
    const auto silence = static_cast<double>(global_slot - last_heard_[v]);
    switch (verdict_[v]) {
      case NodeVerdict::kAlive:
        if (silence > timeout_[v]) {
          verdict_[v] = NodeVerdict::kSuspect;
          report.newly_suspected.push_back(v);
        }
        break;
      case NodeVerdict::kSuspect:
        if (silence >
            timeout_[v] * static_cast<double>(1 + config_.suspect_windows)) {
          verdict_[v] = NodeVerdict::kDead;
          ++stats_.declared_dead;
          report.newly_dead.push_back(v);
        }
        break;
      case NodeVerdict::kDead:
        break;  // absorbing: the gateway has already replanned around it
    }
  }

  stats_.transmissions += report.transmissions;
  stats_.radio_energy_j += report.radio_energy_j;
  return report;
}

std::vector<std::uint8_t> HeartbeatDetector::believed_dead() const {
  std::vector<std::uint8_t> dead(verdict_.size(), 0);
  for (std::size_t v = 0; v < verdict_.size(); ++v)
    dead[v] = verdict_[v] == NodeVerdict::kDead ? 1 : 0;
  return dead;
}

}  // namespace cool::proto
