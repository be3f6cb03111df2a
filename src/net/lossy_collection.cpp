#include "net/lossy_collection.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/obs.h"

namespace cool::net {

void validate_lossy_collection_config(const LossyCollectionConfig& config) {
  validate_backoff_config(config.backoff);
  if (config.subslots == 0)
    throw std::invalid_argument("LossyCollectionConfig: subslots == 0");
  if (config.csma_persist <= 0.0 || config.csma_persist > 1.0)
    throw std::invalid_argument(
        "LossyCollectionConfig: csma_persist outside (0, 1]");
  if (config.queue_capacity == 0)
    throw std::invalid_argument("LossyCollectionConfig: queue_capacity == 0");
  if (config.sink_check_every == 0)
    throw std::invalid_argument("LossyCollectionConfig: sink_check_every == 0");
  if (config.idle_listen_s < 0.0)
    throw std::invalid_argument("LossyCollectionConfig: negative listen time");
  if (config.probation_after > 0 && config.probation_base_slots == 0)
    throw std::invalid_argument(
        "LossyCollectionConfig: probation_base_slots == 0");
  if (config.probation_max_slots < config.probation_base_slots)
    throw std::invalid_argument(
        "LossyCollectionConfig: probation_max_slots < probation_base_slots");
}

LossyCollection::LossyCollection(const Network& network, const RoutingTree& tree,
                                 const LinkModel& links,
                                 const RadioEnergyModel& radio,
                                 const LossyCollectionConfig& config)
    : network_(&network), tree_(&tree), config_(config),
      backoff_policy_(config.backoff),
      ring_(network.sensor_count() * config.queue_capacity),
      head_(network.sensor_count(), 0),
      depth_(network.sensor_count(), 0),
      backlog_((network.sensor_count() + 63) / 64, 0),
      is_tx_(network.sensor_count(), 0),
      collisions_at_(network.sensor_count(), 0),
      uplink_p_(links.uplink_probabilities(tree)),
      downlink_p_(links.downlink_probabilities(tree)),
      arq_(network.sensor_count(), BackoffSchedule(backoff_policy_)),
      wait_(network.sensor_count(), 0),
      origin_seq_(network.sensor_count(), 0),
      exhaust_streak_(network.sensor_count(), 0),
      probation_until_(network.sensor_count(), 0),
      probation_count_(network.sensor_count(), 0),
      node_energy_total_(network.sensor_count(), 0.0) {
  validate_lossy_collection_config(config_);
  // arq_ elements were copy-constructed from a schedule pointing at the
  // ctor argument's policy; rebind them to the member copy.
  for (auto& schedule : arq_) schedule = BackoffSchedule(backoff_policy_);
  tx_j_ = radio.tx_energy_j();
  rx_j_ = radio.rx_energy_j();
  listen_j_ = radio.idle_energy_j(config_.idle_listen_s);
}

void LossyCollection::push_back(std::size_t node, const Packet& packet) {
  const std::size_t capacity = config_.queue_capacity;
  std::size_t at = head_[node] + depth_[node];
  if (at >= capacity) at -= capacity;
  ring_[node * capacity + at] = packet;
  if (depth_[node]++ == 0)
    backlog_[node / 64] |= std::uint64_t{1} << (node % 64);
}

void LossyCollection::pop_front(std::size_t node) {
  if (++head_[node] == config_.queue_capacity) head_[node] = 0;
  if (--depth_[node] == 0)
    backlog_[node / 64] &= ~(std::uint64_t{1} << (node % 64));
}

void LossyCollection::drop_head_exhausted(std::size_t node, std::size_t slot,
                                          LossySlotReport& report) {
  pop_front(node);
  arq_[node].reset();
  wait_[node] = 0;
  ++report.drops_retry;
  if (config_.probation_after == 0) return;
  if (++exhaust_streak_[node] < config_.probation_after) return;
  // Repeated budget exhaustion: the channel is broken, stop burning the
  // battery against it. Doubling probation, capped.
  exhaust_streak_[node] = 0;
  const std::size_t backoff = std::min<std::size_t>(
      config_.probation_max_slots,
      config_.probation_base_slots
          << std::min<std::uint32_t>(probation_count_[node], 16));
  ++probation_count_[node];
  probation_until_[node] = slot + 1 + backoff;
  ++report.probation_entries;
}

LossySlotReport LossyCollection::step(std::size_t slot,
                                      const std::vector<std::uint8_t>& active,
                                      const std::vector<std::uint8_t>& comms_up,
                                      util::Rng& rng) {
  const std::size_t n = network_->sensor_count();
  if (active.size() != n)
    throw std::invalid_argument("LossyCollection: active size mismatch");
  if (!comms_up.empty() && comms_up.size() != n)
    throw std::invalid_argument("LossyCollection: comms_up size mismatch");
  const auto up = [&comms_up](std::size_t v) {
    return comms_up.empty() || comms_up[v] != 0;
  };

  LossySlotReport report;
  report.node_energy_j.assign(n, 0.0);
  report.delivered_mask.assign(n, 0);
  const std::size_t sink = tree_->sink();

  // 1. Origination: every active node generates one reading.
  for (std::size_t v = 0; v < n; ++v) {
    if (!active[v]) continue;
    if (!tree_->reachable(v)) {
      ++report.stranded;
      continue;
    }
    ++report.originated;
    if (v == sink) {
      // The gateway's collocated sensor needs no transmission.
      ++report.delivered;
      report.delivered_mask[v] = 1;
      continue;
    }
    if (radio_dark(v, slot) || !up(v)) {
      ++report.drops_radio_dark;
      continue;
    }
    const bool con =
        config_.con_every > 0 && origin_seq_[v] % config_.con_every == 0;
    ++origin_seq_[v];
    if (depth_[v] >= config_.queue_capacity) {
      ++report.drops_overflow;
      continue;
    }
    push_back(v, {v, slot, con});
  }

  // 2. Contention/ARQ subslot machine.
  std::fill(collisions_at_.begin(), collisions_at_.end(), 0);
  for (std::size_t sub = 0; sub < config_.subslots; ++sub) {
    // Gather this subslot's transmitters (ascending order: the rng draw
    // sequence is part of the determinism contract). Only backlogged nodes
    // can act: an empty queue means no packet and no backoff timer. The
    // sink never queues (its readings and everything it hears are
    // delivered), so it never appears here. Eligibility is re-tested every
    // subslot: a node whose head packet exhausts its budget mid-slot can
    // enter probation and is radio-dark from its next subslot on.
    transmitters_.clear();
    for (std::size_t w = 0; w < backlog_.size(); ++w) {
      for (std::uint64_t bits = backlog_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (wait_[v] > 0) {
          --wait_[v];  // the backoff timer runs in real time
          continue;
        }
        if (!tx_eligible(v, slot) || radio_dark(v, slot) || !up(v)) continue;
        if (!rng.bernoulli(config_.csma_persist)) continue;  // defer (CSMA)
        transmitters_.push_back(v);
        is_tx_[v] = 1;
      }
    }

    for (const std::size_t t : transmitters_) {
      Packet& pkt = front(t);
      const std::size_t r = tree_->parent(t);
      const bool retry = pkt.con && arq_[t].attempts() > 0;
      ++report.transmissions;
      if (retry) ++report.retries;
      report.node_energy_j[t] += tx_j_;

      // Collision: another simultaneous transmitter interferes at r — it is
      // r itself (half-duplex), or any transmitter in r's comm range.
      bool collided = is_tx_[r] != 0;
      if (!collided) {
        for (const std::size_t u : network_->neighbors(r)) {
          if (u != t && is_tx_[u]) {
            collided = true;
            break;
          }
        }
      }
      const bool receiver_up = r == sink || up(r);
      const bool success = receiver_up && !collided &&
                           rng.bernoulli(uplink_p_[t]);
      if (collided) {
        ++report.collisions;
        ++collisions_at_[r];
      }

      if (!success) {
        if (!pkt.con) {
          // NON: fire and forget — the sender never learns, the packet dies.
          ++report.non_lost;
          pop_front(t);
          arq_[t].reset();
          continue;
        }
        const std::size_t delay = arq_[t].fail(rng);
        if (arq_[t].exhausted()) {
          drop_head_exhausted(t, slot, report);
        } else {
          wait_[t] = delay;
        }
        continue;
      }

      // Data landed.
      report.node_energy_j[r] += rx_j_;
      if (pkt.con) {
        // Ack races back. A lost ack costs a duplicate data+ack exchange
        // (the receiver dedups), billed here without re-entering the
        // contention machine — the bounded approximation the dissemination
        // layer also uses.
        ++report.acks;
        report.node_energy_j[r] += tx_j_;
        if (rng.bernoulli(downlink_p_[t])) {
          report.node_energy_j[t] += rx_j_;
        } else {
          ++report.duplicates;
          ++report.transmissions;
          ++report.acks;
          report.node_energy_j[t] += tx_j_;
          report.node_energy_j[r] +=
              rx_j_ + tx_j_;
          report.node_energy_j[t] += rx_j_;
        }
      }
      const Packet landed = pkt;
      pop_front(t);
      arq_[t].reset();
      exhaust_streak_[t] = 0;
      if (r == sink) {
        if (landed.origin_slot == slot) {
          ++report.delivered;
          report.delivered_mask[landed.origin] = 1;
        } else {
          ++report.delivered_late;
        }
      } else if (depth_[r] >= config_.queue_capacity) {
        // Transported, acked — and dropped on the relay's full queue: the
        // nastiest loss mode, invisible to the sender.
        ++report.drops_overflow;
      } else {
        push_back(r, landed);
      }
    }
    for (const std::size_t t : transmitters_) is_tx_[t] = 0;
  }

  // 3. End-of-slot accounting.
  for (std::size_t v = 0; v < n; ++v) {
    report.queued_end += depth_[v];
    report.max_queue_depth = std::max(report.max_queue_depth, depth_[v]);
    if (collisions_at_[v] > report.hot_node_collisions) {
      report.hot_node_collisions = collisions_at_[v];
      report.hot_node = v;
    }
    // Radio-on nodes pay low-power listen; probation/radio-dark nodes and
    // idle empty-queue nodes sleep.
    const bool radio_on = (active[v] != 0 || depth_[v] > 0 || v == sink) &&
                          !radio_dark(v, slot) && up(v);
    if (radio_on)
      report.node_energy_j[v] += listen_j_;
    report.radio_energy_j += report.node_energy_j[v];
    node_energy_total_[v] += report.node_energy_j[v];
  }

  stats_.originated += report.originated;
  stats_.delivered += report.delivered;
  stats_.delivered_late += report.delivered_late;
  stats_.drops_overflow += report.drops_overflow;
  stats_.drops_retry += report.drops_retry;
  stats_.drops_radio_dark += report.drops_radio_dark;
  stats_.non_lost += report.non_lost;
  stats_.collisions += report.collisions;
  stats_.transmissions += report.transmissions;
  stats_.retries += report.retries;
  stats_.acks += report.acks;
  stats_.probation_entries += report.probation_entries;
  stats_.radio_energy_j += report.radio_energy_j;

  // One batch of atomics per slot, not per subslot (the PR 3 discipline).
  if (report.originated > 0 || report.transmissions > 0) {
    COOL_METRIC_ADD("collection.originated", report.originated);
    COOL_METRIC_ADD("collection.delivered", report.delivered);
    COOL_METRIC_ADD("collection.retries", report.retries);
    COOL_METRIC_ADD("collection.collisions", report.collisions);
    COOL_METRIC_ADD("collection.drops",
                    report.drops_overflow + report.drops_retry +
                        report.drops_radio_dark + report.non_lost);
    COOL_METRIC_OBSERVE("collection.queue_depth",
                        static_cast<double>(report.max_queue_depth));
  }
  if (report.probation_entries > 0)
    COOL_INSTANT("collection.probation", "net");
  return report;
}

}  // namespace cool::net
