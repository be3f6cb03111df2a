#include "proto/dissemination.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace cool::proto {

DeltaDisseminator::DeltaDisseminator(const net::Network& network,
                                     const net::RoutingTree& tree,
                                     const LinkModel& links,
                                     const net::RadioEnergyModel& radio,
                                     DeltaDisseminationConfig config)
    : tree_(&tree), uplink_p_(links.uplink_probabilities(tree)),
      downlink_p_(links.downlink_probabilities(tree)), radio_(&radio),
      config_(config), backoff_(config.backoff_policy()),
      pending_(network.sensor_count(), 0),
      next_attempt_slot_(network.sensor_count(), 0),
      failures_(network.sensor_count(), 0) {}

void DeltaDisseminator::enqueue(std::size_t node, std::size_t slot) {
  if (node >= pending_.size())
    throw std::out_of_range("DeltaDisseminator: node out of range");
  ++stats_.updates_enqueued;
  if (!tree_->reachable(node)) {
    ++stats_.updates_abandoned;
    return;
  }
  if (!pending_[node]) {
    pending_[node] = 1;
    ++pending_count_;
  }
  // A re-enqueue supersedes the old payload but keeps the backoff clock: the
  // path, not the payload, is what has been failing.
  next_attempt_slot_[node] = std::max(next_attempt_slot_[node], slot);
  if (failures_[node] == 0) next_attempt_slot_[node] = slot;
}

bool DeltaDisseminator::attempt(std::size_t node,
                                const std::vector<std::uint8_t>& up,
                                util::Rng& rng,
                                DeltaSlotReport& report) const {
  if (node == tree_->sink()) return true;  // gateway updates itself
  const auto path = tree_->path_to_sink(node);  // node -> ... -> sink
  // Walk sink -> node; every receiver must be up (the sink only transmits).
  // Each hop is parent -> child: data down the tree edge, the ack back up.
  for (std::size_t i = path.size(); i-- > 1;) {
    const std::size_t child = path[i - 1];
    const bool receiver_up = up[child] != 0;
    bool hop_ok = false;
    for (std::size_t tx = 0; tx <= config_.arq.max_retransmissions; ++tx) {
      ++report.data_transmissions;
      report.radio_energy_j += radio_->tx_energy_j();
      if (!receiver_up || !rng.bernoulli(downlink_p_[child])) continue;
      report.radio_energy_j += radio_->rx_energy_j();
      // The ack races back; a lost ack costs a duplicate but the receiver
      // already holds the data, so the hop still succeeds.
      ++report.ack_transmissions;
      report.radio_energy_j += radio_->tx_energy_j();
      if (!config_.arq.lossy_acks || rng.bernoulli(uplink_p_[child]))
        report.radio_energy_j += radio_->rx_energy_j();
      hop_ok = true;
      break;
    }
    if (!hop_ok) return false;
  }
  return true;
}

DeltaSlotReport DeltaDisseminator::step(std::size_t slot,
                                        const std::vector<std::uint8_t>& up,
                                        util::Rng& rng) {
  if (up.size() != pending_.size())
    throw std::invalid_argument("DeltaDisseminator: up mask size mismatch");
  DeltaSlotReport report;
  for (std::size_t v = 0; v < pending_.size(); ++v) {
    if (!pending_[v] || next_attempt_slot_[v] > slot) continue;
    ++report.attempts;
    if (attempt(v, up, rng, report)) {
      pending_[v] = 0;
      --pending_count_;
      failures_[v] = 0;
      report.delivered.push_back(v);
      ++stats_.updates_delivered;
      continue;
    }
    ++report.failed_attempts;
    ++failures_[v];
    if (config_.max_attempts > 0 && failures_[v] >= config_.max_attempts) {
      pending_[v] = 0;
      --pending_count_;
      failures_[v] = 0;
      ++stats_.updates_abandoned;
      continue;
    }
    next_attempt_slot_[v] = slot + 1 + backoff_.nominal_delay(failures_[v]);
  }
  stats_.attempts += report.attempts;
  stats_.data_transmissions += report.data_transmissions;
  stats_.ack_transmissions += report.ack_transmissions;
  stats_.radio_energy_j += report.radio_energy_j;
  // One batch of atomics per slot, not per hop. failed_attempts are the
  // end-to-end retries the backoff schedule will re-arm.
  if (report.attempts > 0) {
    COOL_METRIC_ADD("delta.attempts", report.attempts);
    COOL_METRIC_ADD("delta.retries", report.failed_attempts);
    COOL_METRIC_ADD("delta.transmissions",
                    report.data_transmissions + report.ack_transmissions);
  }
  return report;
}

ScheduleDissemination::ScheduleDissemination(const net::Network& network,
                                             const net::RoutingTree& tree,
                                             const LinkModel& links,
                                             const net::RadioEnergyModel& radio,
                                             DisseminationConfig config)
    : network_(&network), tree_(&tree),
      uplink_p_(links.uplink_probabilities(tree)),
      downlink_p_(links.downlink_probabilities(tree)), radio_(&radio),
      config_(config) {}

bool ScheduleDissemination::reliable_hop(std::size_t child, util::Rng& rng,
                                         DisseminationReport& report) const {
  const double data_p = downlink_p_[child];  // parent -> child
  const double ack_p = uplink_p_[child];     // child -> parent
  for (std::size_t attempt = 0; attempt <= config_.max_retransmissions; ++attempt) {
    ++report.data_transmissions;
    report.radio_energy_j += radio_->tx_energy_j();
    if (!rng.bernoulli(data_p)) continue;
    report.radio_energy_j += radio_->rx_energy_j();
    // Data arrived; the ack races back.
    ++report.ack_transmissions;
    report.radio_energy_j += radio_->tx_energy_j();
    const bool ack_ok = !config_.lossy_acks || rng.bernoulli(ack_p);
    if (ack_ok) {
      report.radio_energy_j += radio_->rx_energy_j();
      return true;
    }
    // Ack lost: the sender will retransmit, the receiver already has the
    // data — the duplicate costs messages but the hop ultimately succeeds
    // once any ack gets through; keep looping on the retransmission budget.
    for (std::size_t extra = attempt + 1; extra <= config_.max_retransmissions;
         ++extra) {
      ++report.data_transmissions;
      report.radio_energy_j += radio_->tx_energy_j();
      // Receiver re-acks every duplicate it hears.
      if (!rng.bernoulli(data_p)) continue;
      report.radio_energy_j += radio_->rx_energy_j();
      ++report.ack_transmissions;
      report.radio_energy_j += radio_->tx_energy_j();
      if (rng.bernoulli(ack_p)) {
        report.radio_energy_j += radio_->rx_energy_j();
        return true;
      }
    }
    // Budget exhausted while chasing the ack: the receiver *has* the data,
    // so dissemination still succeeded for downstream purposes.
    return true;
  }
  return false;
}

DisseminationReport ScheduleDissemination::disseminate(
    const core::PeriodicSchedule& schedule, util::Rng& rng) const {
  COOL_SPAN("dissemination.disseminate", "proto");
  const std::size_t n = network_->sensor_count();
  if (schedule.sensor_count() != n)
    throw std::invalid_argument("ScheduleDissemination: schedule mismatch");

  DisseminationReport report;
  report.delivered.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (schedule.active_count(v) == 0) continue;  // nothing to deliver
    ++report.nodes_targeted;
    if (!tree_->reachable(v)) {
      ++report.nodes_unreachable;
      continue;
    }
    if (v == tree_->sink()) {
      report.delivered[v] = 1;  // the gateway knows its own schedule
      ++report.nodes_delivered;
      continue;
    }
    // Walk the sink -> v path (reverse of path_to_sink).
    auto path = tree_->path_to_sink(v);
    bool ok = true;
    for (std::size_t i = path.size(); i-- > 1;) {
      if (!reliable_hop(path[i - 1], rng, report)) {
        ok = false;
        ++report.hop_failures;
        break;
      }
    }
    if (ok) {
      report.delivered[v] = 1;
      ++report.nodes_delivered;
    }
  }
  COOL_METRIC_ADD("dissemination.runs", 1);
  COOL_METRIC_ADD("dissemination.transmissions",
                  report.data_transmissions + report.ack_transmissions);
  COOL_METRIC_ADD("dissemination.hop_failures", report.hop_failures);
  return report;
}

core::PeriodicSchedule ScheduleDissemination::effective_schedule(
    const core::PeriodicSchedule& schedule, const DisseminationReport& report) {
  if (report.delivered.size() != schedule.sensor_count())
    throw std::invalid_argument("effective_schedule: report mismatch");
  core::PeriodicSchedule effective(schedule.sensor_count(),
                                   schedule.slots_per_period());
  for (std::size_t v = 0; v < schedule.sensor_count(); ++v) {
    if (!report.delivered[v]) continue;
    for (std::size_t t = 0; t < schedule.slots_per_period(); ++t)
      if (schedule.active(v, t)) effective.set_active(v, t);
  }
  return effective;
}

}  // namespace cool::proto
