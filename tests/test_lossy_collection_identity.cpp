// Differential suite for net::LossyCollection. The collection visits only
// backlogged nodes, keeps each queue as a flat ring, scans the receiver's
// neighbour list once per collision test and draws tree-edge links from
// probabilities it looked up once. It must reproduce the plain per-node
// machine, kept below as ReferenceCollection (every node visited in every
// subslot, std::deque queues, a search of the neighbour list per pair of
// transmitters, a LinkModel lookup per draw), bit for bit: every report
// field, per-node energy, the delivered mask, queue depths, probation, the
// cumulative stats and the caller's RNG state after every slot.
//
// Instances are random fields with heterogeneous comm radii (some
// disconnected), random masks of active and radio-up nodes, and random
// knobs: NON/CON splits, duty cycles, one-packet queues, zero and jittered
// backoff, and probation on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/lossy_collection.h"
#include "util/rng.h"

namespace cool::net {
namespace {

class ReferenceCollection {
 public:
  ReferenceCollection(const Network& network, const RoutingTree& tree,
                      const LinkModel& links, const RadioEnergyModel& radio,
                      const LossyCollectionConfig& config)
      : network_(&network), tree_(&tree), links_(&links), radio_(&radio),
        config_(config), backoff_policy_(config.backoff),
        queue_(network.sensor_count()),
        arq_(network.sensor_count(), BackoffSchedule(backoff_policy_)),
        wait_(network.sensor_count(), 0),
        origin_seq_(network.sensor_count(), 0),
        exhaust_streak_(network.sensor_count(), 0),
        probation_until_(network.sensor_count(), 0),
        probation_count_(network.sensor_count(), 0),
        node_energy_total_(network.sensor_count(), 0.0) {
    for (auto& schedule : arq_) schedule = BackoffSchedule(backoff_policy_);
  }

  bool radio_dark(std::size_t node, std::size_t slot) const {
    return probation_until_[node] > slot;
  }
  std::size_t queue_depth(std::size_t node) const { return queue_[node].size(); }
  const LossyCollectionStats& stats() const { return stats_; }
  const std::vector<double>& node_energy_j() const { return node_energy_total_; }

  LossySlotReport step(std::size_t slot, const std::vector<std::uint8_t>& active,
                       const std::vector<std::uint8_t>& comms_up,
                       util::Rng& rng) {
    const std::size_t n = network_->sensor_count();
    const auto up = [&comms_up](std::size_t v) {
      return comms_up.empty() || comms_up[v] != 0;
    };
    LossySlotReport report;
    report.node_energy_j.assign(n, 0.0);
    report.delivered_mask.assign(n, 0);
    const std::size_t sink = tree_->sink();

    for (std::size_t v = 0; v < n; ++v) {
      if (!active[v]) continue;
      if (!tree_->reachable(v)) {
        ++report.stranded;
        continue;
      }
      ++report.originated;
      if (v == sink) {
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
      if (queue_[v].size() >= config_.queue_capacity) {
        ++report.drops_overflow;
        continue;
      }
      queue_[v].push_back({v, slot, con});
    }

    std::vector<std::size_t> transmitters;
    std::vector<std::uint8_t> is_tx(n, 0);
    std::vector<std::uint32_t> collisions_at(n, 0);
    for (std::size_t sub = 0; sub < config_.subslots; ++sub) {
      transmitters.clear();
      std::fill(is_tx.begin(), is_tx.end(), 0);
      for (std::size_t v = 0; v < n; ++v) {
        if (wait_[v] > 0) {
          --wait_[v];
          continue;
        }
        if (v == sink || queue_[v].empty() ||
            (slot + v) % config_.sink_check_every != 0)
          continue;
        if (radio_dark(v, slot) || !up(v)) continue;
        if (!rng.bernoulli(config_.csma_persist)) continue;
        transmitters.push_back(v);
        is_tx[v] = 1;
      }

      for (const std::size_t t : transmitters) {
        Packet& pkt = queue_[t].front();
        const std::size_t r = tree_->parent(t);
        const bool retry = pkt.con && arq_[t].attempts() > 0;
        ++report.transmissions;
        if (retry) ++report.retries;
        report.node_energy_j[t] += radio_->tx_energy_j();

        bool collided = false;
        if (is_tx[r]) {
          collided = true;
        } else {
          for (const std::size_t u : transmitters) {
            if (u == t) continue;
            const auto& nbrs = network_->neighbors(r);
            if (std::find(nbrs.begin(), nbrs.end(), u) != nbrs.end()) {
              collided = true;
              break;
            }
          }
        }
        const bool receiver_up = r == sink || up(r);
        const bool success =
            receiver_up && !collided && links_->try_deliver(t, r, rng);
        if (collided) {
          ++report.collisions;
          ++collisions_at[r];
        }

        if (!success) {
          if (!pkt.con) {
            ++report.non_lost;
            queue_[t].pop_front();
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

        report.node_energy_j[r] += radio_->rx_energy_j();
        if (pkt.con) {
          ++report.acks;
          report.node_energy_j[r] += radio_->tx_energy_j();
          if (links_->try_deliver(r, t, rng)) {
            report.node_energy_j[t] += radio_->rx_energy_j();
          } else {
            ++report.duplicates;
            ++report.transmissions;
            ++report.acks;
            report.node_energy_j[t] += radio_->tx_energy_j();
            report.node_energy_j[r] +=
                radio_->rx_energy_j() + radio_->tx_energy_j();
            report.node_energy_j[t] += radio_->rx_energy_j();
          }
        }
        const Packet landed = pkt;
        queue_[t].pop_front();
        arq_[t].reset();
        exhaust_streak_[t] = 0;
        if (r == sink) {
          if (landed.origin_slot == slot) {
            ++report.delivered;
            report.delivered_mask[landed.origin] = 1;
          } else {
            ++report.delivered_late;
          }
        } else if (queue_[r].size() >= config_.queue_capacity) {
          ++report.drops_overflow;
        } else {
          queue_[r].push_back(landed);
        }
      }
    }

    for (std::size_t v = 0; v < n; ++v) {
      report.queued_end += queue_[v].size();
      report.max_queue_depth = std::max(report.max_queue_depth, queue_[v].size());
      if (collisions_at[v] > report.hot_node_collisions) {
        report.hot_node_collisions = collisions_at[v];
        report.hot_node = v;
      }
      const bool radio_on = (active[v] != 0 || !queue_[v].empty() || v == sink) &&
                            !radio_dark(v, slot) && up(v);
      if (radio_on)
        report.node_energy_j[v] += radio_->idle_energy_j(config_.idle_listen_s);
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
    return report;
  }

 private:
  struct Packet {
    std::size_t origin = 0;
    std::size_t origin_slot = 0;
    bool con = true;
  };

  void drop_head_exhausted(std::size_t node, std::size_t slot,
                           LossySlotReport& report) {
    queue_[node].pop_front();
    arq_[node].reset();
    wait_[node] = 0;
    ++report.drops_retry;
    if (config_.probation_after == 0) return;
    if (++exhaust_streak_[node] < config_.probation_after) return;
    exhaust_streak_[node] = 0;
    const std::size_t backoff = std::min<std::size_t>(
        config_.probation_max_slots,
        config_.probation_base_slots
            << std::min<std::uint32_t>(probation_count_[node], 16));
    ++probation_count_[node];
    probation_until_[node] = slot + 1 + backoff;
    ++report.probation_entries;
  }

  const Network* network_;
  const RoutingTree* tree_;
  const LinkModel* links_;
  const RadioEnergyModel* radio_;
  LossyCollectionConfig config_;
  BackoffPolicy backoff_policy_;
  std::vector<std::deque<Packet>> queue_;
  std::vector<BackoffSchedule> arq_;
  std::vector<std::size_t> wait_;
  std::vector<std::size_t> origin_seq_;
  std::vector<std::size_t> exhaust_streak_;
  std::vector<std::size_t> probation_until_;
  std::vector<std::uint32_t> probation_count_;
  std::vector<double> node_energy_total_;
  LossyCollectionStats stats_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_report(const LossySlotReport& got, const LossySlotReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.originated, want.originated) << where;
  EXPECT_EQ(got.delivered, want.delivered) << where;
  EXPECT_EQ(got.delivered_late, want.delivered_late) << where;
  EXPECT_EQ(got.stranded, want.stranded) << where;
  EXPECT_EQ(got.drops_overflow, want.drops_overflow) << where;
  EXPECT_EQ(got.drops_retry, want.drops_retry) << where;
  EXPECT_EQ(got.drops_radio_dark, want.drops_radio_dark) << where;
  EXPECT_EQ(got.non_lost, want.non_lost) << where;
  EXPECT_EQ(got.collisions, want.collisions) << where;
  EXPECT_EQ(got.transmissions, want.transmissions) << where;
  EXPECT_EQ(got.retries, want.retries) << where;
  EXPECT_EQ(got.acks, want.acks) << where;
  EXPECT_EQ(got.duplicates, want.duplicates) << where;
  EXPECT_EQ(got.probation_entries, want.probation_entries) << where;
  EXPECT_EQ(got.queued_end, want.queued_end) << where;
  EXPECT_EQ(got.max_queue_depth, want.max_queue_depth) << where;
  EXPECT_EQ(got.hot_node, want.hot_node) << where;
  EXPECT_EQ(got.hot_node_collisions, want.hot_node_collisions) << where;
  EXPECT_EQ(bits(got.radio_energy_j), bits(want.radio_energy_j)) << where;
  EXPECT_EQ(got.delivered_mask, want.delivered_mask) << where;
  ASSERT_EQ(got.node_energy_j.size(), want.node_energy_j.size()) << where;
  for (std::size_t v = 0; v < got.node_energy_j.size(); ++v)
    EXPECT_EQ(bits(got.node_energy_j[v]), bits(want.node_energy_j[v]))
        << where << ", node " << v;
}

Network random_field(util::Rng& rng, std::size_t n) {
  const double side = rng.uniform(30.0, 120.0);
  const double radius = rng.uniform(8.0, 40.0);
  const bool mixed = rng.bernoulli(0.5);
  std::vector<Sensor> sensors;
  for (std::size_t i = 0; i < n; ++i) {
    const double comm = mixed ? rng.uniform(0.6, 1.4) * radius : radius;
    sensors.push_back(
        {0, {rng.uniform(0.0, side), rng.uniform(0.0, side)}, 5.0, comm});
  }
  return Network(std::move(sensors), {}, geom::Rect::square(side));
}

std::size_t draw(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(lo, hi));
}

LossyCollectionConfig random_config(util::Rng& rng) {
  LossyCollectionConfig config;
  config.subslots = draw(rng, 1, 64);
  config.csma_persist = rng.uniform(0.1, 1.0);
  config.queue_capacity = draw(rng, 1, 5);
  config.con_every = draw(rng, 0, 3);
  config.sink_check_every = draw(rng, 1, 3);
  config.idle_listen_s = rng.uniform(0.0, 2.0);
  config.probation_after = draw(rng, 0, 3);
  config.probation_base_slots = draw(rng, 1, 4);
  config.probation_max_slots =
      config.probation_base_slots +
      draw(rng, 0, 12);
  config.backoff.base_slots = draw(rng, 0, 3);
  config.backoff.max_slots =
      config.backoff.base_slots + draw(rng, 0, 20);
  config.backoff.factor = rng.uniform(1.0, 3.0);
  config.backoff.jitter = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
  config.backoff.retry_budget = draw(rng, 0, 6);
  return config;
}

TEST(LossyCollectionIdentity, MatchesThePerNodeMachine) {
  util::Rng rng(20111);
  std::size_t probation = 0, collisions = 0, late = 0, stranded = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = draw(rng, 2, 150);
    const Network network = random_field(rng, n);
    const std::size_t sink = draw(rng, 0, static_cast<std::int64_t>(n) - 1);
    const RoutingTree tree(network, sink);
    LinkModelConfig link_config;
    link_config.global_loss = rng.uniform(0.0, 0.6);
    const LinkModel links(network, link_config);
    const RadioEnergyModel radio;
    const LossyCollectionConfig config = random_config(rng);
    LossyCollection fast(network, tree, links, radio, config);
    ReferenceCollection reference(network, tree, links, radio, config);
    util::Rng fast_rng(static_cast<std::uint64_t>(trial));
    util::Rng reference_rng(static_cast<std::uint64_t>(trial));
    const double active_share = rng.uniform(0.1, 1.0);
    const double down_share = rng.uniform(0.0, 0.3);
    for (std::size_t slot = 0; slot < 40; ++slot) {
      std::vector<std::uint8_t> active(n), comms_up;
      for (auto& a : active) a = rng.bernoulli(active_share) ? 1 : 0;
      if (slot % 4 != 0) {
        comms_up.resize(n);
        for (auto& u : comms_up) u = rng.bernoulli(down_share) ? 0 : 1;
      }
      const std::string where =
          "trial " + std::to_string(trial) + ", slot " + std::to_string(slot);
      const auto got = fast.step(slot, active, comms_up, fast_rng);
      const auto want = reference.step(slot, active, comms_up, reference_rng);
      expect_same_report(got, want, where);
      ASSERT_EQ(fast_rng.next(), reference_rng.next()) << where;
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(fast.queue_depth(v), reference.queue_depth(v)) << where;
        ASSERT_EQ(fast.radio_dark(v, slot + 1), reference.radio_dark(v, slot + 1))
            << where;
      }
      probation += want.probation_entries;
      collisions += want.collisions;
      late += want.delivered_late;
      stranded += want.stranded;
      if (HasFailure()) return;
    }
    EXPECT_EQ(fast.stats().transmissions, reference.stats().transmissions);
    EXPECT_EQ(bits(fast.stats().radio_energy_j),
              bits(reference.stats().radio_energy_j));
    for (std::size_t v = 0; v < n; ++v)
      EXPECT_EQ(bits(fast.node_energy_j()[v]), bits(reference.node_energy_j()[v]));
  }
  // The random instances reach every corner the fast path must keep.
  EXPECT_GT(probation, 0u);
  EXPECT_GT(collisions, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(stranded, 0u);
}

}  // namespace
}  // namespace cool::net
