// Golden outputs of the gateway day. Each case deploys the gateway-month
// shape (n=200, 40 targets, 140 m region, sensing 40 m, comm 45 m), picks
// the sink, plans a detection schedule (p=0.4), disseminates it over lossy
// links and runs one ResilientRuntime day with transient faults and lossy
// collection. Everything the day reports is folded into one 64-bit hash per
// configuration: the chosen sink, the dissemination counts and the bits of
// every RuntimeReport field, per-node collection energy included.
//
// The constants pin the outputs of the plain per-node simulation (every
// node visited in every subslot, a linear neighbour search per link draw, a
// path vector per heartbeat). The fast paths through collection, link
// draws, heartbeats and sink selection must keep every RNG draw and every
// floating-point sum in the same order, so they reproduce these hashes bit
// for bit. A mismatch means a simulated outcome changed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/problem.h"
#include "net/network.h"
#include "net/radio.h"
#include "net/routing.h"
#include "proto/dissemination.h"
#include "proto/link.h"
#include "sim/runtime.h"
#include "util/rng.h"

namespace cool::sim {
namespace {

// FNV-1a over 64-bit words; doubles contribute their bit patterns.
class Fold {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void count(std::size_t v) { word(static_cast<std::uint64_t>(v)); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void stats(const util::Accumulator& a) {
    count(a.count());
    count(a.nan_count());
    real(a.mean());
    real(a.variance());
    real(a.min());
    real(a.max());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void fold_report(const RuntimeReport& r, Fold& f) {
  f.real(r.total_utility);
  f.real(r.average_utility_per_slot);
  f.real(r.fault_free_utility);
  f.real(r.coverage_retained);
  f.count(r.slots);
  f.count(r.activations);
  f.count(r.energy_violations);
  f.count(r.true_deaths);
  f.count(r.failures_injected);
  f.count(r.detected_deaths);
  f.count(r.false_deaths);
  f.count(r.false_suspicions);
  f.stats(r.detection_latency_slots);
  f.count(r.repairs);
  f.count(r.repair_moves);
  // repair_micros is wall-clock; only its sample count is deterministic.
  f.count(r.repair_micros.count());
  f.stats(r.repair_oracle_calls);
  f.stats(r.repair_vs_recompute);
  f.count(r.heartbeat_transmissions);
  f.real(r.heartbeat_energy_j);
  f.count(r.delta_updates_enqueued);
  f.count(r.delta_updates_delivered);
  f.count(r.delta_transmissions);
  f.real(r.delta_energy_j);
  f.stats(r.redissemination_latency_slots);
  f.count(r.brownouts);
  f.count(r.brownout_declines);
  f.count(r.radio_blackout_slots);
  f.count(r.replans);
  f.count(r.replans_on_drift);
  f.count(r.replans_on_budget);
  f.count(r.bench_events);
  f.count(r.readmit_events);
  f.count(r.benched_final);
  f.real(r.estimated_fleet_rho_slots);
  f.real(r.planned_rho_slots);
  f.real(r.delivered_utility);
  f.real(r.average_delivered_per_slot);
  f.real(r.delivered_fraction);
  f.count(r.packets_originated);
  f.count(r.packets_delivered);
  f.count(r.packets_late);
  f.count(r.packet_drops_overflow);
  f.count(r.packet_drops_retry);
  f.count(r.packet_drops_radio_dark);
  f.count(r.packets_non_lost);
  f.count(r.collisions);
  f.count(r.collection_transmissions);
  f.count(r.collection_retries);
  f.count(r.probation_entries);
  f.count(r.max_queue_depth);
  f.real(r.collection_energy_j);
  f.count(r.collection_node_energy_j.size());
  for (const double e : r.collection_node_energy_j) f.real(e);
}

void fold_dissemination(const proto::DisseminationReport& d, Fold& f) {
  f.count(d.nodes_targeted);
  f.count(d.nodes_delivered);
  f.count(d.nodes_unreachable);
  f.count(d.data_transmissions);
  f.count(d.ack_transmissions);
  f.count(d.hop_failures);
  f.real(d.radio_energy_j);
  for (const std::uint8_t delivered : d.delivered) f.count(delivered);
}

struct GoldenCase {
  double global_loss = 0.15;
  net::LossyCollectionConfig collection;
};

// The gateway-month collection channel: 48 contention micro-slots at CSMA
// persistence 0.35, other knobs at their defaults.
GoldenCase gateway_case() {
  GoldenCase c;
  c.collection.subslots = 48;
  c.collection.csma_persist = 0.35;
  return c;
}

// The same channel pushed into every corner of the collection state machine:
// NON packets, duty-cycled wakes, overflowing two-packet queues, and
// probation on the first retry-budget exhaustion over a half-dead channel.
GoldenCase stress_case() {
  GoldenCase c = gateway_case();
  c.global_loss = 0.5;
  c.collection.con_every = 3;
  c.collection.sink_check_every = 2;
  c.collection.queue_capacity = 2;
  c.collection.probation_after = 1;
  return c;
}

struct DayOutcome {
  std::uint64_t hash = 0;
  RuntimeReport report;
};

DayOutcome run_day(const GoldenCase& c, std::uint64_t seed) {
  net::NetworkConfig config;
  config.sensor_count = 200;
  config.target_count = 40;
  config.region_side = 140.0;
  config.sensing_radius = 40.0;
  config.comm_radius = 45.0;
  util::Rng deploy_rng(seed);
  const net::Network network = net::make_random_network(config, deploy_rng);
  const std::size_t sink = net::choose_best_sink(network);
  const net::RoutingTree tree(network, sink);
  proto::LinkModelConfig link_config;
  link_config.global_loss = c.global_loss;
  const proto::LinkModel links(network, link_config);
  const net::RadioEnergyModel radio;

  // A 12-hour working day of 15-minute slots at rho = 3 (T = 4).
  const energy::ChargingPattern pattern{};
  const std::size_t periods = 12;
  const auto problem =
      core::Problem::detection_instance(network, 0.4, pattern, periods);
  const auto plan = core::GreedyScheduler().schedule(problem).schedule;

  const proto::ScheduleDissemination dissemination(network, tree, links, radio);
  util::Rng proto_rng(seed * 7 + 1);
  const auto delivery = dissemination.disseminate(plan, proto_rng);

  RuntimeConfig runtime_config;
  runtime_config.slots = periods * pattern.slots_per_period();
  runtime_config.pattern = pattern;
  runtime_config.faults.kind = FaultKind::kTransient;
  runtime_config.faults.failure_rate_per_slot = 0.01;
  runtime_config.collect = true;
  runtime_config.collection = c.collection;
  ResilientRuntime runtime(
      problem.slot_utility_ptr(), network, tree, links, radio,
      proto::ScheduleDissemination::effective_schedule(plan, delivery),
      runtime_config, util::Rng(seed * 7 + 2));

  DayOutcome out;
  out.report = runtime.run();
  Fold fold;
  fold.count(sink);
  fold.count(tree.reachable_count());
  fold_dissemination(delivery, fold);
  fold_report(out.report, fold);
  out.hash = fold.value();
  return out;
}

constexpr std::uint64_t kSeeds[] = {11, 12, 13};

std::uint64_t case_hash(const GoldenCase& c, RuntimeReport* totals) {
  Fold fold;
  for (const std::uint64_t seed : kSeeds) {
    const DayOutcome day = run_day(c, seed);
    fold.word(day.hash);
    totals->packets_originated += day.report.packets_originated;
    totals->packets_delivered += day.report.packets_delivered;
    totals->packets_late += day.report.packets_late;
    totals->packet_drops_overflow += day.report.packet_drops_overflow;
    totals->packet_drops_retry += day.report.packet_drops_retry;
    totals->packet_drops_radio_dark += day.report.packet_drops_radio_dark;
    totals->packets_non_lost += day.report.packets_non_lost;
    totals->collisions += day.report.collisions;
    totals->probation_entries += day.report.probation_entries;
    totals->failures_injected += day.report.failures_injected;
    totals->repairs += day.report.repairs;
    totals->delta_updates_delivered += day.report.delta_updates_delivered;
  }
  std::printf("golden hash: 0x%016llX\n",
              static_cast<unsigned long long>(fold.value()));
  return fold.value();
}

TEST(GatewayGolden, GatewayChannelMatchesPinnedOutputs) {
  RuntimeReport totals;
  const std::uint64_t hash = case_hash(gateway_case(), &totals);
  // The pinned days exercise the whole loop: congestion, retries, late
  // deliveries, transient faults and the repairs they trigger.
  EXPECT_GT(totals.packets_delivered, 0u);
  EXPECT_GT(totals.collisions, 0u);
  EXPECT_GT(totals.packets_late, 0u);
  EXPECT_GT(totals.packet_drops_retry, 0u);
  EXPECT_GT(totals.failures_injected, 0u);
  EXPECT_GT(totals.repairs, 0u);
  EXPECT_GT(totals.delta_updates_delivered, 0u);
  EXPECT_EQ(hash, 0xD1B8D10FB809FF30ULL);
}

TEST(GatewayGolden, StressChannelMatchesPinnedOutputs) {
  RuntimeReport totals;
  const std::uint64_t hash = case_hash(stress_case(), &totals);
  // Every corner the stress knobs aim at is actually reached.
  EXPECT_GT(totals.packets_non_lost, 0u);
  EXPECT_GT(totals.packet_drops_overflow, 0u);
  EXPECT_GT(totals.packet_drops_retry, 0u);
  EXPECT_GT(totals.packet_drops_radio_dark, 0u);
  EXPECT_GT(totals.probation_entries, 0u);
  EXPECT_GT(totals.packets_late, 0u);
  EXPECT_EQ(hash, 0x53AD69DAF230D756ULL);
}

}  // namespace
}  // namespace cool::sim
