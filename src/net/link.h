// Lossy-link model for the radio substrate.
//
// Per-transmission delivery succeeds with a probability derived from link
// distance: near-perfect inside half the communication range, degrading
// smoothly to a floor at the edge — the standard empirical shape of CC2420
// packet reception curves, reduced to a two-parameter model.
//
// Lives in net (next to the radio energy model and the routing tree) so the
// collection data plane can sample links without a layering cycle.
// proto/link.h keeps the older proto::LinkModel name as an alias for the
// benchmark client (perfbench/gateway_month.cpp), its last user.
#pragma once

#include <cstddef>
#include <vector>

#include "net/network.h"
#include "net/routing.h"
#include "util/rng.h"

namespace cool::net {

struct LinkModelConfig {
  double near_delivery = 0.98;  // PRR well inside range
  double edge_delivery = 0.50;  // PRR at exactly the communication range
  // Extra multiplicative loss applied to every link (interference knob).
  double global_loss = 0.0;     // in [0, 1); 0 = none
};

class LinkModel {
 public:
  LinkModel(const Network& network, const LinkModelConfig& config = {});

  // Delivery probability of one transmission a -> b: 1 from a node to
  // itself, 0 when not neighbours, the distance model otherwise.
  double delivery_probability(std::size_t from, std::size_t to) const;

  // Samples one transmission attempt.
  bool try_deliver(std::size_t from, std::size_t to, util::Rng& rng) const {
    return rng.bernoulli(delivery_probability(from, to));
  }

  // Delivery probabilities of the tree's edges, indexed by the child v:
  // uplink v -> parent(v), downlink parent(v) -> v; 0 for the sink and for
  // nodes outside its component. The protocols read these once at
  // construction; rng.bernoulli(uplink[v]) is try_deliver(v, parent).
  std::vector<double> uplink_probabilities(const RoutingTree& tree) const;
  std::vector<double> downlink_probabilities(const RoutingTree& tree) const;

  const LinkModelConfig& config() const noexcept { return config_; }

 private:
  // The probability of one directed edge of the comm graph.
  double distance_model(std::size_t from, std::size_t to) const;

  const Network* network_;
  LinkModelConfig config_;
};

}  // namespace cool::net
