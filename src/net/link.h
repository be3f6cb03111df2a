// Lossy-link model for the radio substrate.
//
// Per-transmission delivery succeeds with a probability derived from link
// distance: near-perfect inside half the communication range, degrading
// smoothly to a floor at the edge — the standard empirical shape of CC2420
// packet reception curves, reduced to a two-parameter model.
//
// Lives in net (next to the radio energy model and the routing tree) so the
// collection data plane can sample links without a layering cycle; the
// protocol layer re-exports it as proto::LinkModel for existing callers.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
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

  // Delivery probability of one transmission a -> b; 0 when not neighbours.
  double delivery_probability(std::size_t from, std::size_t to) const;

  // Delivery probabilities of `from`'s edges, aligned with
  // network.neighbors(from). The first call of this or of
  // delivery_probability builds the table of every directed edge; later
  // calls look it up. Safe to call concurrently; copies of a model share
  // the table.
  std::span<const double> edge_probabilities(std::size_t from) const;

  // Samples one transmission attempt.
  bool try_deliver(std::size_t from, std::size_t to, util::Rng& rng) const {
    return rng.bernoulli(delivery_probability(from, to));
  }

  // Delivery probabilities of the tree's edges, indexed by the child v:
  // uplink v -> parent(v), downlink parent(v) -> v; 0 for the sink and for
  // nodes outside its component. A loop that draws only tree edges looks
  // them up once here; rng.bernoulli(uplink[v]) is try_deliver(v, parent).
  std::vector<double> uplink_probabilities(const RoutingTree& tree) const;
  std::vector<double> downlink_probabilities(const RoutingTree& tree) const;

  const LinkModelConfig& config() const noexcept { return config_; }

 private:
  // Probability of the edge a -> neighbors(a)[k] at by_edge[start[a] + k].
  // `ready` turns true once the table is built, so lookups after the first
  // skip call_once's per-call bookkeeping.
  struct EdgeTable {
    std::once_flag built;
    std::atomic<bool> ready{false};
    std::vector<std::size_t> start;
    std::vector<double> by_edge;
  };

  double distance_model(std::size_t from, std::size_t to) const;

  const Network* network_;
  LinkModelConfig config_;
  std::shared_ptr<EdgeTable> table_ = std::make_shared<EdgeTable>();
};

}  // namespace cool::net
