#include "net/link.h"

#include <algorithm>
#include <stdexcept>

namespace cool::net {

LinkModel::LinkModel(const Network& network, const LinkModelConfig& config)
    : network_(&network), config_(config) {
  if (config.near_delivery <= 0.0 || config.near_delivery > 1.0 ||
      config.edge_delivery < 0.0 || config.edge_delivery > config.near_delivery)
    throw std::invalid_argument("LinkModel: bad delivery probabilities");
  if (config.global_loss < 0.0 || config.global_loss >= 1.0)
    throw std::invalid_argument("LinkModel: global loss outside [0, 1)");
}

double LinkModel::distance_model(std::size_t from, std::size_t to) const {
  const auto& sensors = network_->sensors();
  const double range = std::min(sensors[from].comm_radius, sensors[to].comm_radius);
  const double d = sensors[from].position.distance_to(sensors[to].position);
  const double frac = range <= 0.0 ? 1.0 : std::clamp(d / range, 0.0, 1.0);
  // Flat at near_delivery until half range, then linear to edge_delivery.
  const double base =
      frac <= 0.5 ? config_.near_delivery
                  : config_.near_delivery + (config_.edge_delivery -
                                             config_.near_delivery) *
                                                (frac - 0.5) / 0.5;
  return base * (1.0 - config_.global_loss);
}

double LinkModel::delivery_probability(std::size_t from, std::size_t to) const {
  const std::size_t n = network_->sensor_count();
  if (from >= n || to >= n) throw std::out_of_range("LinkModel: node index");
  if (from == to) return 1.0;
  // Neighbour lists are ascending by id.
  const auto& neighbors = network_->neighbors(from);
  if (!std::binary_search(neighbors.begin(), neighbors.end(), to)) return 0.0;
  return distance_model(from, to);
}

// A tree edge is a comm-graph edge by construction, so its probability is
// the distance model's.
std::vector<double> LinkModel::uplink_probabilities(
    const RoutingTree& tree) const {
  std::vector<double> p(tree.node_count(), 0.0);
  for (std::size_t v = 0; v < p.size(); ++v)
    if (tree.reachable(v) && v != tree.sink())
      p[v] = distance_model(v, tree.parent(v));
  return p;
}

std::vector<double> LinkModel::downlink_probabilities(
    const RoutingTree& tree) const {
  std::vector<double> p(tree.node_count(), 0.0);
  for (std::size_t v = 0; v < p.size(); ++v)
    if (tree.reachable(v) && v != tree.sink())
      p[v] = distance_model(tree.parent(v), v);
  return p;
}

}  // namespace cool::net
