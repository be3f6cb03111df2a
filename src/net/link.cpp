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

// The probability of one directed edge of the comm graph.
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

std::span<const double> LinkModel::edge_probabilities(std::size_t from) const {
  const std::size_t n = network_->sensor_count();
  if (from >= n) throw std::out_of_range("LinkModel: node index");
  EdgeTable& table = *table_;
  if (!table.ready.load(std::memory_order_acquire)) {
    std::call_once(table.built, [this, n, &table] {
      table.start.assign(n + 1, 0);
      for (std::size_t a = 0; a < n; ++a)
        table.start[a + 1] = table.start[a] + network_->neighbors(a).size();
      table.by_edge.reserve(table.start[n]);
      for (std::size_t a = 0; a < n; ++a)
        for (const std::size_t b : network_->neighbors(a))
          table.by_edge.push_back(distance_model(a, b));
      table.ready.store(true, std::memory_order_release);
    });
  }
  return std::span<const double>(table.by_edge)
      .subspan(table.start[from], table.start[from + 1] - table.start[from]);
}

double LinkModel::delivery_probability(std::size_t from, std::size_t to) const {
  const std::size_t n = network_->sensor_count();
  if (from >= n || to >= n) throw std::out_of_range("LinkModel: node index");
  if (from == to) return 1.0;
  const std::span<const double> edges = edge_probabilities(from);
  // Neighbour lists are ascending by id.
  const auto& neighbors = network_->neighbors(from);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), to);
  if (it == neighbors.end() || *it != to) return 0.0;
  return edges[static_cast<std::size_t>(it - neighbors.begin())];
}

std::vector<double> LinkModel::uplink_probabilities(
    const RoutingTree& tree) const {
  std::vector<double> p(tree.node_count(), 0.0);
  for (std::size_t v = 0; v < p.size(); ++v)
    if (tree.reachable(v) && v != tree.sink())
      p[v] = delivery_probability(v, tree.parent(v));
  return p;
}

std::vector<double> LinkModel::downlink_probabilities(
    const RoutingTree& tree) const {
  std::vector<double> p(tree.node_count(), 0.0);
  for (std::size_t v = 0; v < p.size(); ++v)
    if (tree.reachable(v) && v != tree.sink())
      p[v] = delivery_probability(tree.parent(v), v);
  return p;
}

}  // namespace cool::net
