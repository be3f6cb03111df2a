#include "net/routing.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <stdexcept>

namespace cool::net {

RoutingTree::RoutingTree(const Network& network, std::size_t sink) : sink_(sink) {
  const std::size_t n = network.sensor_count();
  if (sink >= n) throw std::out_of_range("RoutingTree: sink index");
  parent_.assign(n, kNoParent);
  depth_.assign(n, 0);
  reachable_.assign(n, 0);

  std::deque<std::size_t> queue;
  queue.push_back(sink);
  reachable_[sink] = 1;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    ++reachable_count_;
    for (const std::size_t v : network.neighbors(u)) {
      if (reachable_[v]) continue;
      reachable_[v] = 1;
      parent_[v] = u;
      depth_[v] = depth_[u] + 1;
      queue.push_back(v);
    }
  }
}

bool RoutingTree::reachable(std::size_t sensor) const {
  if (sensor >= reachable_.size()) throw std::out_of_range("RoutingTree::reachable");
  return reachable_[sensor] != 0;
}

std::size_t RoutingTree::depth(std::size_t sensor) const {
  if (!reachable(sensor)) throw std::runtime_error("RoutingTree: unreachable sensor");
  return depth_[sensor];
}

std::size_t RoutingTree::parent(std::size_t sensor) const {
  if (!reachable(sensor)) throw std::runtime_error("RoutingTree: unreachable sensor");
  return parent_[sensor];
}

std::vector<std::size_t> RoutingTree::path_to_sink(std::size_t sensor) const {
  if (!reachable(sensor)) throw std::runtime_error("RoutingTree: unreachable sensor");
  std::vector<std::size_t> path{sensor};
  std::size_t cur = sensor;
  while (cur != sink_) {
    cur = parent_[cur];
    path.push_back(cur);
  }
  return path;
}

std::vector<std::size_t> RoutingTree::relay_load(
    const std::vector<std::uint8_t>& active) const {
  if (active.size() != reachable_.size())
    throw std::invalid_argument("RoutingTree::relay_load: size mismatch");
  std::vector<std::size_t> load(active.size(), 0);
  for (std::size_t s = 0; s < active.size(); ++s) {
    if (!active[s] || !reachable_[s] || s == sink_) continue;
    // Every hop after the originator (excluding the sink receiving) relays.
    std::size_t cur = parent_[s];
    while (cur != sink_) {
      ++load[cur];
      cur = parent_[cur];
    }
  }
  return load;
}

std::size_t choose_best_sink(const Network& network) {
  const std::size_t n = network.sensor_count();
  if (n == 0) throw std::invalid_argument("choose_best_sink: empty network");
  // Reach and total hop depth of every candidate's BFS tree, by a
  // multi-source BFS over 64 candidates per pass: bit c of a node's word
  // says candidate base + c has reached it. Both figures depend only on hop
  // distances, so they equal those of one RoutingTree per candidate, at one
  // sweep of the frontier's edge lists per BFS level instead of one BFS per
  // candidate. Memory stays O(n).
  std::vector<std::size_t> reach(n, 0), total_depth(n, 0);
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t batch = std::min<std::size_t>(64, n - base);
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(frontier.begin(), frontier.end(), 0);
    for (std::size_t c = 0; c < batch; ++c)
      seen[base + c] = frontier[base + c] = std::uint64_t{1} << c;
    for (std::size_t depth = 0;; ++depth) {
      // The frontier holds the nodes at hop distance `depth`.
      bool frontier_empty = true;
      for (std::size_t v = 0; v < n; ++v) {
        for (std::uint64_t bits = frontier[v]; bits != 0; bits &= bits - 1) {
          const std::size_t c =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          ++reach[c];
          total_depth[c] += depth;
          frontier_empty = false;
        }
      }
      if (frontier_empty) break;
      std::fill(next.begin(), next.end(), 0);
      for (std::size_t u = 0; u < n; ++u) {
        if (frontier[u] == 0) continue;
        for (const std::size_t v : network.neighbors(u)) next[v] |= frontier[u];
      }
      for (std::size_t v = 0; v < n; ++v) {
        next[v] &= ~seen[v];
        seen[v] |= next[v];
      }
      frontier.swap(next);
    }
  }
  std::size_t best = 0;
  std::size_t best_reach = 0;
  std::size_t best_total_depth = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (reach[s] > best_reach ||
        (reach[s] == best_reach && total_depth[s] < best_total_depth)) {
      best = s;
      best_reach = reach[s];
      best_total_depth = total_depth[s];
    }
  }
  return best;
}

}  // namespace cool::net
