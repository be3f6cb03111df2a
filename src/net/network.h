// Network model: sensors with sensing disks, targets, the coverage relation
// a_ij (paper Section IV-A-1), and the communication graph used by routing.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "geometry/disk.h"
#include "geometry/rect.h"
#include "util/rng.h"

namespace cool::net {

struct Sensor {
  std::size_t id = 0;
  geom::Vec2 position;
  double sensing_radius = 0.0;
  double comm_radius = 0.0;
};

struct Target {
  std::size_t id = 0;
  geom::Vec2 position;
  double weight = 1.0;  // monitoring importance
};

class Network {
 public:
  Network(std::vector<Sensor> sensors, std::vector<Target> targets,
          geom::Rect region);

  const std::vector<Sensor>& sensors() const noexcept { return sensors_; }
  const std::vector<Target>& targets() const noexcept { return targets_; }
  const geom::Rect& region() const noexcept { return region_; }
  std::size_t sensor_count() const noexcept { return sensors_.size(); }
  std::size_t target_count() const noexcept { return targets_.size(); }

  // V(O_i): sensors whose sensing disk contains target i.
  const std::vector<std::size_t>& covering_sensors(std::size_t target) const;
  // Full relation, indexed by target: the paper's a_ij as adjacency lists.
  const std::vector<std::vector<std::size_t>>& coverage() const noexcept {
    return covers_;
  }
  bool covers(std::size_t sensor, std::size_t target) const;

  // Targets with no covering sensor (they can never earn utility).
  std::vector<std::size_t> uncovered_targets() const;

  // Communication neighbours (symmetric disk graph on comm_radius; an edge
  // exists when *both* endpoints reach each other), ascending by id. Built
  // on the first call — planning never needs them — and safe to call
  // concurrently; copies of a network share the built lists.
  const std::vector<std::size_t>& neighbors(std::size_t sensor) const;

  // Sensing disks, aligned with sensors() — input for geometric utilities.
  std::vector<geom::Disk> sensing_disks() const;

 private:
  std::vector<Sensor> sensors_;
  std::vector<Target> targets_;
  geom::Rect region_;
  // `ready` turns true once the lists are built, so calls after the first
  // skip call_once's per-call bookkeeping.
  struct NeighborLists {
    std::once_flag built;
    std::atomic<bool> ready{false};
    std::vector<std::vector<std::size_t>> by_sensor;
  };

  std::vector<std::vector<std::size_t>> covers_;  // by target, ascending ids
  std::shared_ptr<NeighborLists> neighbors_ = std::make_shared<NeighborLists>();
};

// Random-instance factory used across the evaluation.
struct NetworkConfig {
  std::size_t sensor_count = 100;
  std::size_t target_count = 1;
  double region_side = 100.0;
  double sensing_radius = 15.0;
  double comm_radius = 30.0;
  // Deployment shapes; targets are always uniform in the region.
  enum class Layout { kUniform, kGrid, kClustered } layout = Layout::kUniform;
  std::size_t clusters = 4;       // for kClustered
  double cluster_spread = 12.0;   // for kClustered
  // Guarantee every target has at least one covering sensor by relocating
  // a nearest sensor when needed (keeps the paper's utility comparisons
  // meaningful: an uncoverable target deflates every algorithm equally).
  bool ensure_coverage = true;
};

Network make_random_network(const NetworkConfig& config, util::Rng& rng);

}  // namespace cool::net
