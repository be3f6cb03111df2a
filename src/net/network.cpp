#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geometry/deployment.h"

namespace cool::net {

namespace {

// The coverage relation a_ij by target, through a uniform grid over the
// sensors' bounding box. Cells are at least the largest sensing radius
// wide (and at most about √n per axis), so every sensor that can cover a
// target lies in a cell that the target's radius-wide box touches. Each
// candidate passes the same disk test as the full O(n·m) scan and each
// list is sorted ascending, so the relation is identical to the scan's.
std::vector<std::vector<std::size_t>> coverage_by_target(
    const std::vector<Sensor>& sensors, const std::vector<Target>& targets) {
  std::vector<std::vector<std::size_t>> covers(targets.size());
  if (sensors.empty() || targets.empty()) return covers;
  double reach = 0.0;
  double min_x = sensors[0].position.x, max_x = min_x;
  double min_y = sensors[0].position.y, max_y = min_y;
  for (const auto& s : sensors) {
    reach = std::max(reach, s.sensing_radius);
    min_x = std::min(min_x, s.position.x);
    max_x = std::max(max_x, s.position.x);
    min_y = std::min(min_y, s.position.y);
    max_y = std::max(max_y, s.position.y);
  }
  // The disk test accepts offsets up to the radius plus its own rounding
  // (and any offset whose square underflows), so widen the query box.
  reach += reach * 1e-9 + 1e-150;
  const double side_cap =
      std::ceil(std::sqrt(static_cast<double>(sensors.size())));
  double cell = std::max(reach, std::max(max_x - min_x, max_y - min_y) / side_cap);
  if (!(cell > 0.0)) cell = 1.0;
  const auto cells_along = [cell](double extent) {
    return static_cast<std::size_t>(std::floor(extent / cell)) + 1;
  };
  const std::size_t nx = cells_along(max_x - min_x);
  const std::size_t ny = cells_along(max_y - min_y);
  // Cell of a coordinate offset, clamped to [-1, count] so far-away targets
  // give an empty (or edge-only) range instead of overflowing.
  const auto cell_of = [cell](double offset, std::size_t count) {
    return static_cast<long long>(std::clamp(std::floor(offset / cell), -1.0,
                                             static_cast<double>(count)));
  };

  // Sensors bucketed by cell, ascending ids within a cell.
  std::vector<std::size_t> start(nx * ny + 1, 0);
  std::vector<std::size_t> home(sensors.size());
  for (std::size_t s = 0; s < sensors.size(); ++s) {
    home[s] = static_cast<std::size_t>(
        cell_of(sensors[s].position.y - min_y, ny) *
            static_cast<long long>(nx) +
        cell_of(sensors[s].position.x - min_x, nx));
    ++start[home[s] + 1];
  }
  for (std::size_t c = 0; c < nx * ny; ++c) start[c + 1] += start[c];
  std::vector<std::size_t> bucketed(sensors.size());
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t s = 0; s < sensors.size(); ++s) bucketed[fill[home[s]]++] = s;

  std::vector<std::size_t> found;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const geom::Vec2 at = targets[t].position;
    found.clear();
    const long long x0 = std::max(0LL, cell_of(at.x - reach - min_x, nx));
    const long long x1 = std::min<long long>(
        static_cast<long long>(nx) - 1, cell_of(at.x + reach - min_x, nx));
    const long long y0 = std::max(0LL, cell_of(at.y - reach - min_y, ny));
    const long long y1 = std::min<long long>(
        static_cast<long long>(ny) - 1, cell_of(at.y + reach - min_y, ny));
    for (long long cy = y0; cy <= y1; ++cy) {
      for (long long cx = x0; cx <= x1; ++cx) {
        const auto c = static_cast<std::size_t>(cy * static_cast<long long>(nx) + cx);
        for (std::size_t k = start[c]; k < start[c + 1]; ++k) {
          const Sensor& s = sensors[bucketed[k]];
          const double r = s.sensing_radius;
          if (s.position.distance2_to(at) <= r * r) found.push_back(bucketed[k]);
        }
      }
    }
    std::sort(found.begin(), found.end());
    covers[t].assign(found.begin(), found.end());
  }
  return covers;
}

}  // namespace

Network::Network(std::vector<Sensor> sensors, std::vector<Target> targets,
                 geom::Rect region)
    : sensors_(std::move(sensors)), targets_(std::move(targets)),
      region_(region) {
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    if (sensors_[i].sensing_radius < 0.0 || sensors_[i].comm_radius < 0.0)
      throw std::invalid_argument("Network: negative radius");
    sensors_[i].id = i;
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) targets_[i].id = i;

  covers_ = coverage_by_target(sensors_, targets_);
}

const std::vector<std::size_t>& Network::covering_sensors(std::size_t target) const {
  if (target >= covers_.size()) throw std::out_of_range("Network::covering_sensors");
  return covers_[target];
}

bool Network::covers(std::size_t sensor, std::size_t target) const {
  const auto& list = covering_sensors(target);
  return std::find(list.begin(), list.end(), sensor) != list.end();
}

std::vector<std::size_t> Network::uncovered_targets() const {
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < covers_.size(); ++t)
    if (covers_[t].empty()) out.push_back(t);
  return out;
}

const std::vector<std::size_t>& Network::neighbors(std::size_t sensor) const {
  if (sensor >= sensors_.size()) throw std::out_of_range("Network::neighbors");
  if (!neighbors_->ready.load(std::memory_order_acquire)) {
    std::call_once(neighbors_->built, [this] {
      auto& lists = neighbors_->by_sensor;
      lists.resize(sensors_.size());
      for (std::size_t a = 0; a < sensors_.size(); ++a) {
        for (std::size_t b = a + 1; b < sensors_.size(); ++b) {
          const double reach =
              std::min(sensors_[a].comm_radius, sensors_[b].comm_radius);
          if (sensors_[a].position.distance2_to(sensors_[b].position) <=
              reach * reach) {
            lists[a].push_back(b);
            lists[b].push_back(a);
          }
        }
      }
      neighbors_->ready.store(true, std::memory_order_release);
    });
  }
  return neighbors_->by_sensor[sensor];
}

std::vector<geom::Disk> Network::sensing_disks() const {
  std::vector<geom::Disk> disks;
  disks.reserve(sensors_.size());
  for (const auto& s : sensors_) disks.emplace_back(s.position, s.sensing_radius);
  return disks;
}

Network make_random_network(const NetworkConfig& config, util::Rng& rng) {
  if (config.sensor_count == 0)
    throw std::invalid_argument("make_random_network: no sensors");
  const auto region = geom::Rect::square(config.region_side);

  std::vector<geom::Vec2> positions;
  switch (config.layout) {
    case NetworkConfig::Layout::kUniform:
      positions = geom::uniform_points(region, config.sensor_count, rng);
      break;
    case NetworkConfig::Layout::kGrid:
      positions = geom::grid_points(region, config.sensor_count, 0.2, rng);
      break;
    case NetworkConfig::Layout::kClustered:
      positions = geom::clustered_points(region, config.sensor_count,
                                         config.clusters, config.cluster_spread, rng);
      break;
  }

  const auto target_positions =
      geom::uniform_points(region, config.target_count, rng);

  if (config.ensure_coverage) {
    // Pull the nearest not-yet-relocated sensor onto any uncovered target.
    // Relocated sensors are pinned so a later target cannot steal a sensor
    // that was just moved to cover an earlier one.
    std::vector<std::uint8_t> pinned(positions.size(), 0);
    // A relocation can strip a target that was covered natively, so sweep
    // until quiescent (bounded by the sensor count: each pass pins one).
    bool moved = true;
    while (moved) {
      moved = false;
      for (const auto& tp : target_positions) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t nearest = positions.size();
        bool covered = false;
        for (std::size_t s = 0; s < positions.size(); ++s) {
          const double d2 = positions[s].distance2_to(tp);
          if (d2 <= config.sensing_radius * config.sensing_radius) {
            covered = true;
            break;
          }
          if (!pinned[s] && d2 < best) {
            best = d2;
            nearest = s;
          }
        }
        if (!covered && nearest < positions.size()) {
          positions[nearest] = tp;
          pinned[nearest] = 1;
          moved = true;
        }
      }
    }
  }

  std::vector<Sensor> sensors;
  sensors.reserve(config.sensor_count);
  for (std::size_t i = 0; i < config.sensor_count; ++i)
    sensors.push_back(Sensor{i, positions[i], config.sensing_radius,
                             config.comm_radius});

  std::vector<Target> targets;
  targets.reserve(config.target_count);
  for (std::size_t i = 0; i < config.target_count; ++i)
    targets.push_back(Target{i, target_positions[i], 1.0});

  return Network(std::move(sensors), std::move(targets), region);
}

}  // namespace cool::net
