#include "core/lp_scheduler.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/evaluator.h"
#include "lp/simplex.h"
#include "util/parallel.h"

namespace cool::core {

LpScheduler::LpScheduler(LpScheduleOptions options) : options_(options) {
  if (options_.rounding_rounds == 0)
    throw std::invalid_argument("LpScheduler: need at least one rounding round");
  if (options_.max_cuts_per_target < 2)
    throw std::invalid_argument("LpScheduler: need at least two cuts");
}

namespace {

// Geometrically thinned integer cut points over [0, degree]: always includes
// 0..min(8, degree) and degree, doubling in between.
std::vector<std::size_t> cut_points(std::size_t degree, std::size_t max_cuts) {
  std::vector<std::size_t> points;
  for (std::size_t k = 0; k <= degree && points.size() + 1 < max_cuts; ++k) {
    points.push_back(k);
    if (k >= 8) break;
  }
  std::size_t k = points.empty() ? 1 : points.back() * 2;
  while (k < degree && points.size() + 1 < max_cuts) {
    points.push_back(k);
    k *= 2;
  }
  if (points.empty() || points.back() != degree) points.push_back(degree);
  return points;
}

double uniform_target_probability(
    const sub::MultiTargetDetectionUtility::Target& target) {
  if (target.detectors.empty()) return 0.0;
  const double p = target.detectors.front().second;
  for (const auto& [_, q] : target.detectors) {
    if (std::abs(q - p) > 1e-12)
      throw std::invalid_argument(
          "LpScheduler: target has non-uniform detection probabilities");
  }
  return p;
}

}  // namespace

LpScheduleResult LpScheduler::schedule(
    const Problem& problem, const sub::MultiTargetDetectionUtility& utility,
    util::Rng& rng) const {
  if (&problem.slot_utility() != static_cast<const sub::SubmodularFunction*>(&utility))
    throw std::invalid_argument(
        "LpScheduler: utility must be the problem's slot utility");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();
  const std::size_t m = utility.target_count();
  const bool rho_gt_one = problem.rho_greater_than_one();

  // ---- Build the LP over one period. ----
  lp::Model model;
  // x[v][t] layout: v*T + t.
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t t = 0; t < T; ++t) model.add_variable(0.0, 1.0);
  // u[j][t] layout: n*T + j*T + t.
  const std::size_t u_base = n * T;
  std::vector<double> u_cap(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const auto& target = utility.targets()[j];
    const double p = uniform_target_probability(target);
    const double d = static_cast<double>(target.detectors.size());
    u_cap[j] = target.weight * (1.0 - std::pow(1.0 - p, d));
    for (std::size_t t = 0; t < T; ++t) model.add_variable(1.0, u_cap[j]);
  }

  // Per-sensor activation budget within the period.
  const double budget = rho_gt_one ? 1.0 : static_cast<double>(T - 1);
  for (std::size_t v = 0; v < n; ++v) {
    lp::Row row;
    row.sense = lp::Sense::kLessEqual;
    row.rhs = budget;
    for (std::size_t t = 0; t < T; ++t)
      row.entries.push_back({v * T + t, 1.0});
    model.add_row(std::move(row));
  }

  // Tangent cuts: u_{j,t} <= f(k0) + Δf(k0)·(y_{j,t} − k0), where
  // y_{j,t} = Σ_{v covers j} x[v][t] and Δf(k0) = f(k0+1) − f(k0).
  for (std::size_t j = 0; j < m; ++j) {
    const auto& target = utility.targets()[j];
    if (target.detectors.empty()) continue;
    const double p = uniform_target_probability(target);
    const double w = target.weight;
    const auto f = [&](std::size_t k) {
      return w * (1.0 - std::pow(1.0 - p, static_cast<double>(k)));
    };
    const std::size_t degree = target.detectors.size();
    for (const std::size_t k0 : cut_points(degree, options_.max_cuts_per_target)) {
      if (k0 >= degree) continue;  // the u-variable cap covers k0 = degree
      const double slope = f(k0 + 1) - f(k0);
      const double intercept = f(k0) - slope * static_cast<double>(k0);
      for (std::size_t t = 0; t < T; ++t) {
        lp::Row row;  // u − slope·y <= intercept
        row.sense = lp::Sense::kLessEqual;
        row.rhs = intercept;
        row.entries.push_back({u_base + j * T + t, 1.0});
        for (const auto& [v, _] : target.detectors)
          row.entries.push_back({v * T + t, -slope});
        model.add_row(std::move(row));
      }
    }
  }

  const lp::Solution solution = lp::solve(model, options_.simplex);

  LpScheduleResult result{PeriodicSchedule(n, T), 0.0, 0.0, solution.status, 0};
  if (solution.status != lp::SolveStatus::kOptimal) return result;
  result.lp_objective_per_period = solution.objective;

  // ---- Randomized rounding with best-of-R selection. ----
  // Each round draws from its own forked RNG stream (child `round` of the
  // caller's generator), so rounds are independent of each other and of
  // the execution order: the R candidates are identical whether the rounds
  // run serially or fanned out across the pool. The caller's rng is not
  // advanced. Best-of combine walks the rounds in index order with a
  // strict >, so the first round attaining the maximum wins — the same
  // candidate the serial loop kept.
  const std::size_t rounds = options_.rounding_rounds;
  std::vector<PeriodicSchedule> candidates(rounds, PeriodicSchedule(n, T));
  std::vector<double> round_value(rounds, -1.0);
  util::parallel_chunks(rounds, [&](std::size_t round) {
    util::Rng round_rng = rng.fork(round);
    PeriodicSchedule& candidate = candidates[round];
    std::vector<double> weights(T, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      double total = 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        const double xv = std::max(0.0, solution.x[v * T + t]);
        weights[t] = rho_gt_one ? xv : std::max(0.0, 1.0 - xv);
        total += weights[t];
      }
      std::size_t chosen;
      if (total <= 1e-12) {
        // No mass (degenerate LP row): any slot is as good; spread evenly.
        chosen = static_cast<std::size_t>(
            round_rng.uniform_int(0, static_cast<std::int64_t>(T) - 1));
      } else {
        chosen = round_rng.weighted_index(weights);
      }
      if (rho_gt_one) {
        candidate.set_active(v, chosen);
      } else {
        for (std::size_t t = 0; t < T; ++t)
          if (t != chosen) candidate.set_active(v, t);
      }
    }
    const Evaluation eval = evaluate(problem, candidate);
    round_value[round] =
        eval.total_utility / static_cast<double>(problem.periods());
  });
  result.rounds_drawn = rounds;
  double best_value = -1.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round_value[round] > best_value) {
      best_value = round_value[round];
      result.schedule = candidates[round];
    }
  }
  result.rounded_utility_per_period = best_value;
  return result;
}

}  // namespace cool::core
