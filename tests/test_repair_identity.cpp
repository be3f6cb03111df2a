// Differential suite for core::repair_schedule. The repair loop asks the
// oracle for a MoveScorer; the detection oracle refreshes only what a move
// can change (sensors sharing a target with the mover), every other oracle
// rebuilds the touched slots. Both must reproduce the original rebuild
// loop, kept below verbatim as reference_repair(), bit for bit: schedule,
// move count and the bits of utility_before / utility_after. That is what
// lets a coold WAL holding repair entries replay unchanged.
//
// Instances cover the service shapes (svc::make_problem), 1 / 8 / n/5 dead
// sensors, the incremental and the full local search, both marginal
// kernels, non-uniform probabilities and weights with duplicate detector
// entries, multi-slot (rho <= 1) and unplaced sensors, and MaskedUtility.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "core/repair.h"
#include "submodular/detection.h"
#include "submodular/kernel.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "util/rng.h"

namespace cool::core {
namespace {

// The repair loop as it was before MoveScorer: every round rebuilds a fresh
// state for each dirty slot and, for every movable member of a dirty slot,
// a fresh state over the rest of its slot.
RepairResult reference_repair(const PeriodicSchedule& schedule,
                              const sub::SubmodularFunction& utility,
                              const std::vector<std::uint8_t>& dead,
                              const RepairConfig& config = {}) {
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  const std::size_t n = schedule.sensor_count();
  const std::size_t T = schedule.slots_per_period();

  RepairResult result{PeriodicSchedule(n, T)};

  // Clear dead rows; mark the slots they vacated as affected.
  std::vector<std::uint8_t> affected(T, 0);
  std::vector<std::size_t> home(n, kNoSlot);
  std::vector<std::uint8_t> movable(n, 0);
  std::vector<std::vector<std::size_t>> slot_sets(T);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t count = 0;
    for (std::size_t t = 0; t < T; ++t) {
      if (!schedule.active(v, t)) continue;
      if (dead[v]) {
        affected[t] = 1;
        continue;
      }
      result.schedule.set_active(v, t);
      slot_sets[t].push_back(v);
      home[v] = t;
      ++count;
    }
    // Only single-slot (ρ > 1 shape) or unplaced survivors may be moved.
    movable[v] = !dead[v] && count <= 1;
    if (count > 1) home[v] = kNoSlot;  // multi-slot: fixed in place
  }

  result.utility_before = surviving_period_utility(result.schedule, utility, dead);

  const std::size_t max_moves =
      config.max_moves > 0 ? config.max_moves : 4 * n;
  // Incremental caches: a move only changes two slot sets, so losses and
  // gains tied to the untouched slots stay exact between rounds. `dirty`
  // marks the slots whose cached numbers must be refreshed.
  std::vector<std::unique_ptr<sub::EvalState>> states(T);
  std::vector<double> loss(n, 0.0);
  std::vector<std::vector<double>> gain(n, std::vector<double>(T, 0.0));
  std::vector<std::uint8_t> dirty(T, 1);
  while (result.moves < max_moves) {
    for (std::size_t t = 0; t < T; ++t) {
      if (!dirty[t]) continue;
      states[t] = utility.make_state();
      for (const auto u : slot_sets[t]) states[t]->add(u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (!movable[v]) continue;
      // Cost of vacating v's current slot: its marginal on the rest of the
      // slot's active set (exactly U(A) − U(A \ {v})).
      if (home[v] != kNoSlot && dirty[home[v]]) {
        const auto rest = utility.make_state();
        for (const auto u : slot_sets[home[v]])
          if (u != v) rest->add(u);
        loss[v] = rest->marginal(v);
        ++result.oracle_calls;
      }
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v] || !dirty[t]) continue;
        if (config.restrict_to_affected && !affected[t]) continue;
        gain[v][t] = states[t]->marginal(v);
        ++result.oracle_calls;
      }
    }
    std::fill(dirty.begin(), dirty.end(), static_cast<std::uint8_t>(0));

    double best_delta = config.min_gain;
    std::size_t best_v = n, best_to = T;
    for (std::size_t v = 0; v < n; ++v) {
      if (!movable[v]) continue;
      const double vacate = home[v] != kNoSlot ? loss[v] : 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v]) continue;
        if (config.restrict_to_affected && !affected[t]) continue;
        const double delta = gain[v][t] - vacate;
        if (delta > best_delta) {
          best_delta = delta;
          best_v = v;
          best_to = t;
        }
      }
    }
    if (best_v == n) break;

    if (home[best_v] != kNoSlot) {
      const std::size_t from = home[best_v];
      result.schedule.set_active(best_v, from, false);
      auto& from_set = slot_sets[from];
      from_set.erase(std::find(from_set.begin(), from_set.end(), best_v));
      affected[from] = 1;  // the vacated slot may now need patching too
      dirty[from] = 1;
    }
    result.schedule.set_active(best_v, best_to);
    slot_sets[best_to].push_back(best_v);
    home[best_v] = best_to;
    dirty[best_to] = 1;
    ++result.moves;
  }

  result.utility_after = surviving_period_utility(result.schedule, utility, dead);
  return result;
}

class RepairIdentity : public ::testing::Test {
 protected:
  void TearDown() override { sub::set_marginal_kernel(saved_kernel_); }

 private:
  sub::MarginalKernel saved_kernel_ = sub::marginal_kernel();
};

svc::NetworkSpec spec(std::size_t sensors, std::size_t targets, double radius,
                      double side = 100.0, std::uint64_t seed = 1) {
  svc::NetworkSpec s;
  s.sensors = sensors;
  s.targets = targets;
  s.sensing_radius = radius;
  s.region_side = side;
  s.seed = seed;
  return s;
}

std::vector<std::uint8_t> random_dead(std::size_t n, std::size_t count,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> dead(n, 0);
  util::Rng rng(seed);
  std::size_t killed = 0;
  while (killed < count) {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (!dead[v]) {
      dead[v] = 1;
      ++killed;
    }
  }
  return dead;
}

void expect_identical(const RepairResult& reference, const RepairResult& run,
                      const std::string& what) {
  EXPECT_TRUE(run.schedule == reference.schedule) << what;
  EXPECT_EQ(run.moves, reference.moves) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(run.utility_before),
            std::bit_cast<std::uint64_t>(reference.utility_before))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(run.utility_after),
            std::bit_cast<std::uint64_t>(reference.utility_after))
      << what;
}

// Repairs `schedule` for every dead count and both search modes; returns
// the total number of moves made, so callers can insist on real searches.
std::size_t check_repairs(const PeriodicSchedule& schedule,
                   const sub::SubmodularFunction& utility,
                   const std::vector<std::size_t>& dead_counts,
                   std::uint64_t seed, const std::string& what) {
  const std::size_t n = schedule.sensor_count();
  std::size_t moves = 0;
  for (const std::size_t count : dead_counts) {
    const auto dead = random_dead(n, count, seed + count);
    for (const bool restrict : {true, false}) {
      RepairConfig config;
      config.restrict_to_affected = restrict;
      const std::string label = what + " dead=" + std::to_string(count) +
                                (restrict ? " restricted" : " full");
      const auto reference = reference_repair(schedule, utility, dead, config);
      const auto run = repair_schedule(schedule, utility, dead, config);
      expect_identical(reference, run, label);
      moves += run.moves;
    }
  }
  return moves;
}

TEST_F(RepairIdentity, ServiceShapesMatchTheReferenceLoop) {
  struct Shape {
    const char* name;
    svc::NetworkSpec spec;
  };
  const Shape shapes[] = {
      {"n30/50/r15", spec(30, 50, 15.0)},
      {"n200/40/r40@100m", spec(200, 40, 40.0)},
      {"n200/40/r40@140m", spec(200, 40, 40.0, 140.0)},
      {"n800/800/r6", spec(800, 800, 6.0)},
      {"n800/4/r200", spec(800, 4, 200.0)},
      // Unsaturated all-overlap: every move reshuffles whole slots.
      {"n40/4/r200", spec(40, 4, 200.0)},
  };
  for (const auto kernel :
       {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
    sub::set_marginal_kernel(kernel);
    const std::string name =
        kernel == sub::MarginalKernel::kAuto ? "kAuto " : "kScalar ";
    for (const auto& shape : shapes) {
      const Problem problem = svc::make_problem(shape.spec);
      const auto schedule = LazyGreedyScheduler().schedule(problem).schedule;
      const std::size_t n = shape.spec.sensors;
      const std::size_t moves =
          check_repairs(schedule, problem.slot_utility(), {1, 8, n / 5}, 11,
                        name + shape.name);
      // The saturated shapes (n30 with sparse rows, n800 all-overlap) have
      // no improving move; every other shape must exercise the refresh.
      if (n == 200 || shape.spec.targets == 800 || n == 40) {
        EXPECT_GT(moves, 0u) << name << shape.name;
      }
    }
  }
}

// Non-uniform probabilities and weights, some sensors listed twice for one
// target, and a schedule where sensors sit in zero, one or several slots.
TEST_F(RepairIdentity, MultiSlotAndNonUniformInstancesMatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 60, m = 25, T = 4;
    std::vector<sub::MultiTargetDetectionUtility::Target> targets(m);
    for (auto& target : targets) {
      target.weight = rng.uniform(0.2, 3.0);
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.uniform(0.0, 1.0) >= 0.25) continue;
        target.detectors.emplace_back(v, rng.uniform(0.05, 0.95));
        if (rng.uniform(0.0, 1.0) < 0.05)  // a second reading of the pair
          target.detectors.emplace_back(v, rng.uniform(0.05, 0.95));
      }
    }
    const sub::MultiTargetDetectionUtility utility(n, std::move(targets));
    PeriodicSchedule schedule(n, T);
    for (std::size_t v = 0; v < n; ++v) {
      const double draw = rng.uniform(0.0, 1.0);
      if (draw < 0.1) continue;  // unplaced
      const std::size_t slots = draw < 0.75 ? 1 : 2 + v % 2;
      for (std::size_t k = 0; k < slots; ++k)
        schedule.set_active(
            v, static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(T) - 1)));
    }
    for (const auto kernel :
         {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
      sub::set_marginal_kernel(kernel);
      EXPECT_GT(check_repairs(schedule, utility, {1, 8, n / 5}, seed,
                              "seed " + std::to_string(seed)),
                0u);
    }
  }
}

TEST_F(RepairIdentity, MaskedUtilityKeepsTheRebuildLoop) {
  const Problem problem = svc::make_problem(spec(200, 40, 40.0, 140.0, 9));
  const auto schedule = LazyGreedyScheduler().schedule(problem).schedule;
  const MaskedUtility masked(problem.slot_utility_ptr(), random_dead(200, 12, 9));
  const auto dead = random_dead(200, 8, 10);
  for (const bool restrict : {true, false}) {
    RepairConfig config;
    config.restrict_to_affected = restrict;
    const auto reference = reference_repair(schedule, masked, dead, config);
    const auto run = repair_schedule(schedule, masked, dead, config);
    expect_identical(reference, run, restrict ? "restricted" : "full");
    // The default scorer is the reference loop, call for call.
    EXPECT_EQ(run.oracle_calls, reference.oracle_calls);
  }
}

// The MoveScorer contract entry by entry: after arbitrary (not only
// improving) moves, every loss and gain the search may read equals, to the
// bit, marginal() on a fresh state built by add()ing the slot's other
// members in slot order. Non-uniform probabilities make the fold order
// visible in the bits.
TEST_F(RepairIdentity, ScorerTablesMatchFreshStatesAfterEveryMove) {
  constexpr std::size_t kNoSlot = sub::SlotPartition::kNoSlot;
  for (const auto kernel :
       {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
    sub::set_marginal_kernel(kernel);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(seed * 7);
      const std::size_t n = 50, m = 12, T = 5;
      std::vector<sub::MultiTargetDetectionUtility::Target> targets(m);
      for (auto& target : targets) {
        target.weight = rng.uniform(0.5, 2.0);
        for (std::size_t v = 0; v < n; ++v) {
          if (rng.uniform(0.0, 1.0) >= 0.5) continue;
          target.detectors.emplace_back(v, rng.uniform(0.01, 0.99));
          if (rng.uniform(0.0, 1.0) < 0.05)
            target.detectors.emplace_back(v, rng.uniform(0.01, 0.99));
        }
      }
      const sub::MultiTargetDetectionUtility utility(n, std::move(targets));

      std::vector<std::vector<std::size_t>> members(T);
      std::vector<std::size_t> home(n, kNoSlot);
      std::vector<std::uint8_t> movable(n, 1);
      for (std::size_t v = 0; v < n; ++v) {
        const double draw = rng.uniform(0.0, 1.0);
        if (draw < 0.1) continue;  // unplaced
        if (draw < 0.2) {          // fixed in two slots
          movable[v] = 0;
          members[v % T].push_back(v);
          members[(v + 2) % T].push_back(v);
          continue;
        }
        home[v] = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(T) - 1));
        members[home[v]].push_back(v);
      }
      for (auto& list : members) std::sort(list.begin(), list.end());
      std::vector<std::uint8_t> scored(T, 0);
      scored[0] = scored[3] = 1;
      std::vector<double> loss(n, 0.0), gain(n * T, 0.0);
      sub::SlotPartition partition;
      partition.slot_count = T;
      partition.members = &members;
      partition.home = &home;
      partition.movable = &movable;
      partition.scored = &scored;
      partition.loss = &loss;
      partition.gain = &gain;
      const auto scorer = utility.make_move_scorer(partition);

      const auto check = [&](const std::string& when) {
        for (std::size_t v = 0; v < n; ++v) {
          if (!movable[v]) continue;
          if (home[v] != kNoSlot) {
            const auto rest = utility.make_state();
            for (const auto u : members[home[v]])
              if (u != v) rest->add(u);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(loss[v]),
                      std::bit_cast<std::uint64_t>(rest->marginal(v)))
                << when << " loss of " << v;
          }
          for (std::size_t s = 0; s < T; ++s) {
            if (s == home[v] || !scored[s]) continue;
            const auto state = utility.make_state();
            for (const auto u : members[s]) state->add(u);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(gain[v * T + s]),
                      std::bit_cast<std::uint64_t>(state->marginal(v)))
                << when << " gain of " << v << " into " << s;
          }
        }
      };
      scorer->score_all();
      check("initial");
      for (std::size_t move = 0; move < 120; ++move) {
        std::size_t x = 0;
        do {
          x = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        } while (!movable[x]);
        const std::size_t from = home[x];
        std::size_t to = from;
        while (to == from)
          to = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(T) - 1));
        if (from != kNoSlot) {
          auto& set = members[from];
          set.erase(std::find(set.begin(), set.end(), x));
          scored[from] = 1;
        }
        members[to].push_back(x);
        home[x] = to;
        scorer->moved(x, from, to);
        check("move " + std::to_string(move));
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Deterministic cost guard for the large-closed tenant shape: the
// move-local refresh must stay well under the rebuild loop's oracle calls.
TEST_F(RepairIdentity, MoveLocalRefreshCutsOracleCalls) {
  const Problem problem = svc::make_problem(spec(800, 800, 6.0));
  const auto schedule = LazyGreedyScheduler().schedule(problem).schedule;
  const auto dead = random_dead(800, 8, 2);
  const auto reference =
      reference_repair(schedule, problem.slot_utility(), dead);
  const auto run = repair_schedule(schedule, problem.slot_utility(), dead);
  expect_identical(reference, run, "n800/800/r6");
  ASSERT_GT(run.moves, 0u);
  EXPECT_LE(run.oracle_calls * 100, reference.oracle_calls * 15)
      << run.oracle_calls << " vs reference " << reference.oracle_calls;
}

}  // namespace
}  // namespace cool::core
