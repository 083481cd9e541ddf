// Tests for the migration extension (the paper's future-work direction):
// Hungarian assignment, minimum-migration alignment, replanning.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "astar/search.hpp"
#include "baseline/random_schedule.hpp"
#include "cache/machine_config.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "vm/hungarian.hpp"
#include "vm/migration.hpp"

namespace cosched {
namespace {

using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

// -------------------------------------------------------------- Hungarian

Real assignment_cost(const std::vector<std::vector<Real>>& cost,
                     const std::vector<std::int32_t>& a) {
  Real total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    total += cost[i][static_cast<std::size_t>(a[i])];
  return total;
}

TEST(Hungarian, SolvesHandComputedInstance) {
  // Classic 3x3: optimum assigns 0->1, 1->0, 2->2 with cost 1+2+3 = 6.
  std::vector<std::vector<Real>> cost{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  auto a = solve_assignment_min(cost);
  EXPECT_NEAR(assignment_cost(cost, a), 5.0, 1e-12);  // 1 + 2 + 2
}

TEST(Hungarian, AssignmentIsAPermutation) {
  Rng rng(17);
  std::vector<std::vector<Real>> cost(6, std::vector<Real>(6));
  for (auto& row : cost)
    for (auto& c : row) c = rng.uniform_real(0.0, 10.0);
  auto a = solve_assignment_min(cost);
  std::vector<std::int32_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::int32_t j = 0; j < 6; ++j) EXPECT_EQ(sorted[j], j);
}

TEST(Hungarian, MatchesBruteForceOnRandomMatrices) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(4);  // 2..5
    std::vector<std::vector<Real>> cost(n, std::vector<Real>(n));
    for (auto& row : cost)
      for (auto& c : row) c = rng.uniform_real(-5.0, 5.0);
    auto a = solve_assignment_min(cost);
    // Brute force over permutations.
    std::vector<std::int32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    Real best = kInfinity;
    do {
      best = std::min(best, assignment_cost(cost, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(assignment_cost(cost, a), best, 1e-9) << "trial " << trial;
  }
}

TEST(Hungarian, MaxVariantMaximizes) {
  std::vector<std::vector<Real>> weight{{1, 9}, {8, 2}};
  auto a = solve_assignment_max(weight);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);
}

// -------------------------------------------------------- min migrations

TEST(Migration, IdenticalPlacementNeedsNoMoves) {
  Solution s;
  s.machines = {{0, 1}, {2, 3}, {4, 5}};
  EXPECT_EQ(min_migrations(s, s), 0);
}

TEST(Migration, MachineRelabelingIsFree) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1}, {2, 3}, {4, 5}};
  fresh.machines = {{4, 5}, {0, 1}, {2, 3}};  // same groups, shuffled
  EXPECT_EQ(min_migrations(old_p, fresh), 0);
  Solution aligned = align_to_placement(old_p, fresh);
  EXPECT_EQ(aligned.machines, old_p.machines);
}

TEST(Migration, SingleSwapCostsTwoMoves) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1}, {2, 3}};
  fresh.machines = {{0, 3}, {2, 1}};
  EXPECT_EQ(min_migrations(old_p, fresh), 2);
}

TEST(Migration, AlignmentPicksMaxOverlap) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  fresh.machines = {{4, 5, 6, 0}, {1, 2, 3, 7}};
  // Group {1,2,3,7} overlaps old machine 0 by 3; {4,5,6,0} overlaps old
  // machine 1 by 3 -> 2 moves (0 and 7 swap homes).
  EXPECT_EQ(min_migrations(old_p, fresh), 2);
  Solution aligned = align_to_placement(old_p, fresh);
  EXPECT_EQ(aligned.machines[0], (std::vector<ProcessId>{1, 2, 3, 7}));
  EXPECT_EQ(aligned.machines[1], (std::vector<ProcessId>{0, 4, 5, 6}));
}

// ---------------------------------------------------- weighted migrations

TEST(WeightedMigration, AllOnesMatchesUnweightedCount) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  fresh.machines = {{4, 5, 6, 0}, {1, 2, 3, 7}};
  std::vector<Real> ones(8, 1.0);
  EXPECT_NEAR(weighted_migrations(old_p, fresh, ones),
              static_cast<Real>(min_migrations(old_p, fresh)), 1e-12);
}

TEST(WeightedMigration, ZeroWeightProcessesMoveFree) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1}, {2, 3}};
  fresh.machines = {{0, 3}, {2, 1}};  // swaps 1 and 3
  std::vector<Real> w{1.0, 0.0, 1.0, 0.0};
  // Only processes 1 and 3 move, and both are free.
  EXPECT_NEAR(weighted_migrations(old_p, fresh, w), 0.0, 1e-12);
  EXPECT_EQ(min_migrations(old_p, fresh), 2);
}

TEST(WeightedMigration, AlignmentFollowsTheWeightedOverlap) {
  Solution old_p, fresh;
  old_p.machines = {{0, 1}, {2, 3}};
  // Each fresh group has one process from each old machine: the unweighted
  // overlap is a tie, so the weights decide which group inherits which
  // machine identity.
  fresh.machines = {{1, 2}, {0, 3}};
  std::vector<Real> w{0.0, 0.0, 5.0, 0.0};
  Solution aligned = align_to_placement(old_p, fresh, w);
  // Process 2 (the only weighty one) must stay on old machine 1.
  EXPECT_EQ(aligned.machines[1], (std::vector<ProcessId>{1, 2}));
  EXPECT_EQ(aligned.machines[0], (std::vector<ProcessId>{0, 3}));
}

TEST(WeightedMigration, ReplanChargesOnlyWeightedMoves) {
  Problem p = random_serial_problem(12, 4, 71);
  Rng rng(9);
  Solution current = solve_random(p, rng);
  ReplanOptions opt;
  opt.migration_cost = 0.1;
  // Half the processes relocate free, as a replan treats newly admitted
  // jobs in the online service.
  opt.move_weight.assign(static_cast<std::size_t>(p.n()), 1.0);
  for (std::int32_t i = 0; i < p.n(); i += 2)
    opt.move_weight[static_cast<std::size_t>(i)] = 0.0;
  auto r = replan_with_migrations(p, current, opt);
  validate_solution(p, r.placement);
  EXPECT_NEAR(r.combined, r.degradation + r.migration_charge, 1e-12);
  // The charge counts only weight-1 movers; `migrations` counts the same
  // processes, so charge = cost * migrations here.
  EXPECT_NEAR(r.migration_charge, opt.migration_cost * r.migrations, 1e-9);
  Real stay = evaluate_solution(p, current).total;
  EXPECT_LE(r.combined, stay + 1e-9);
}

TEST(WeightedMigration, PrecomputedFreshCandidateIsUsed) {
  Problem p = random_serial_problem(12, 4, 72);
  Rng rng(11);
  Solution current = solve_random(p, rng);
  auto ha = solve_hastar(p);
  ASSERT_TRUE(ha.found);
  ReplanOptions opt;
  opt.migration_cost = 0.0;
  opt.max_passes = 0;  // no local search: the fresh candidate must carry
  auto with_fresh = replan_with_migrations(p, current, &ha.solution, opt);
  Real ha_obj = evaluate_solution(p, ha.solution).total;
  EXPECT_NEAR(with_fresh.degradation, ha_obj, 1e-9);
  // Without a candidate and without passes, the best available is staying.
  auto without = replan_with_migrations(p, current, nullptr, opt);
  EXPECT_NEAR(without.degradation, evaluate_solution(p, current).total, 1e-9);
  EXPECT_EQ(without.migrations, 0);
}

// --------------------------------------------------------------- replan

TEST(Replan, HugeMigrationCostPinsThePlacement) {
  Problem p = random_serial_problem(12, 4, 61);
  Rng rng(4);
  Solution current = solve_random(p, rng);
  ReplanOptions opt;
  opt.migration_cost = 1e6;
  auto r = replan_with_migrations(p, current, opt);
  EXPECT_EQ(r.migrations, 0);
  validate_solution(p, r.placement);
  EXPECT_NEAR(r.degradation, evaluate_solution(p, current).total, 1e-9);
}

TEST(Replan, ZeroMigrationCostReachesSchedulerQuality) {
  Problem p = random_serial_problem(16, 4, 62);
  Rng rng(5);
  Solution current = solve_random(p, rng);
  ReplanOptions opt;
  opt.migration_cost = 0.0;
  auto r = replan_with_migrations(p, current, opt);
  validate_solution(p, r.placement);
  auto ha = solve_hastar(p);
  ASSERT_TRUE(ha.found);
  Real ha_obj = evaluate_solution(p, ha.solution).total;
  EXPECT_LE(r.degradation, ha_obj + 1e-9);  // at least as good as fresh HA*
}

TEST(Replan, NeverWorseThanStaying) {
  for (std::uint64_t seed : {63u, 64u, 65u}) {
    Problem p = random_serial_problem(12, 4, seed);
    Rng rng(seed);
    Solution current = solve_random(p, rng);
    Real stay = evaluate_solution(p, current).total;
    ReplanOptions opt;
    opt.migration_cost = 0.02;
    auto r = replan_with_migrations(p, current, opt);
    validate_solution(p, r.placement);
    EXPECT_LE(r.combined, stay + 1e-9) << "seed " << seed;
    EXPECT_NEAR(r.combined,
                r.degradation + opt.migration_cost * r.migrations, 1e-12);
  }
}

TEST(Replan, MigrationCountShrinksAsCostGrows) {
  Problem p = random_serial_problem(16, 4, 66);
  Rng rng(7);
  Solution current = solve_random(p, rng);
  std::int32_t prev_migrations = p.n() + 1;
  Real prev_degradation = -1.0;
  for (Real cost : {0.0, 0.02, 0.2, 5.0}) {
    ReplanOptions opt;
    opt.migration_cost = cost;
    auto r = replan_with_migrations(p, current, opt);
    // Monotone trade-off: pricier moves -> fewer (or equal) migrations and
    // no better degradation.
    EXPECT_LE(r.migrations, prev_migrations) << "cost " << cost;
    if (prev_degradation >= 0.0) {
      EXPECT_GE(r.degradation + 1e-9, prev_degradation) << "cost " << cost;
    }
    prev_migrations = r.migrations;
    prev_degradation = r.degradation;
  }
}

// Positional moved weight: processes off their old machine index.
Real positional_moved_weight(const Solution& old_placement,
                             const Solution& placement,
                             std::span<const Real> weights) {
  Real moved = 0.0;
  for (std::size_t a = 0; a < placement.machines.size(); ++a)
    for (ProcessId p : placement.machines[a])
      if (old_placement.machine_of(p) != static_cast<std::int32_t>(a))
        moved += weights.empty() ? 1.0 : weights[static_cast<std::size_t>(p)];
  return moved;
}

// The bug this pins: the swap search leaves machine labels wherever its
// swaps put them, while its charge is that of the best relabeling. The
// committed placement must be aligned, so that what moves by position is
// exactly what the result charges and counts.
TEST(Replan, CommittedPlacementIsAlignedToCurrent) {
  for (std::uint64_t seed = 80; seed < 90; ++seed) {
    Problem p = random_pe_problem(9, {3, 2}, 4, seed);
    Rng rng(seed);
    Solution current = solve_random(p, rng);
    ReplanOptions opt;
    opt.migration_cost = 0.03;
    opt.move_weight.assign(static_cast<std::size_t>(p.n()), 1.0);
    for (std::int32_t i = 0; i < p.n(); i += 3)
      opt.move_weight[static_cast<std::size_t>(i)] = 0.0;
    for (bool with_fresh : {false, true}) {
      ReplanResult r = with_fresh ? replan_with_migrations(p, current, opt)
                                  : replan_with_migrations(p, current,
                                                           nullptr, opt);
      validate_solution(p, r.placement);
      EXPECT_NEAR(positional_moved_weight(current, r.placement,
                                          opt.move_weight),
                  r.migration_charge / opt.migration_cost, 1e-9)
          << "seed " << seed << " fresh " << with_fresh;
      // Weights are 0/1, so the count is the moved weight too.
      EXPECT_NEAR(r.migration_charge, opt.migration_cost * r.migrations,
                  1e-12);
      EXPECT_NEAR(r.degradation, evaluate_solution(p, r.placement).total,
                  1e-12);
    }
  }
}

// ------------------------------------------------------------ SwapEngine

/// d(i, S) = a_i * Σ_{c in S} b_c on integers: exact ties by construction.
class LinearPressureModel final : public DegradationModel {
 public:
  LinearPressureModel(std::vector<Real> a, std::vector<Real> b)
      : a_(std::move(a)), b_(std::move(b)) {}
  Real degradation(ProcessId i, std::span<const ProcessId> co) const override {
    Real pressure = 0.0;
    for (ProcessId c : co) pressure += b_[static_cast<std::size_t>(c)];
    return a_[static_cast<std::size_t>(i)] * pressure;
  }

 private:
  std::vector<Real> a_, b_;
};

void expect_tracks_full_evaluation(const Problem& p, const SwapEngine& engine,
                                   const Solution& reference, Real cost,
                                   std::span<const Real> weights,
                                   const std::string& where) {
  validate_solution(p, engine.placement());
  EXPECT_NEAR(engine.degradation(),
              evaluate_solution(p, engine.placement()).total, 1e-9)
      << where;
  EXPECT_NEAR(engine.migration_charge(),
              cost * weighted_migrations(reference, engine.placement(),
                                         weights),
              1e-9)
      << where;
}

// Serial jobs, PE jobs and idle padding under random swap sequences: after
// every swap the delta-tracked objective equals a full re-evaluation.
TEST(SwapEngine, TrackedObjectiveMatchesFullEvaluation) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // 7 + 3 + 2 + 4 = 16 processes on u = 4 (no padding) or 5 + 3 + 2 = 10
    // padded to 12 (two idle slots), alternating.
    Problem p = seed % 2 ? random_pe_problem(7, {3, 2, 4}, 4, seed)
                         : random_pe_problem(5, {3, 2}, 4, seed);
    Rng rng(seed * 7 + 1);
    Solution reference = solve_random(p, rng);
    Solution start = solve_random(p, rng);
    std::vector<Real> weights(static_cast<std::size_t>(p.n()));
    for (Real& w : weights) w = static_cast<Real>(rng.uniform(3));  // 0..2
    const Real cost = seed % 3 == 0 ? 0.0 : 0.04;
    SwapEngine engine(p, reference, start, cost, weights);
    expect_tracks_full_evaluation(p, engine, reference, cost, weights,
                                  "start seed " + std::to_string(seed));
    const std::size_t m = start.machines.size();
    const std::size_t u = static_cast<std::size_t>(p.u());
    for (int step = 0; step < 40; ++step) {
      std::size_t a = rng.uniform(m);
      std::size_t b = (a + 1 + rng.uniform(m - 1)) % m;
      std::size_t i = rng.uniform(u);
      std::size_t j = rng.uniform(u);
      if (step % 2 == 0) {
        engine.apply_swap(a, i, b, j);
      } else {
        engine.try_swap(a, i, b, j);
      }
      expect_tracks_full_evaluation(
          p, engine, reference, cost, weights,
          "seed " + std::to_string(seed) + " step " + std::to_string(step));
    }
  }
}

// A parallel job's Eq. 13 max: moving one of two tied holders away keeps
// the max, moving the other drops it to the next process.
TEST(SwapEngine, ParallelMaxFollowsItsHolderThroughTies) {
  Problem p;
  p.machine = machine_by_cores(2);
  p.batch.add_job("pe", JobKind::ParallelNoComm, 3);  // processes 0, 1, 2
  for (int k = 0; k < 3; ++k)
    p.batch.add_job(std::string("s").append(std::to_string(k)),
                    JobKind::Serial, 1);  // 3..5
  for (int k = 0; k < 4; ++k)
    p.batch.add_job("idle" + std::to_string(k), JobKind::Imaginary, 1);
  ASSERT_EQ(p.n(), 10);
  auto model = std::make_shared<LinearPressureModel>(
      std::vector<Real>{1, 1, 1, 1, 1, 1, 0, 0, 0, 0},
      std::vector<Real>{1, 1, 1, 3, 3, 1, 0, 0, 0, 0});
  p.contention_model = model;
  p.full_model = model;
  // {0,3} {1,4} {2,5}: d0 = d1 = 3 tie for the PE max, d2 = 1.
  Solution start;
  start.machines = {{0, 3}, {1, 4}, {2, 5}, {6, 7}, {8, 9}};
  SwapEngine engine(p, start, start, 0.0);
  EXPECT_EQ(engine.degradation(), 3.0 + (1.0 + 1.0 + 1.0));
  expect_tracks_full_evaluation(p, engine, start, 0.0, {}, "start");

  engine.apply_swap(0, 1, 3, 0);  // 3 <-> idle 6: holder 0 drops to 0
  EXPECT_EQ(engine.placement().machines[0], (std::vector<ProcessId>{0, 6}));
  EXPECT_EQ(engine.degradation(), 3.0 + (0.0 + 1.0 + 1.0));  // d1 keeps 3
  expect_tracks_full_evaluation(p, engine, start, 0.0, {}, "first holder");

  engine.apply_swap(1, 1, 4, 0);  // 4 <-> idle 8: the other holder drops
  EXPECT_EQ(engine.degradation(), 1.0 + (0.0 + 0.0 + 1.0));  // max is d2
  expect_tracks_full_evaluation(p, engine, start, 0.0, {}, "second holder");

  // Pairing serial 3 with serial 4 prices both at 3 and is rejected.
  EXPECT_FALSE(engine.try_swap(3, 1, 4, 0));
  EXPECT_EQ(engine.degradation(), 2.0);
  expect_tracks_full_evaluation(p, engine, start, 0.0, {}, "rejected");
}

/// The unfiltered reference: the same first-improvement loop, each swap
/// priced by full evaluation plus the relabel-invariant migration charge.
Solution full_evaluation_swap_loop(const Problem& p, const Solution& reference,
                                   Solution work, Real cost,
                                   std::span<const Real> weights,
                                   std::uint64_t max_passes) {
  auto combined_of = [&](const Solution& s) {
    return evaluate_solution(p, s).total +
           cost * weighted_migrations(reference, s, weights);
  };
  const std::size_t m = work.machines.size();
  const std::size_t u = static_cast<std::size_t>(p.u());
  Real current = combined_of(work);
  for (std::uint64_t pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = a + 1; b < m; ++b)
        for (std::size_t i = 0; i < u; ++i)
          for (std::size_t j = 0; j < u; ++j) {
            std::swap(work.machines[a][i], work.machines[b][j]);
            Real cand = combined_of(work);
            if (cand < current - kObjectiveEps) {
              current = cand;
              improved = true;
            } else {
              std::swap(work.machines[a][i], work.machines[b][j]);
            }
          }
    if (!improved) break;
  }
  return work;
}

// Skipping the assignment for swaps whose degradation alone cannot win is
// exact: the filtered delta loop walks the same swaps as full evaluation.
TEST(SwapEngine, FilteredLoopMatchesFullEvaluationLoop) {
  for (std::uint64_t seed = 100; seed < 156; ++seed) {
    Problem p = seed % 2 ? random_pe_problem(6, {3, 2}, 4, seed)
                         : random_serial_problem(12, 2 << (seed % 3), seed);
    Rng rng(seed);
    Solution reference = solve_random(p, rng);
    // Half the instances repair the reference itself, half start elsewhere.
    Solution start = seed % 4 < 2 ? reference : solve_random(p, rng);
    std::vector<Real> weights(static_cast<std::size_t>(p.n()));
    for (Real& w : weights) w = 0.5 * static_cast<Real>(rng.uniform(4));
    const Real cost = 0.01 * static_cast<Real>(1 + seed % 5);
    const std::uint64_t passes = 3;
    SwapEngine engine(p, reference, start, cost, weights);
    engine.run(passes);
    Solution expected = full_evaluation_swap_loop(p, reference, start, cost,
                                                  weights, passes);
    EXPECT_EQ(engine.placement().machines, expected.machines)
        << "seed " << seed;
    expect_tracks_full_evaluation(p, engine, reference, cost, weights,
                                  "seed " + std::to_string(seed));
  }
}

// The greedy fill over serial, PE and idle-padded instances (2 to 6 idle
// slots): the tracked objective stays exact, running (weight-1) processes
// keep their slots, the charge stays 0, and on return no admitted process
// has a swap with an idle slot on another machine that lowers Eq. 13.
TEST(SwapEngine, GreedyFillIsPricedExactlyAndEndsAtAnIdleSwapOptimum) {
  std::uint64_t moves = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Problem p = seed % 3 == 0   ? random_serial_problem(9, 4, seed)
                : seed % 3 == 1 ? random_pe_problem(5, {3, 2}, 4, seed)
                                : random_pe_problem(5, {3, 2}, 8, seed);
    Rng rng(seed * 11 + 3);
    const Solution start = solve_random(p, rng);
    std::vector<Real> weights(static_cast<std::size_t>(p.n()), 0.0);
    std::vector<ProcessId> admitted;
    for (ProcessId q = 0; q < p.n(); ++q) {
      if (p.batch.job(p.batch.job_of(q)).kind == JobKind::Imaginary) continue;
      if (rng.uniform(2) == 0)
        admitted.push_back(q);
      else
        weights[static_cast<std::size_t>(q)] = 1.0;
    }
    const Real cost = seed % 4 == 0 ? 0.0 : 0.05;
    SwapEngine engine(p, start, start, cost, weights);
    moves += engine.fill(admitted);
    const std::string where = "seed " + std::to_string(seed);
    expect_tracks_full_evaluation(p, engine, start, cost, weights, where);
    EXPECT_EQ(engine.migration_charge(), 0.0) << where;
    EXPECT_LE(engine.degradation(),
              evaluate_solution(p, start).total + 1e-12)
        << where;

    const Solution& filled = engine.placement();
    for (std::size_t a = 0; a < filled.machines.size(); ++a)
      for (std::size_t i = 0; i < filled.machines[a].size(); ++i)
        if (weights[static_cast<std::size_t>(start.machines[a][i])] > 0.0) {
          EXPECT_EQ(filled.machines[a][i], start.machines[a][i])
              << where << ": a running process moved";
        }

    for (std::size_t a = 0; a < filled.machines.size(); ++a)
      for (std::size_t i = 0; i < filled.machines[a].size(); ++i) {
        const ProcessId q = filled.machines[a][i];
        if (std::find(admitted.begin(), admitted.end(), q) == admitted.end())
          continue;
        for (std::size_t b = 0; b < filled.machines.size(); ++b) {
          if (b == a) continue;
          for (std::size_t j = 0; j < filled.machines[b].size(); ++j) {
            const ProcessId r = filled.machines[b][j];
            if (p.batch.job(p.batch.job_of(r)).kind != JobKind::Imaginary)
              continue;
            Solution swapped = filled;
            std::swap(swapped.machines[a][i], swapped.machines[b][j]);
            EXPECT_GE(evaluate_solution(p, swapped).total,
                      engine.degradation() - kObjectiveEps)
                << where << ": process " << q << " would gain from idle "
                << r;
          }
        }
      }
  }
  EXPECT_GT(moves, 0u);  // the instances exercise the fill
}

}  // namespace
}  // namespace cosched
