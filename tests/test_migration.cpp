// Tests for the migration extension (the paper's future-work direction):
// Hungarian assignment, minimum-migration alignment, replanning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "astar/search.hpp"
#include "baseline/random_schedule.hpp"
#include "cache/machine_config.hpp"
#include "core/builders.hpp"
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

// A weight matrix that is zero off the diagonal — the overlap matrix of a
// fresh placement that already sits where the old one does — is solved by
// the identity, also when ties make other assignments as heavy: all-zero
// rows (idle machines) and equal diagonals. Both entry points are checked.
TEST(Hungarian, DiagonalWeightsGiveTheIdentity) {
  std::vector<std::size_t> sizes(40);
  std::iota(sizes.begin(), sizes.end(), std::size_t{1});
  sizes.insert(sizes.end(), {48, 64, 96, 128, 160});
  enum class Diagonal { Integer, Equal, Real };
  Rng rng(36);
  AssignmentSolver solver;
  for (std::size_t m : sizes) {
    std::vector<std::int32_t> identity(m);
    std::iota(identity.begin(), identity.end(), 0);
    for (double zero_share : {0.0, 0.1, 0.5, 0.9, 0.99}) {
      for (Diagonal kind : {Diagonal::Integer, Diagonal::Equal,
                            Diagonal::Real}) {
        std::vector<std::size_t> rows(m);
        std::iota(rows.begin(), rows.end(), std::size_t{0});
        rng.shuffle(rows);
        rows.resize(static_cast<std::size_t>(zero_share *
                                             static_cast<double>(m)));
        std::vector<Real> diagonal(m);
        for (Real& d : diagonal) {
          if (kind == Diagonal::Integer)
            d = static_cast<Real>(rng.uniform_int(1, 4));
          else if (kind == Diagonal::Equal)
            d = 1.0;
          else
            d = rng.uniform_real(0.1, 5.0);
        }
        for (std::size_t row : rows) diagonal[row] = 0.0;

        std::vector<std::vector<Real>> nested(m, std::vector<Real>(m, 0.0));
        std::vector<Real> flat(m * m, 0.0);
        for (std::size_t i = 0; i < m; ++i) {
          nested[i][i] = diagonal[i];
          flat[i * m + i] = diagonal[i];
        }
        std::ostringstream where;
        where << "m=" << m << " zero rows=" << rows.size()
              << " diagonal kind=" << static_cast<int>(kind);
        EXPECT_EQ(solve_assignment_max(nested), identity) << where.str();
        std::vector<std::int32_t> assignment(m, -1);
        solver.solve_max(flat, m, assignment);
        EXPECT_EQ(assignment, identity) << where.str();
      }
    }
  }
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
  Solution aligned = align_to_placement(old_p, fresh, {});
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
  Solution aligned = align_to_placement(old_p, fresh, {});
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

bool is_imaginary(const Problem& p, ProcessId q) {
  return p.batch.job(p.batch.job_of(q)).kind == JobKind::Imaginary;
}

/// What full_evaluation_swap_loop priced.
struct LoopCounts {
  std::uint64_t swaps = 0;       ///< every swap it priced
  std::uint64_t idle_pairs = 0;  ///< ... of two weight-0 imaginary processes
};

/// The unfiltered reference: the same first-improvement loop, each swap
/// priced by full evaluation plus the relabel-invariant migration charge.
Solution full_evaluation_swap_loop(const Problem& p, const Solution& reference,
                                   Solution work, Real cost,
                                   std::span<const Real> weights,
                                   std::uint64_t max_passes,
                                   LoopCounts* counts = nullptr) {
  auto idle = [&](ProcessId q) {
    return is_imaginary(p, q) && weights[static_cast<std::size_t>(q)] == 0.0;
  };
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
            if (counts) {
              ++counts->swaps;
              if (idle(work.machines[a][i]) && idle(work.machines[b][j]))
                ++counts->idle_pairs;
            }
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

/// 2 to 6 idle slots: 13 or 14 real processes on quad cores, or 10 to 12 on
/// 8 cores.
Problem idle_padded_problem(std::uint64_t seed) {
  const auto extra =
      static_cast<std::int32_t>(seed % 2 ? seed % 4 / 2 : seed % 3);
  return seed % 2 ? random_pe_problem(8 + extra, {3, 2}, 4, seed)
                  : random_pe_problem(5 + extra, {3, 2}, 8, seed);
}

/// `placement` with its free movers (weight 0) shuffled among their slots:
/// every weighted process stays on its machine.
Solution shuffle_free_movers(Solution placement, std::span<const Real> weights,
                             Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> slots;
  for (std::size_t a = 0; a < placement.machines.size(); ++a)
    for (std::size_t i = 0; i < placement.machines[a].size(); ++i)
      if (weights[static_cast<std::size_t>(placement.machines[a][i])] == 0.0)
        slots.emplace_back(a, i);
  for (std::size_t k = slots.size(); k > 1; --k) {
    const auto [a, i] = slots[k - 1];
    const auto [b, j] = slots[rng.uniform(k)];
    std::swap(placement.machines[a][i], placement.machines[b][j]);
  }
  return placement;
}

// Skipping the assignment for swaps whose degradation alone, or under the
// row-maximum bound on the kept weight, cannot win is exact, and so are the
// idle-slot skips: the filtered delta loop walks the same swaps as full
// evaluation. Instances from seed 156 on carry 2 to 6 weight-0 idle slots
// and start aligned (every weighted process at home) two times in three,
// where the constructor prices the charge without an assignment. There are
// 400 of them: fewer missed a skip that ignored the swaps taken in its
// (a, b) block.
TEST(SwapEngine, FilteredLoopMatchesFullEvaluationLoop) {
  std::uint64_t priced = 0;
  LoopCounts full;
  for (std::uint64_t seed = 100; seed < 556; ++seed) {
    const bool padded = seed >= 156;
    Problem p = padded     ? idle_padded_problem(seed)
                : seed % 2 ? random_pe_problem(6, {3, 2}, 4, seed)
                           : random_serial_problem(12, 2 << (seed % 3), seed);
    Rng rng(seed);
    Solution reference = solve_random(p, rng);
    std::vector<Real> weights(static_cast<std::size_t>(p.n()));
    for (ProcessId q = 0; q < p.n(); ++q)
      weights[static_cast<std::size_t>(q)] =
          padded && is_imaginary(p, q)
              ? 0.0
              : 0.5 * static_cast<Real>(rng.uniform(4));
    // Unpadded: half the instances repair the reference itself, half start
    // elsewhere. Padded: the reference, an aligned shuffle of it, or
    // elsewhere.
    Solution start = reference;
    if (padded && seed % 3 == 1)
      start = shuffle_free_movers(reference, weights, rng);
    else if (padded ? seed % 3 == 2 : seed % 4 >= 2)
      start = solve_random(p, rng);
    const Real cost = 0.01 * static_cast<Real>(1 + seed % 5);
    const std::uint64_t passes = 3;
    SwapEngine engine(p, reference, start, cost, weights);
    if (padded && seed % 3 != 2) {
      EXPECT_EQ(engine.assignments(), 0u) << "seed " << seed;
    }
    expect_tracks_full_evaluation(p, engine, reference, cost, weights,
                                  "start seed " + std::to_string(seed));
    engine.run(passes);
    const std::uint64_t priced_before = full.swaps;
    Solution expected = full_evaluation_swap_loop(
        p, reference, start, cost, weights, passes, padded ? &full : nullptr);
    EXPECT_EQ(engine.placement().machines, expected.machines)
        << "seed " << seed;
    expect_tracks_full_evaluation(p, engine, reference, cost, weights,
                                  "seed " + std::to_string(seed));
    if (padded) {
      priced += engine.swaps_priced();
      EXPECT_LE(engine.swaps_priced(), full.swaps - priced_before)
          << "seed " << seed;
    }
  }
  // The padded instances exercise the skips: the engine walks the same
  // swaps, so it skips every idle pair the reference priced, and twins.
  EXPECT_GT(full.idle_pairs, 400u);
  EXPECT_LT(priced, full.swaps - full.idle_pairs)
      << priced << " of " << full.swaps << " (" << full.idle_pairs
      << " idle pairs)";
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

/// The unfiltered greedy fill: the same passes, every idle slot on another
/// machine priced by full evaluation under the same lexicographic rule
/// (Eq. 13, then the summed per-process degradation). `priced` counts the
/// swaps it priced.
Solution full_evaluation_fill(const Problem& p, Solution work,
                              std::span<const ProcessId> admitted,
                              std::span<const Real> weights, Real cost,
                              std::uint64_t& priced) {
  auto idle = [&](ProcessId q) {
    return is_imaginary(p, q) &&
           (cost == 0.0 || weights[static_cast<std::size_t>(q)] == 0.0);
  };
  auto load_of = [&](const Evaluation& ev) {
    Real load = 0.0;
    for (Real d : ev.per_process) load += d;
    return load;
  };
  const std::size_t m = work.machines.size();
  for (bool moved = true; moved;) {
    moved = false;
    for (ProcessId x : admitted) {
      std::size_t a = 0, i = 0;
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t s = 0; s < work.machines[k].size(); ++s)
          if (work.machines[k][s] == x) a = k, i = s;
      const Evaluation now = evaluate_solution(p, work);
      const Real now_load = load_of(now);
      Real best_eq13 = now.total, best_load = 0.0;
      std::size_t best_b = m, best_j = 0;
      for (std::size_t b = 0; b < m; ++b) {
        if (b == a) continue;
        for (std::size_t j = 0; j < work.machines[b].size(); ++j) {
          if (!idle(work.machines[b][j])) continue;
          ++priced;
          std::swap(work.machines[a][i], work.machines[b][j]);
          const Evaluation ev = evaluate_solution(p, work);
          std::swap(work.machines[a][i], work.machines[b][j]);
          const Real load = load_of(ev) - now_load;
          if (ev.total < best_eq13 - kObjectiveEps ||
              (ev.total <= best_eq13 && load < best_load - kObjectiveEps)) {
            best_eq13 = ev.total;
            best_load = load;
            best_b = b;
            best_j = j;
          }
        }
      }
      if (best_b == m) continue;
      std::swap(work.machines[a][i], work.machines[best_b][best_j]);
      moved = true;
    }
  }
  return work;
}

// Pricing one idle slot per run of interchangeable ones is exact: on
// idle-padded instances (2 to 6 idle slots, admitted processes on random
// slots) the fill makes the moves of a reference that prices every idle
// slot by full evaluation.
TEST(SwapEngine, FillMatchesAFillThatPricesEveryIdleSlot) {
  std::uint64_t moves = 0, priced = 0, reference_priced = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Problem p = idle_padded_problem(seed);
    Rng rng(seed * 13 + 5);
    const Solution start = solve_random(p, rng);
    std::vector<Real> weights(static_cast<std::size_t>(p.n()), 0.0);
    std::vector<ProcessId> admitted;
    for (ProcessId q = 0; q < p.n(); ++q) {
      if (is_imaginary(p, q)) continue;
      if (rng.uniform(3) == 0)
        admitted.push_back(q);
      else
        weights[static_cast<std::size_t>(q)] = 1.0;
    }
    const Real cost = seed % 4 == 0 ? 0.0 : 0.05;
    SwapEngine engine(p, start, start, cost, weights);
    const std::uint64_t engine_moves = engine.fill(admitted);
    std::uint64_t full = 0;
    const Solution expected =
        full_evaluation_fill(p, start, admitted, weights, cost, full);
    EXPECT_EQ(engine.placement().machines, expected.machines)
        << "seed " << seed;
    // Both walk the same passes; the engine stages each move once more to
    // apply it.
    EXPECT_LE(engine.swaps_priced() - engine_moves, full) << "seed " << seed;
    moves += engine_moves;
    priced += engine.swaps_priced() - engine_moves;
    reference_priced += full;
  }
  EXPECT_GT(moves, 0u);
  EXPECT_LT(priced, reference_priced);  // the skip fires
}

/// A 6×4 fleet as an online replan sees it: 12 serial jobs and a 3-process
/// PE job running, a 4-process PE job just admitted, 5 idle slots. Jobs in
/// id order with the admitted one last before the padding, the synthetic
/// Threshold model at the service's capacity.
Problem churn_like_problem(Rng& rng) {
  Problem p;
  p.machine = machine_by_cores(4);
  std::vector<Real> rates, sens;
  auto add = [&](const std::string& name, JobKind kind, std::int32_t size) {
    p.batch.add_job(name, kind, size);
    const Real rate = kind == JobKind::Imaginary ? 0.0
                                                 : rng.uniform_real(0.15, 0.75);
    const Real sen = kind == JobKind::Imaginary ? 0.0
                                                : rng.uniform_real(0.2, 1.2);
    for (std::int32_t k = 0; k < size; ++k) {
      rates.push_back(rate);
      sens.push_back(sen);
    }
  };
  for (int k = 0; k < 12; ++k)
    add(std::string("s").append(std::to_string(k)), JobKind::Serial, 1);
  add("running", JobKind::ParallelNoComm, 3);
  add("admitted", JobKind::ParallelNoComm, 4);
  for (int k = 0; k < 5; ++k)
    add(std::string("idle").append(std::to_string(k)), JobKind::Imaginary, 1);
  auto model = std::make_shared<SyntheticDegradationModel>(
      std::move(rates), std::move(sens), 0.45 * 3.0,
      SyntheticLandscape::Threshold);
  p.contention_model = model;
  p.full_model = model;
  p.check();
  return p;
}

std::string placement_string(const Solution& s) {
  std::string out;
  for (const auto& machine : s.machines) {
    if (!out.empty()) out += '|';
    for (std::size_t k = 0; k < machine.size(); ++k) {
      if (k > 0) out += ' ';
      out += std::to_string(machine[k]);
    }
  }
  return out;
}

/// What one pinned SwapEngine run ended with.
struct PinnedRun {
  std::string placement;  ///< placement_string of the final placement
  std::uint64_t swaps_applied;
  std::uint64_t swaps_priced;
  std::uint64_t assignments;
  std::uint64_t combined_bits;  ///< bit pattern of combined()

  bool operator==(const PinnedRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PinnedRun& r) {
  return os << "{\"" << r.placement << "\", " << r.swaps_applied << ", "
            << r.swaps_priced << ", " << r.assignments << ", 0x" << std::hex
            << r.combined_bits << std::dec << "}";
}

/// A repair as the online service sets one up: the problem, the reference
/// placement, the engine's start, the move weights (1 = running) and the
/// admitted processes the fill seats (weight 0).
struct RepairCase {
  Problem problem;
  Solution reference;
  Solution start;
  std::vector<Real> weights;
  std::vector<ProcessId> admitted;
};

/// idle_padded_problem(seed) with a third of the real processes admitted,
/// the start the reference or, every third seed, a random placement.
RepairCase padded_repair(std::uint64_t seed) {
  RepairCase c;
  c.problem = idle_padded_problem(seed);
  const Problem& p = c.problem;
  Rng rng(seed * 17 + 9);
  c.reference = solve_random(p, rng);
  c.weights.assign(static_cast<std::size_t>(p.n()), 0.0);
  for (ProcessId q = 0; q < p.n(); ++q) {
    if (is_imaginary(p, q)) continue;
    if (rng.uniform(3) == 0)
      c.admitted.push_back(q);
    else
      c.weights[static_cast<std::size_t>(q)] = 1.0;
  }
  c.start = seed % 3 == 0 ? solve_random(p, rng) : c.reference;
  return c;
}

/// The churn-like fleet with its new PE job to fill into the free slots;
/// the start is the reference.
RepairCase churn_like_repair() {
  RepairCase c;
  Rng rng(2024);
  c.problem = churn_like_problem(rng);
  const std::size_t n = static_cast<std::size_t>(c.problem.n());
  // Processes 0..14 run in random slots; the admitted 15..18 and the idle
  // 19..23 take the free slots in machine order, as the service seats them.
  std::vector<std::size_t> slots(n);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  rng.shuffle(slots);
  std::vector<ProcessId> at(n, -1);
  for (std::size_t q = 0; q < 15; ++q) at[slots[q]] = static_cast<ProcessId>(q);
  ProcessId next_free = 15;
  for (ProcessId& q : at)
    if (q < 0) q = next_free++;
  c.reference.machines.resize(6);
  for (std::size_t s = 0; s < n; ++s)
    c.reference.machines[s / 4].push_back(at[s]);
  c.start = c.reference;
  c.weights.assign(n, 0.0);
  std::fill(c.weights.begin(), c.weights.begin() + 15, 1.0);
  c.admitted = {15, 16, 17, 18};
  return c;
}

/// A repair as replan_with_migrations runs one, at migration cost 0.05:
/// fill the admitted processes, then at most 30 polish passes.
PinnedRun pinned_repair(const RepairCase& c) {
  SwapEngine engine(c.problem, c.reference, c.start, 0.05, c.weights);
  engine.fill(c.admitted);
  engine.run(30);
  return {placement_string(engine.placement()), engine.swaps_applied(),
          engine.swaps_priced(), engine.assignments(),
          std::bit_cast<std::uint64_t>(engine.combined())};
}

/// The runs DecisionsAndCountsArePinned makes: padded_repair seeds 1–20,
/// then churn_like_repair.
std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    runs.push_back(pinned_repair(padded_repair(seed)));
  runs.push_back(pinned_repair(churn_like_repair()));
  return runs;
}

// Every decision and count of the repair engine, pinned: the final
// placement, the swaps applied and priced, the Hungarian solves and the
// bits of the combined objective. A change to how swaps are priced must
// leave all of them as they are.
TEST(SwapEngine, DecisionsAndCountsArePinned) {
  const std::vector<PinnedRun> expected = {
      {"10 1 6 9|2 3 7 15|4 5 8 12|13 11 0 14", 2, 116, 0, 0x3fe4f00eda28a075},
      {"0 1 3 8 9 5 14 15|2 4 12 6 7 10 11 13", 1, 66, 0, 0x3fe40ff6a2269964},
      {"14 1 2 8|6 5 7 12|0 3 13 15|9 11 10 4", 18, 388, 21,
       0x3ffdd3b9236b0b46},
      {"0 13 3 5 7 8 11 12|2 4 6 9 10 1 14 15", 1, 72, 0, 0x3fd0e18d32226b7e},
      {"0 3 4 15|2 5 12 11|8 13 10 9|6 7 14 1", 8, 324, 5, 0x3feb274efbb05e73},
      {"1 0 10 3 8 13 14 15|2 4 5 7 9 6 11 12", 5, 102, 5, 0x3fd534f8bc58bf73},
      {"6 2 7 11|1 4 8 12|0 3 13 15|5 9 10 14", 2, 194, 4, 0x3ff7990d3110ffae},
      {"12 1 8 5 7 10 11 15|2 3 6 4 9 0 13 14", 2, 126, 1, 0x3fed440eb94d10fd},
      {"3 15 4 12|0 8 9 13|2 7 10 11|1 14 6 5", 10, 301, 9, 0x3fe8cf45c2084c7e},
      {"0 2 4 5 8 10 11 15|1 3 6 7 9 12 13 14", 0, 49, 0, 0x3ff0fa084116d9a4},
      {"15 1 9 12|0 5 7 10|11 2 13 14|6 8 4 3", 11, 408, 11,
       0x3ff27ad0e14263c4},
      {"2 11 3 6 4 8 12 10|1 0 5 9 7 13 14 15", 6, 148, 6, 0x3fc6f6181a92f9b6},
      {"0 12 11 15|1 7 2 14|8 13 9 10|3 4 6 5", 5, 219, 4, 0x3ff3247aa74d1a54},
      {"0 2 4 8 9 6 7 15|1 3 5 12 13 10 11 14", 2, 77, 0, 0x3ff47a308220c764},
      {"9 1 10 11|0 6 7 14|2 4 15 5|8 12 13 3", 8, 314, 7, 0x3fe04377fd167dfc},
      {"8 2 3 6 7 11 12 13|1 4 5 0 9 10 14 15", 1, 99, 1, 0x3fe54b4afc88d18e},
      {"3 2 7 14|1 13 4 5|6 9 0 8|10 11 12 15", 3, 113, 0, 0x3fe967a39d8a09b4},
      {"3 8 4 6 1 12 14 15|11 0 5 7 2 9 10 13", 5, 113, 4, 0x3fd36ca3f9bcdc05},
      {"13 9 12 15|1 14 0 11|3 4 10 5|6 7 8 2", 4, 301, 3, 0x3fe4232016d6a61b},
      {"12 1 2 5 7 8 11 14|3 4 6 9 10 0 13 15", 1, 64, 0, 0x4001a2417f4641a7},
      {"10 9 20 13|19 5 22 6|7 4 21 14|18 15 16 17|11 1 8 0|2 23 3 12", 13,
       966, 10, 0x3fe7df6159c0d684},
  };
  const std::vector<PinnedRun> runs = pinned_runs();
  ASSERT_EQ(runs.size(), 21u);
  std::ostringstream actual;
  for (const PinnedRun& r : runs) actual << "      " << r << ",\n";
  EXPECT_EQ(runs, expected) << actual.str();
}

/// Forwards to another model, counting machine_degradations calls: one
/// call prices one machine.
class CountingModel final : public DegradationModel {
 public:
  explicit CountingModel(DegradationModelPtr inner) : inner_(std::move(inner)) {}
  Real degradation(ProcessId i, std::span<const ProcessId> co) const override {
    return inner_->degradation(i, co);
  }
  void machine_degradations(std::span<const ProcessId> machine,
                            std::span<Real> out) const override {
    ++calls;
    inner_->machine_degradations(machine, out);
  }
  mutable std::uint64_t calls = 0;

 private:
  DegradationModelPtr inner_;
};

/// Runs replan_with_migrations on `p` priced through a CountingModel;
/// returns the result and the machines it priced.
std::pair<ReplanResult, std::uint64_t> counted_replan(
    Problem p, const Solution& current, const Solution* fresh,
    const ReplanOptions& options) {
  auto counting = std::make_shared<CountingModel>(p.full_model);
  p.full_model = counting;
  ReplanResult r = replan_with_migrations(p, current, fresh, options);
  return {std::move(r), counting->calls};
}

// One replan prices each placement once: the incumbent by the engine
// started on it (m machines), each staged swap's two machines, and the
// re-aligned placement when a swap was taken (m). A fresh candidate is
// priced once more, and only when it wins is the engine started again on
// it: exactly m more than a fresh candidate that loses.
TEST(Replan, PricesEachPlacementOnce) {
  std::vector<RepairCase> repairs;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    repairs.push_back(padded_repair(seed));
  repairs.push_back(churn_like_repair());
  std::uint64_t realigned = 0;
  for (std::size_t k = 0; k < repairs.size(); ++k) {
    const RepairCase& c = repairs[k];
    ReplanOptions opt;
    opt.move_weight = c.weights;
    opt.fill = c.admitted;
    const auto [r, calls] = counted_replan(c.problem, c.start, nullptr, opt);
    const std::uint64_t m = c.start.machines.size();
    EXPECT_EQ(calls, m + 2 * r.swaps_priced + (r.swaps_applied > 0 ? m : 0))
        << "repair " << k;
    EXPECT_EQ(r.stay_combined, evaluate_solution(c.problem, c.start).total)
        << "repair " << k;
    if (r.swaps_applied > 0) ++realigned;
  }
  EXPECT_GT(realigned, 0u);

  // No polish: the fresh HA* schedule is the only way to improve, and a
  // prohibitive migration cost makes it lose.
  Problem p = random_serial_problem(12, 4, 72);
  Rng rng(11);
  const Solution current = solve_random(p, rng);
  auto ha = solve_hastar(p);
  ASSERT_TRUE(ha.found);
  const std::uint64_t m = current.machines.size();
  ReplanOptions opt;
  opt.max_passes = 0;
  opt.migration_cost = 1e6;
  const auto [lost, lost_calls] = counted_replan(p, current, &ha.solution, opt);
  ASSERT_EQ(lost.combined, lost.stay_combined);
  EXPECT_EQ(lost_calls, 2 * m);
  opt.migration_cost = 0.0;
  const auto [won, won_calls] = counted_replan(p, current, &ha.solution, opt);
  ASSERT_LT(won.combined, won.stay_combined);
  EXPECT_EQ(won_calls, 3 * m);
}

// Imaginary processes contribute nothing under every model the library
// builds: a padding process suffers 0, and a real process's degradation is
// bit-identical with any padding in its co-runner list, wherever it sits.
// SwapEngine skips idle-slot swaps on this contract. (TabularDegradationModel
// keys entries by co-runner id: a table honours it only if its entries do.)
/// Three Synthetic landscapes, a PC problem (its full model CommAware over
/// Synthetic) and an Sdc problem, each with idle padding.
std::vector<Problem> contract_problems() {
  std::vector<Problem> problems;
  for (auto landscape : {SyntheticLandscape::Threshold,
                         SyntheticLandscape::Smooth,
                         SyntheticLandscape::Bilinear}) {
    SyntheticProblemSpec spec;
    spec.cores = 4;
    spec.serial_jobs = 6;
    spec.parallel_job_sizes = {3};
    spec.landscape = landscape;
    spec.seed = 7;
    problems.push_back(build_synthetic_problem(spec));
  }
  problems.push_back(testhelpers::random_pc_problem(3, {4}, 4, 11));
  SdcSyntheticSpec sdc;
  sdc.serial_jobs = 5;
  sdc.parallel_job_sizes = {2};
  sdc.parallel_with_comm = true;
  sdc.accesses = 20000.0;
  sdc.seed = 3;
  problems.push_back(build_sdc_synthetic_problem(sdc));
  return problems;
}

TEST(DegradationModelContract, ImaginaryProcessesContributeNothing) {
  const std::vector<Problem> problems = contract_problems();
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const Problem& p = problems[k];
    const DegradationModel& model = *p.full_model;
    std::vector<ProcessId> real, pad;
    for (ProcessId q = 0; q < p.n(); ++q)
      (is_imaginary(p, q) ? pad : real).push_back(q);
    ASSERT_GE(pad.size(), 1u) << "problem " << k;
    ASSERT_GE(real.size(), 4u) << "problem " << k;
    Rng rng(k + 1);
    for (int trial = 0; trial < 200; ++trial) {
      // Up to three real co-runners of a real process, in random order.
      std::vector<ProcessId> pool = real;
      std::vector<ProcessId> co;
      const ProcessId self = pool[rng.uniform(pool.size())];
      std::erase(pool, self);
      const std::size_t count = rng.uniform(4);
      for (std::size_t c = 0; c < count; ++c) {
        const std::size_t at = rng.uniform(pool.size());
        co.push_back(pool[at]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
      }
      const Real bare = model.degradation(self, co);
      std::vector<ProcessId> padded = co;
      for (ProcessId q : pad)
        if (rng.uniform(2) == 0)
          padded.insert(padded.begin() + static_cast<std::ptrdiff_t>(
                                             rng.uniform(padded.size() + 1)),
                        q);
      EXPECT_EQ(model.degradation(self, padded), bare)
          << "problem " << k << " trial " << trial;
      for (ProcessId q : pad)
        EXPECT_EQ(model.degradation(q, co), 0.0) << "problem " << k;
    }
  }
}

// The batched call prices a machine exactly as per-process calls with the
// co-runners in slot order do, bit for bit: under the models the library
// builds (the Synthetic override, the default loop over CommAware and Sdc)
// and a Tabular model, on random machines of u = 2, 4 and 8, of real
// processes only and with imaginary padding among them.
TEST(DegradationModelContract, MachineDegradationsMatchPerProcessCalls) {
  std::vector<Problem> problems = contract_problems();
  std::vector<DegradationModelPtr> models;
  for (const Problem& p : problems) models.push_back(p.full_model);
  // A Tabular model over the first problem's processes, with an entry for
  // every slot of the machines drawn below that draws an odd number.
  const Problem& tab_problem = problems.front();
  auto tabular = std::make_shared<TabularDegradationModel>(tab_problem.n());
  models.push_back(tabular);
  problems.push_back(tab_problem);

  std::uint64_t machines = 0;
  for (std::size_t k = 0; k < models.size(); ++k) {
    const Problem& p = problems[k];
    const DegradationModel& model = *models[k];
    const bool is_tabular = k + 1 == models.size();
    std::vector<ProcessId> real, all(static_cast<std::size_t>(p.n()));
    std::iota(all.begin(), all.end(), 0);
    for (ProcessId q = 0; q < p.n(); ++q)
      if (!is_imaginary(p, q)) real.push_back(q);
    Rng rng(k + 101);
    for (std::size_t u : {2u, 4u, 8u})
      for (bool padded : {false, true})
        for (int trial = 0; trial < 40; ++trial) {
          // Without padding: u real processes. With it: at least one
          // imaginary process among u drawn from all of them.
          std::vector<ProcessId> pool = padded ? all : real;
          if (pool.size() < u) continue;
          rng.shuffle(pool);
          std::vector<ProcessId> machine(pool.begin(), pool.begin() + u);
          if (padded &&
              std::none_of(machine.begin(), machine.end(),
                           [&](ProcessId q) { return is_imaginary(p, q); }))
            continue;
          auto co_of = [&](std::size_t slot) {
            std::vector<ProcessId> co;
            for (std::size_t s = 0; s < u; ++s)
              if (s != slot) co.push_back(machine[s]);
            return co;
          };
          if (is_tabular)
            for (std::size_t slot = 0; slot < u; ++slot)
              if (rng.uniform(2) == 1)
                tabular->set(machine[slot], co_of(slot),
                             rng.uniform_real(0.0, 2.0));
          std::vector<Real> batched(u, -1.0);
          model.machine_degradations(machine, batched);
          ++machines;
          for (std::size_t slot = 0; slot < u; ++slot)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[slot]),
                      std::bit_cast<std::uint64_t>(
                          model.degradation(machine[slot], co_of(slot))))
                << "model " << k << " u " << u << " slot " << slot;
        }
  }
  EXPECT_GT(machines, 1000u);
}

}  // namespace
}  // namespace cosched
