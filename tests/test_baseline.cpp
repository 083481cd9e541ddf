// Tests for the baselines: PG greedy, random schedules, local search.
#include <gtest/gtest.h>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "baseline/local_search.hpp"
#include "baseline/pg_greedy.hpp"
#include "baseline/random_schedule.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

TEST(PgGreedy, ProducesValidSchedules) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Problem p = random_serial_problem(16, 4, seed);
    Solution s = solve_pg_greedy(p);
    validate_solution(p, s);
  }
}

TEST(PgGreedy, DeterministicAcrossCalls) {
  Problem p = random_serial_problem(12, 4, 4);
  EXPECT_EQ(solve_pg_greedy(p).machines, solve_pg_greedy(p).machines);
}

TEST(PgGreedy, NeverBeatsTheOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Problem p = random_serial_problem(12, 4, seed);
    auto opt = solve_oastar(p);
    Real pg = evaluate_solution(p, solve_pg_greedy(p)).total;
    ASSERT_TRUE(opt.found);
    EXPECT_GE(pg, opt.objective - 1e-9) << "seed " << seed;
  }
}

TEST(PgGreedy, HandlesParallelMixes) {
  Problem p = random_pe_problem(6, {4, 3}, 4, 11);
  Solution s = solve_pg_greedy(p);
  validate_solution(p, s);
}

TEST(RandomSchedule, IsValidAndSeedDependent) {
  Problem p = random_serial_problem(16, 4, 12);
  Rng rng_a(1), rng_b(1), rng_c(2);
  Solution a = solve_random(p, rng_a);
  Solution b = solve_random(p, rng_b);
  Solution c = solve_random(p, rng_c);
  validate_solution(p, a);
  validate_solution(p, c);
  EXPECT_EQ(a.machines, b.machines);  // same seed, same schedule
  EXPECT_NE(a.machines, c.machines);  // overwhelmingly likely
}

TEST(LocalSearch, NeverWorsensTheStart) {
  Problem p = random_serial_problem(16, 4, 13);
  Rng rng(5);
  Solution start = solve_random(p, rng);
  Real start_obj = evaluate_solution(p, start).total;
  auto improved = improve_by_swaps(p, start);
  validate_solution(p, improved.solution);
  EXPECT_LE(improved.objective, start_obj + 1e-12);
}

TEST(LocalSearch, ReachesOptimumOnTinyInstances) {
  // With 4 processes on 2 machines the swap neighbourhood covers the whole
  // solution space.
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    Problem p = random_serial_problem(4, 2, seed);
    auto brute = solve_brute_force(p);
    Rng rng(seed);
    auto improved = improve_by_swaps(p, solve_random(p, rng));
    EXPECT_NEAR(improved.objective, brute.objective, 1e-9) << "seed " << seed;
  }
}

TEST(LocalSearch, FixedPointOfOptimumIsOptimum) {
  Problem p = random_serial_problem(8, 4, 24);
  auto opt = solve_oastar(p);
  ASSERT_TRUE(opt.found);
  auto improved = improve_by_swaps(p, opt.solution);
  EXPECT_NEAR(improved.objective, opt.objective, 1e-9);
  EXPECT_EQ(improved.swaps_applied, 0u);
}

TEST(BruteForce, CountsCanonicalPartitions) {
  // 6 processes on 2-core machines: 6!/(2!^3 3!) = 15 partitions.
  Problem p = random_serial_problem(6, 2, 25);
  auto r = solve_brute_force(p);
  // Pruning may skip some; disable pruning is not exposed, so only check
  // we examined at least one and the objective is positive.
  EXPECT_GE(r.partitions_examined, 1u);
  EXPECT_GT(r.objective, 0.0);
  validate_solution(p, r.solution);
}

}  // namespace
}  // namespace cosched
