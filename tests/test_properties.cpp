// Property-based sweeps (parameterized gtest) over randomized instances:
// cross-solver agreement, invariants of the search, admissibility of h(v).
#include <gtest/gtest.h>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "graph/level_stats.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

// ------------------------------------------ cross-solver agreement sweep

class CrossSolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CrossSolverAgreement, OaStarOsvpBruteAgree) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::int32_t jobs = 6 + static_cast<std::int32_t>(rng.uniform(7));
  const std::uint32_t cores = rng.uniform01() < 0.5 ? 2u : 4u;
  Problem p = random_serial_problem(jobs, cores,
                                    static_cast<std::uint64_t>(seed) * 31);
  auto brute = solve_brute_force(p);
  auto oa = solve_oastar(p);
  auto osvp = solve_osvp(p);
  ASSERT_TRUE(oa.found && osvp.found);
  EXPECT_NEAR(oa.objective, brute.objective, 1e-9)
      << "jobs=" << jobs << " cores=" << cores;
  EXPECT_NEAR(osvp.objective, brute.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverAgreement,
                         ::testing::Range(0, 20));

// ----------------------------------------------- admissibility of h(v)

class HeuristicAdmissibility : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicAdmissibility, S2LowerBoundsTrueRemainingCost) {
  // For random prefixes of the optimal path, neither strategy-2 h nor the
  // Lagrangian bound may exceed the true cost of the remaining suffix
  // (serial-only instances).
  const int seed = GetParam();
  Problem p = random_serial_problem(12, 4,
                                    static_cast<std::uint64_t>(seed) + 500);
  auto opt = solve_oastar(p);
  ASSERT_TRUE(opt.found);
  NodeEvaluator eval(p, *p.full_model);
  LevelStats stats = LevelStats::build_exact(eval);
  LevelStats lagrangian = LevelStats::build_exact(
      eval, 20'000'000, HeuristicKind::Lagrangian);

  // Walk the optimal path; at each prefix compare h to the true suffix cost.
  std::vector<Real> node_costs;
  for (const auto& node : opt.solution.machines)
    node_costs.push_back(eval.weight(node));
  std::vector<bool> scheduled(static_cast<std::size_t>(p.n()), false);
  Real suffix_cost = opt.objective;
  for (std::size_t k = 0; k < opt.solution.machines.size(); ++k) {
    std::vector<ProcessId> unscheduled;
    for (std::int32_t q = 0; q < p.n(); ++q)
      if (!scheduled[static_cast<std::size_t>(q)]) unscheduled.push_back(q);
    std::int32_t k_rem =
        static_cast<std::int32_t>(unscheduled.size()) / p.u();
    Real h = stats.strategy2_h(unscheduled, k_rem);
    EXPECT_LE(h, suffix_cost + 1e-9)
        << "prefix " << k << " seed " << seed;
    EXPECT_LE(lagrangian.lagrangian_h(unscheduled, k_rem), suffix_cost + 1e-9)
        << "prefix " << k << " seed " << seed;
    for (ProcessId q : opt.solution.machines[k])
      scheduled[static_cast<std::size_t>(q)] = true;
    suffix_cost -= node_costs[k];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicAdmissibility,
                         ::testing::Range(0, 10));

// -------------------------------------------------- dismissal equivalence

class DismissalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DismissalEquivalence, PaperAndParetoAgreeOnSerialInstances) {
  // With no parallel jobs the Pareto front degenerates to min-distance;
  // both policies must produce identical objectives.
  const int seed = GetParam();
  Problem p = random_serial_problem(10, 2,
                                    static_cast<std::uint64_t>(seed) + 900);
  SearchOptions paper;
  paper.dismiss = DismissPolicy::PaperMinDistance;
  SearchOptions pareto;
  pareto.dismiss = DismissPolicy::ParetoDominance;
  auto a = solve_oastar(p, paper);
  auto b = solve_oastar(p, pareto);
  ASSERT_TRUE(a.found && b.found);
  EXPECT_NEAR(a.objective, b.objective, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DismissalEquivalence,
                         ::testing::Range(0, 8));

// ---------------------------------------------- HA* quality distribution

TEST(HaStarQuality, DistributionOverRandomMixes) {
  // HA* is a heuristic: on threshold-shaped landscapes with parallel jobs
  // individual instances can land well off the optimum (a documented
  // reproduction finding; the paper's ~10% figure is an average over its
  // workloads). Lock in the distribution: valid always, never better than
  // optimal, small average gap, bounded worst case.
  Real worst = 1.0;
  Real total = 0.0;
  int count = 0;
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 7000);
    std::int32_t serial = 8 + static_cast<std::int32_t>(rng.uniform(8));
    std::vector<std::int32_t> parallel;
    if (rng.uniform01() < 0.5)
      parallel.push_back(2 + static_cast<std::int32_t>(rng.uniform(3)));
    Problem p = random_pe_problem(serial, parallel, 4,
                                  static_cast<std::uint64_t>(seed) + 8000);
    SearchOptions exact;
    exact.dismiss = DismissPolicy::ParetoDominance;
    auto opt = solve_oastar(p, exact);
    auto ha = solve_hastar(p);
    ASSERT_TRUE(opt.found && ha.found);
    validate_solution(p, ha.solution);
    EXPECT_GE(ha.objective, opt.objective - 1e-9) << "seed " << seed;
    Real ratio = opt.objective > 0 ? ha.objective / opt.objective : 1.0;
    worst = std::max(worst, ratio);
    total += ratio;
    ++count;
  }
  EXPECT_LT(total / count, 1.25);
  EXPECT_LT(worst, 1.80);
}

// ------------------------------------------------ objective monotonicity

class ObjectiveScaling : public ::testing::TestWithParam<int> {};

TEST_P(ObjectiveScaling, MoreContentionNeverHelps) {
  // Raising one process's miss rate cannot lower the optimal objective.
  const int seed = GetParam();
  SyntheticProblemSpec spec;
  spec.cores = 2;
  spec.serial_jobs = 8;
  spec.seed = static_cast<std::uint64_t>(seed) + 1300;
  Problem base = build_synthetic_problem(spec);
  auto* base_model = dynamic_cast<const SyntheticDegradationModel*>(
      base.contention_model.get());
  ASSERT_NE(base_model, nullptr);

  std::vector<Real> rates, sens;
  for (std::int32_t q = 0; q < base.n(); ++q) {
    rates.push_back(base_model->miss_rate(q));
    sens.push_back(base_model->sensitivity(q));
  }
  rates[0] = std::min<Real>(1.0, rates[0] + 0.2);
  Problem hotter = base;
  auto hotter_model = std::make_shared<SyntheticDegradationModel>(
      std::move(rates), std::move(sens), base_model->capacity());
  hotter.contention_model = hotter_model;
  hotter.full_model = hotter_model;

  auto r_base = solve_oastar(base);
  auto r_hot = solve_oastar(hotter);
  ASSERT_TRUE(r_base.found && r_hot.found);
  EXPECT_GE(r_hot.objective, r_base.objective - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveScaling, ::testing::Range(0, 6));

}  // namespace
}  // namespace cosched
