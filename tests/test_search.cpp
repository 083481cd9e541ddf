// Tests for the OA*/O-SVP search engine: optimality against brute force,
// heuristic strategies, dismissal policies, valid-path semantics.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "core/degradation_models.hpp"
#include "core/node_eval.hpp"
#include "test_helpers.hpp"
#include "util/combinatorics.hpp"

namespace cosched {
namespace {

using testhelpers::random_pc_problem;
using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

void expect_valid(const Problem& p, const SearchResult& r) {
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.timed_out);
  validate_solution(p, r.solution);
}

// ------------------------------------------------- optimality (serial jobs)

class OaStarSerialOptimality
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OaStarSerialOptimality, MatchesBruteForce) {
  auto [jobs, cores, seed] = GetParam();
  Problem p = random_serial_problem(jobs, static_cast<std::uint32_t>(cores),
                                    static_cast<std::uint64_t>(seed));
  auto brute = solve_brute_force(p);
  auto oastar = solve_oastar(p);
  expect_valid(p, oastar);
  EXPECT_NEAR(oastar.objective, brute.objective, 1e-9)
      << "jobs=" << jobs << " cores=" << cores << " seed=" << seed;
  // The returned solution must actually evaluate to the claimed objective.
  auto ev = evaluate_solution(p, oastar.solution);
  EXPECT_NEAR(ev.total, oastar.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OaStarSerialOptimality,
    ::testing::Values(std::tuple{4, 2, 1}, std::tuple{6, 2, 2},
                      std::tuple{8, 2, 3}, std::tuple{10, 2, 4},
                      std::tuple{12, 2, 5}, std::tuple{8, 4, 6},
                      std::tuple{12, 4, 7}, std::tuple{16, 4, 8},
                      std::tuple{7, 4, 9},   // padding path (7 -> 8)
                      std::tuple{9, 2, 10},  // padding path (9 -> 10)
                      std::tuple{8, 8, 11}, std::tuple{16, 8, 12}));

// --------------------------------------------- optimality (PE / PC mixes)

class OaStarParallelOptimality
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(OaStarParallelOptimality, MatchesBruteForceWithParetoDismissal) {
  auto [serial, psize, cores, with_comm] = GetParam();
  Problem p =
      with_comm
          ? random_pc_problem(serial, {psize, psize}, cores, 99)
          : random_pe_problem(serial, {psize, psize}, cores, 99);
  auto brute = solve_brute_force(p);
  for (HeuristicKind heuristic :
       {HeuristicKind::Strategy2, HeuristicKind::Lagrangian}) {
    SCOPED_TRACE(static_cast<int>(heuristic));
    SearchOptions opt;
    opt.heuristic = heuristic;
    opt.dismiss = DismissPolicy::ParetoDominance;  // exact for parallel jobs
    auto oastar = solve_oastar(p, opt);
    expect_valid(p, oastar);
    EXPECT_NEAR(oastar.objective, brute.objective, 1e-9);
    auto ev = evaluate_solution(p, oastar.solution);
    EXPECT_NEAR(ev.total, oastar.objective, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OaStarParallelOptimality,
                         ::testing::Values(std::tuple{4, 2, 2, false},
                                           std::tuple{4, 3, 2, false},
                                           std::tuple{2, 3, 4, false},
                                           std::tuple{6, 3, 4, false},
                                           std::tuple{4, 2, 2, true},
                                           std::tuple{2, 3, 4, true},
                                           std::tuple{6, 3, 4, true}));

TEST(OaStarParallel, PaperDismissalIsNearOptimalButNotExact) {
  // Empirical finding (documented in DESIGN.md §3): the paper's
  // min-distance dismissal (Theorem 1) is NOT exact once parallel jobs
  // introduce max-aggregation — two subpaths over the same process set can
  // trade a larger current distance for smaller per-job maxima that pay
  // off later. Observed gaps reach tens of percent on threshold-shaped
  // landscapes; DismissPolicy::ParetoDominance (tested above) restores
  // exactness. The ablation_dismissal bench quantifies the distribution.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Problem p = random_pe_problem(4, {3}, 2, seed);
    auto brute = solve_brute_force(p);
    auto oastar = solve_oastar(p);  // default: PaperMinDistance
    ASSERT_TRUE(oastar.found);
    EXPECT_GE(oastar.objective, brute.objective - 1e-9) << "seed " << seed;
    EXPECT_LE(oastar.objective, brute.objective * 1.50 + 1e-9)
        << "seed " << seed;
  }
}

// ----------------------------------------------------------- h(v) behavior

TEST(Heuristics, BothStrategiesReachTheSameOptimum) {
  // Strategy 1 against Strategy 2 and against its Lagrangian form.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Problem p = random_serial_problem(12, 4, seed);
    SearchOptions s1;
    s1.heuristic = HeuristicKind::Strategy1;
    auto r1 = solve_oastar(p, s1);
    ASSERT_TRUE(r1.found);
    for (HeuristicKind heuristic :
         {HeuristicKind::Strategy2, HeuristicKind::Lagrangian}) {
      SearchOptions s2;
      s2.heuristic = heuristic;
      auto r2 = solve_oastar(p, s2);
      ASSERT_TRUE(r2.found);
      EXPECT_NEAR(r1.objective, r2.objective, 1e-9)
          << "seed " << seed << " heuristic " << static_cast<int>(heuristic);
    }
  }
}

TEST(Heuristics, Strategy2PrunesMoreThanStrategy1) {
  // The paper's Table IV headline: Strategy 2 visits fewer paths. Per-
  // instance the two can land close, so compare aggregates over seeds. The
  // Lagrangian form prunes more than both.
  std::uint64_t s1_paths = 0, s2_paths = 0, lagrangian_paths = 0;
  for (std::uint64_t seed : {42u, 43u, 44u, 45u}) {
    Problem p = random_serial_problem(16, 4, seed);
    SearchOptions s1;
    s1.heuristic = HeuristicKind::Strategy1;
    auto r1 = solve_oastar(p, s1);
    s1_paths += r1.stats.visited_paths;
    for (HeuristicKind heuristic :
         {HeuristicKind::Strategy2, HeuristicKind::Lagrangian}) {
      SearchOptions s2;
      s2.heuristic = heuristic;
      auto r2 = solve_oastar(p, s2);
      EXPECT_NEAR(r1.objective, r2.objective, 1e-9)
          << "seed " << seed << " heuristic " << static_cast<int>(heuristic);
      (heuristic == HeuristicKind::Strategy2 ? s2_paths : lagrangian_paths) +=
          r2.stats.visited_paths;
    }
  }
  EXPECT_LT(s2_paths, s1_paths);
  EXPECT_LT(lagrangian_paths, s2_paths);
}

TEST(Heuristics, OsvpVisitsAtLeastAsManyPathsAsOaStar) {
  Problem p = random_serial_problem(12, 4, 21);
  auto osvp = solve_osvp(p);
  auto oastar = solve_oastar(p);
  ASSERT_TRUE(osvp.found && oastar.found);
  EXPECT_NEAR(osvp.objective, oastar.objective, 1e-9);  // both optimal
  EXPECT_GE(osvp.stats.visited_paths, oastar.stats.visited_paths);
}

TEST(Heuristics, OsvpIsOptimalDijkstra) {
  for (std::uint64_t seed : {31u, 32u}) {
    Problem p = random_serial_problem(8, 4, seed);
    auto brute = solve_brute_force(p);
    auto osvp = solve_osvp(p);
    ASSERT_TRUE(osvp.found);
    EXPECT_NEAR(osvp.objective, brute.objective, 1e-9);
  }
}

// ------------------------------------------------------- search mechanics

TEST(SearchMechanics, SolutionCoversEveryProcessOnce) {
  Problem p = random_serial_problem(14, 2, 5);
  auto r = solve_oastar(p);
  expect_valid(p, r);
  EXPECT_EQ(static_cast<std::int32_t>(r.solution.machines.size()),
            p.machine_count());
}

TEST(SearchMechanics, MachinesAreLevelOrdered) {
  Problem p = random_serial_problem(12, 4, 6);
  auto r = solve_oastar(p);
  ASSERT_TRUE(r.found);
  // Canonicalized: machine k's first process is the smallest id not in
  // machines 0..k-1 (valid-path level structure).
  std::vector<bool> seen(static_cast<std::size_t>(p.n()), false);
  for (const auto& m : r.solution.machines) {
    std::int32_t expected_lead = 0;
    while (seen[static_cast<std::size_t>(expected_lead)]) ++expected_lead;
    EXPECT_EQ(m.front(), expected_lead);
    for (ProcessId q : m) seen[static_cast<std::size_t>(q)] = true;
  }
}

TEST(SearchMechanics, ExpansionLimitReportsTimeout) {
  Problem p = random_serial_problem(16, 4, 7);
  SearchOptions opt;
  opt.max_expansions = 2;
  auto r = solve_oastar(p, opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.found);
}

TEST(SearchMechanics, MemoryBoundEndsTheSearch) {
  // The 70-process batch below keeps 8,154 records; 64 KiB holds a few
  // hundred, so the bound stops the search part way through.
  Problem p = random_serial_problem(70, 2, 17);
  SearchOptions opt;
  opt.max_memory_bytes = 64 * 1024;
  auto bounded = solve_oastar(p, opt);
  EXPECT_TRUE(bounded.memory_exhausted);
  EXPECT_FALSE(bounded.found);
  EXPECT_FALSE(bounded.timed_out);
  EXPECT_GT(bounded.stats.expanded, 0u);

  opt.max_memory_bytes = 0;  // unlimited
  auto full = solve_oastar(p, opt);
  expect_valid(p, full);
  EXPECT_FALSE(full.memory_exhausted);
  EXPECT_LT(bounded.stats.expanded, full.stats.expanded);
}

TEST(SearchMechanics, SingleMachineBatch) {
  Problem p = random_serial_problem(4, 4, 8);
  auto r = solve_oastar(p);
  expect_valid(p, r);
  EXPECT_EQ(r.solution.machines.size(), 1u);
  EXPECT_EQ(r.solution.machines[0], (std::vector<ProcessId>{0, 1, 2, 3}));
}

TEST(SearchMechanics, DeterministicAcrossRuns) {
  Problem p = random_serial_problem(12, 4, 9);
  auto a = solve_oastar(p);
  auto b = solve_oastar(p);
  ASSERT_TRUE(a.found && b.found);
  EXPECT_EQ(a.solution.machines, b.solution.machines);
  EXPECT_EQ(a.stats.expanded, b.stats.expanded);
  EXPECT_EQ(a.stats.generated, b.stats.generated);
  EXPECT_EQ(a.stats.dismissed, b.stats.dismissed);
  EXPECT_EQ(a.stats.visited_paths, b.stats.visited_paths);
}

/// A 12-process quad-core batch on a quarter-valued table: many nodes tie on
/// weight and several partitions are co-optimal, so which schedule OA*
/// returns, and how much work it does, depend on the order in which a
/// level's candidates are generated.
Problem tie_heavy_problem() {
  constexpr std::int32_t kU = 4;
  Problem p = random_serial_problem(12, kU, 21);
  auto model = std::make_shared<TabularDegradationModel>(p.n());
  std::vector<ProcessId> all(static_cast<std::size_t>(p.n()));
  std::iota(all.begin(), all.end(), 0);
  for_each_combination(all, kU, [&](const std::vector<ProcessId>& node) {
    for (std::size_t m = 0; m < node.size(); ++m) {
      std::vector<ProcessId> co;
      for (std::size_t j = 0; j < node.size(); ++j)
        if (j != m) co.push_back(node[j]);
      std::int32_t mix = 5 * node[m] + co[0] + 3 * co[1] + 7 * co[2];
      model->set(node[m], co, 0.25 * static_cast<Real>(mix % 4));
    }
    return true;
  });
  p.contention_model = model;
  p.full_model = model;
  return p;
}

/// Number of partitions of {0..n-1} into level-ordered machines whose total
/// weight equals `target` (quarter-valued weights sum exactly, so equality
/// is exact).
std::int32_t count_partitions_at(const NodeEvaluator& eval, std::int32_t n,
                                 std::int32_t u, std::vector<bool>& used,
                                 Real so_far, Real target) {
  std::int32_t lead = 0;
  while (lead < n && used[static_cast<std::size_t>(lead)]) ++lead;
  if (lead == n) return so_far == target ? 1 : 0;
  std::vector<ProcessId> pool;
  for (std::int32_t q = lead + 1; q < n; ++q)
    if (!used[static_cast<std::size_t>(q)]) pool.push_back(q);
  std::int32_t count = 0;
  for_each_combination(
      pool, static_cast<std::size_t>(u - 1),
      [&](const std::vector<ProcessId>& comb) {
        std::vector<ProcessId> node{lead};
        node.insert(node.end(), comb.begin(), comb.end());
        for (ProcessId q : node) used[static_cast<std::size_t>(q)] = true;
        count += count_partitions_at(eval, n, u, used,
                                     so_far + eval.weight(node), target);
        for (ProcessId q : node) used[static_cast<std::size_t>(q)] = false;
        return true;
      });
  return count;
}

TEST(SearchMechanics, TieOrderAndWorkArePinned) {
  // Pinned schedule and work counts: a change to the order in which a
  // level's candidates are generated (weight, then node lexicographically),
  // to the FIFO tie-break or to dismissal shows up here, even when the
  // objective stays optimal.
  Problem p = tie_heavy_problem();
  NodeEvaluator eval(p, *p.full_model);
  auto optimum = solve_brute_force(p);
  std::vector<bool> used(static_cast<std::size_t>(p.n()), false);
  ASSERT_GE(count_partitions_at(eval, p.n(), p.u(), used, 0.0,
                                optimum.objective),
            2)
      << "the landscape must have several co-optimal schedules";

  const std::vector<std::vector<ProcessId>> machines{
      {0, 2, 4, 6}, {1, 3, 7, 9}, {5, 8, 10, 11}};
  for (DismissPolicy dismiss :
       {DismissPolicy::PaperMinDistance, DismissPolicy::ParetoDominance}) {
    SCOPED_TRACE(static_cast<int>(dismiss));
    SearchOptions opt;
    opt.heuristic = HeuristicKind::Strategy2;  // the paper's h(v)
    opt.dismiss = dismiss;
    auto r = solve_oastar(p, opt);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.objective, optimum.objective);
    EXPECT_EQ(r.solution.machines, machines);
    EXPECT_EQ(r.stats.expanded, 39u);
    EXPECT_EQ(r.stats.generated, 407u);
    EXPECT_EQ(r.stats.dismissed, 107u);
    EXPECT_EQ(r.stats.visited_paths, 301u);
  }

  // The Lagrangian bound keeps λ = 0 on the landscape above (its zero-
  // weight nodes cover every process fractionally, so the relaxation is
  // worth 0), so its second pin is a tie-free 16-process batch, where the
  // fitted multipliers matter: the same optimum and schedule as Strategy 2
  // with a fraction of its work.
  Problem tie_free = random_serial_problem(16, 4, 22);
  SearchOptions s2;
  s2.heuristic = HeuristicKind::Strategy2;
  auto reference = solve_oastar(tie_free, s2);
  ASSERT_TRUE(reference.found);
  for (DismissPolicy dismiss :
       {DismissPolicy::PaperMinDistance, DismissPolicy::ParetoDominance}) {
    SCOPED_TRACE(static_cast<int>(dismiss));
    SearchOptions opt;
    opt.heuristic = HeuristicKind::Lagrangian;
    opt.dismiss = dismiss;
    auto r = solve_oastar(tie_free, opt);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.objective, reference.objective);
    EXPECT_EQ(r.solution.machines, reference.solution.machines);
    EXPECT_EQ(r.stats.expanded, 10u);
    EXPECT_EQ(r.stats.generated, 1024u);
    EXPECT_EQ(r.stats.dismissed, 23u);
    EXPECT_EQ(r.stats.visited_paths, 1002u);
  }
}

TEST(SearchMechanics, TwoWordSetsArePinned) {
  // 70 processes: every process set spans two 64-bit words, so the set
  // arena's stride, the dismissal table's key and the reconstruction by set
  // difference all cross a word boundary. Serial jobs, so both policies
  // dismiss alike.
  Problem p = random_serial_problem(70, 2, 17);
  const std::vector<std::vector<ProcessId>> machines{
      {0, 41},  {1, 63},  {2, 65},  {3, 55},  {4, 60},  {5, 68},  {6, 47},
      {7, 58},  {8, 61},  {9, 59},  {10, 48}, {11, 57}, {12, 67}, {13, 51},
      {14, 66}, {15, 43}, {16, 69}, {17, 50}, {18, 45}, {19, 62}, {20, 46},
      {21, 64}, {22, 52}, {23, 40}, {24, 54}, {25, 44}, {26, 39}, {27, 29},
      {28, 37}, {30, 42}, {31, 49}, {32, 38}, {33, 35}, {34, 53}, {36, 56}};
  for (DismissPolicy dismiss :
       {DismissPolicy::PaperMinDistance, DismissPolicy::ParetoDominance}) {
    SCOPED_TRACE(static_cast<int>(dismiss));
    SearchOptions opt;
    opt.dismiss = dismiss;
    auto r = solve_oastar(p, opt);
    expect_valid(p, r);
    EXPECT_EQ(r.objective, 9.4766702808563217);
    EXPECT_EQ(r.solution.machines, machines);
    EXPECT_EQ(r.stats.expanded, 161u);
    EXPECT_EQ(r.stats.generated, 8297u);
    EXPECT_EQ(r.stats.dismissed, 144u);
    EXPECT_EQ(r.stats.visited_paths, 8154u);
  }
}

TEST(SearchMechanics, ParetoChainsMatchBruteForceOnTwelveProcesses) {
  // Pareto dismissal keeps several records per process set (the chain the
  // dismissal table links through each record); on PE and PC mixes of 12
  // processes it must still return the exhaustive optimum.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (bool with_comm : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " comm " << with_comm);
      Problem p = with_comm ? random_pc_problem(4, {4, 4}, 4, seed)
                            : random_pe_problem(6, {3, 3}, 2, seed);
      ASSERT_EQ(p.n(), 12);
      SearchOptions opt;
      opt.dismiss = DismissPolicy::ParetoDominance;
      auto r = solve_oastar(p, opt);
      expect_valid(p, r);
      EXPECT_NEAR(r.objective, solve_brute_force(p).objective, 1e-9);
      EXPECT_NEAR(evaluate_solution(p, r.solution).total, r.objective, 1e-9);
    }
  }
}

TEST(SearchMechanics, ObjectiveConsistentAcrossAggregations) {
  // OA*-SE on a parallel mix: path distance equals the SumAllProcesses
  // evaluation of its own solution.
  Problem p = random_pe_problem(4, {3}, 2, 13);
  SearchOptions opt;
  opt.aggregation = Aggregation::SumAllProcesses;
  auto r = solve_oastar(p, opt);
  ASSERT_TRUE(r.found);
  auto ev = evaluate_solution(p, r.solution, *p.full_model,
                              Aggregation::SumAllProcesses);
  EXPECT_NEAR(ev.total, r.objective, 1e-9);
}

TEST(SearchMechanics, PeAwareObjectiveNoWorseThanSeSchedule) {
  // Scheduling with the correct Eq. 13 objective cannot lose to OA*-SE when
  // both are judged under Eq. 13 (the Fig. 6 comparison).
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    Problem p = random_pe_problem(6, {5}, 4, seed);
    SearchOptions se;
    se.aggregation = Aggregation::SumAllProcesses;
    auto r_se = solve_oastar(p, se);
    SearchOptions pe;
    pe.dismiss = DismissPolicy::ParetoDominance;
    auto r_pe = solve_oastar(p, pe);
    ASSERT_TRUE(r_se.found && r_pe.found);
    Real se_under_eq13 = evaluate_solution(p, r_se.solution).total;
    Real pe_under_eq13 = evaluate_solution(p, r_pe.solution).total;
    EXPECT_LE(pe_under_eq13, se_under_eq13 + 1e-9) << "seed " << seed;
  }
}

TEST(SearchMechanics, CommAwareObjectiveNoWorseThanCommBlind) {
  // OA*-PC vs OA*-PE judged under the full Eq. 9 objective (Fig. 7).
  for (std::uint64_t seed : {51u, 52u}) {
    Problem p = random_pc_problem(4, {4}, 4, seed);
    SearchOptions pe;
    pe.use_comm_model = false;
    pe.dismiss = DismissPolicy::ParetoDominance;
    auto r_pe = solve_oastar(p, pe);
    SearchOptions pc;
    pc.dismiss = DismissPolicy::ParetoDominance;
    auto r_pc = solve_oastar(p, pc);
    ASSERT_TRUE(r_pe.found && r_pc.found);
    Real pe_obj = evaluate_solution(p, r_pe.solution).total;
    Real pc_obj = evaluate_solution(p, r_pc.solution).total;
    EXPECT_LE(pc_obj, pe_obj + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cosched
