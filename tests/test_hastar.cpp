// Tests for HA* (heuristic A*) and the k-best candidate generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "core/degradation_models.hpp"
#include "graph/node_enumerator.hpp"
#include "test_helpers.hpp"
#include "util/combinatorics.hpp"

namespace cosched {
namespace {

using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

// ------------------------------------------------------- valid-node walker

std::vector<std::vector<ProcessId>> walk_level(
    ProcessId lead, const std::vector<ProcessId>& pool, std::int32_t u,
    std::size_t stop_after = 0) {
  std::vector<std::vector<ProcessId>> nodes;
  for_each_valid_node(lead, pool, u, [&](std::span<const ProcessId> node) {
    nodes.emplace_back(node.begin(), node.end());
    return nodes.size() != stop_after;
  });
  return nodes;
}

TEST(NodeEnumerator, WalksEveryValidNodeInLexicographicOrder) {
  const std::vector<ProcessId> pool{2, 3, 5, 8, 9, 11, 12};
  for (std::int32_t u : {2, 3, 4, 8}) {
    auto nodes = walk_level(1, pool, u);
    EXPECT_EQ(nodes.size(), binomial(pool.size(),
                                     static_cast<std::uint64_t>(u - 1)))
        << "u=" << u;
    EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end(),
                                 [](const auto& a, const auto& b) {
                                   return !(a < b);
                                 }),
              nodes.end())
        << "u=" << u << ": not strictly lexicographic";
    for (const auto& node : nodes) {
      ASSERT_EQ(node.size(), static_cast<std::size_t>(u));
      EXPECT_EQ(node.front(), 1);
      EXPECT_TRUE(std::is_sorted(node.begin(), node.end()));
    }
  }
  EXPECT_EQ(walk_level(1, pool, 3).front(), (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(walk_level(1, pool, 3).back(),
            (std::vector<ProcessId>{1, 11, 12}));
}

TEST(NodeEnumerator, SingleCoreLevelIsTheLeadAlone) {
  EXPECT_EQ(walk_level(4, {5, 6, 7}, 1),
            (std::vector<std::vector<ProcessId>>{{4}}));
  EXPECT_EQ(walk_level(4, {}, 1), (std::vector<std::vector<ProcessId>>{{4}}));
}

TEST(NodeEnumerator, ReturningFalseStopsAfterThatNode) {
  const std::vector<ProcessId> pool{1, 2, 3, 4, 5, 6};
  auto all = walk_level(0, pool, 3);
  for (std::size_t stop : {1u, 2u, 7u}) {
    auto some = walk_level(0, pool, 3, stop);
    ASSERT_EQ(some.size(), stop);
    EXPECT_TRUE(std::equal(some.begin(), some.end(), all.begin()));
  }
  EXPECT_EQ(walk_level(0, pool, 1, 1).size(), 1u);
}

// ------------------------------------------------------ k-best candidates

TEST(KBestNodes, ExactSelectionReturnsCheapestValidNodes) {
  Problem p = random_serial_problem(10, 2, 3);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> pool{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto k3 = k_best_valid_nodes(eval, 0, pool, 2, 3,
                               CandidateSelection::ExactSort);
  ASSERT_EQ(k3.size(), 3u);
  EXPECT_LE(k3[0].weight, k3[1].weight);
  EXPECT_LE(k3[1].weight, k3[2].weight);
  // Exhaustive check: no valid node is cheaper than k3[0].
  auto all = k_best_valid_nodes(eval, 0, pool, 2, 9,
                                CandidateSelection::ExactSort);
  EXPECT_NEAR(all[0].weight, k3[0].weight, 1e-12);
}

TEST(KBestNodes, SurrogateLandsNearTheExactBest) {
  // The pressure-sum surrogate orders candidates by inflicted load only;
  // the model's independent sensitivity dimension is invisible to it.
  Problem p = random_serial_problem(12, 4, 4);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> pool;
  for (ProcessId q = 1; q < p.n(); ++q) pool.push_back(q);
  auto exact = k_best_valid_nodes(eval, 0, pool, 4, 1,
                                  CandidateSelection::ExactSort);
  auto surrogate = k_best_valid_nodes(eval, 0, pool, 4, 1,
                                      CandidateSelection::SurrogateHeap,
                                      /*overgen=*/32);
  ASSERT_EQ(exact.size(), 1u);
  ASSERT_EQ(surrogate.size(), 1u);
  // The pressure-sum surrogate cannot rank the two-dimensional model
  // exactly (sensitivity is invisible to it); with over-generation it must
  // land close to the true cheapest node.
  EXPECT_GE(surrogate[0].weight, exact[0].weight - 1e-9);
  EXPECT_LE(surrogate[0].weight, exact[0].weight * 1.15 + 1e-9);
}

TEST(KBestNodes, CandidatesAreValidNodes) {
  Problem p = random_serial_problem(12, 4, 5);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> pool{2, 3, 5, 7, 8, 9, 10, 11};
  for (auto sel :
       {CandidateSelection::ExactSort, CandidateSelection::SurrogateHeap}) {
    auto cands = k_best_valid_nodes(eval, 1, pool, 4, 4, sel);
    for (const auto& c : cands) {
      ASSERT_EQ(c.node.size(), 4u);
      EXPECT_EQ(c.node[0], 1);
      EXPECT_TRUE(std::is_sorted(c.node.begin(), c.node.end()));
      for (std::size_t i = 1; i < c.node.size(); ++i)
        EXPECT_NE(std::find(pool.begin(), pool.end(), c.node[i]), pool.end());
      ASSERT_EQ(c.member_d.size(), 4u);
      Real sum = 0.0;
      for (Real d : c.member_d) sum += d;
      EXPECT_NEAR(sum, c.weight, 1e-12);
    }
  }
}

// The bounded k-best selection must return exactly the first k entries of
// a full sort by (weight, node): same nodes, same order, bit-equal weights
// and member degradations. Degradations are multiples of 1/4, so node
// weights tie often and the lexicographic node tie-break decides the order.
TEST(KBestNodes, BoundedSelectionMatchesFullSort) {
  constexpr std::int32_t kU = 3;
  Problem p = random_serial_problem(9, kU, 6);
  TabularDegradationModel model(p.n());
  const std::vector<ProcessId> pool{1, 2, 3, 4, 5, 6, 7, 8};
  for_each_valid_node(0, pool, kU, [&](std::span<const ProcessId> node) {
    for (std::size_t m = 0; m < node.size(); ++m) {
      std::vector<ProcessId> co;
      for (std::size_t j = 0; j < node.size(); ++j)
        if (j != m) co.push_back(node[j]);
      std::int32_t mix = 5 * node[m] + co[0] + 3 * co[1];
      model.set(node[m], co, 0.25 * static_cast<Real>(mix % 3));
    }
    return true;
  });
  NodeEvaluator eval(p, model);

  std::vector<NodeCandidate> reference;
  for_each_valid_node(0, pool, kU, [&](std::span<const ProcessId> node) {
    NodeCandidate c;
    c.node.assign(node.begin(), node.end());
    c.weight = eval.weight(node, c.member_d);
    reference.push_back(std::move(c));
    return true;
  });
  std::sort(reference.begin(), reference.end(),
            [](const NodeCandidate& a, const NodeCandidate& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              return a.node < b.node;
            });
  const auto level_size = static_cast<std::int32_t>(reference.size());
  ASSERT_EQ(level_size, 28);  // C(8, 2)
  std::size_t ties = 0;
  for (std::size_t i = 1; i < reference.size(); ++i)
    if (reference[i].weight == reference[i - 1].weight) ++ties;
  ASSERT_GE(ties, 10u) << "the landscape must exercise the tie-break";

  auto bits = [](Real x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::int32_t k : {1, 3, level_size, level_size + 5}) {
    auto got = k_best_valid_nodes(eval, 0, pool, kU, k,
                                  CandidateSelection::ExactSort);
    ASSERT_EQ(got.size(),
              static_cast<std::size_t>(std::min(k, level_size)))
        << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, reference[i].node) << "k=" << k << " i=" << i;
      EXPECT_EQ(bits(got[i].weight), bits(reference[i].weight))
          << "k=" << k << " i=" << i;
      ASSERT_EQ(got[i].member_d.size(), reference[i].member_d.size());
      for (std::size_t m = 0; m < got[i].member_d.size(); ++m)
        EXPECT_EQ(bits(got[i].member_d[m]), bits(reference[i].member_d[m]))
            << "k=" << k << " i=" << i << " m=" << m;
    }
  }
}

// ------------------------------------------------------------------- HA*

TEST(HaStar, ProducesValidSchedules) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Problem p = random_serial_problem(24, 4, seed);
    auto r = solve_hastar(p);
    ASSERT_TRUE(r.found) << "seed " << seed;
    validate_solution(p, r.solution);
  }
}

TEST(HaStar, NearOptimalOnSmallInstances) {
  // The paper reports HA* within ~10% of OA*; on small instances verify a
  // modest bound (and never better than the optimum).
  Real worst_ratio = 1.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Problem p = random_serial_problem(12, 4, seed);
    auto opt = solve_oastar(p);
    auto ha = solve_hastar(p);
    ASSERT_TRUE(opt.found && ha.found);
    EXPECT_GE(ha.objective, opt.objective - 1e-9) << "seed " << seed;
    if (opt.objective > 0)
      worst_ratio = std::max(worst_ratio, ha.objective / opt.objective);
  }
  // The threshold-shaped landscape makes the n/u candidate cap genuinely
  // lossy (see the Fig. 5 reproduction note); the paper-scale quality
  // comparison lives in fig10/fig11.
  EXPECT_LT(worst_ratio, 1.50);
}

TEST(HaStar, OftenExactAtPaperScales) {
  // Fig. 5's statistics imply MER <= n/u almost always, i.e. HA* == OA* on
  // most instances; check the average gap is small.
  Real total_gap = 0.0;
  int count = 0;
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    Problem p = random_serial_problem(16, 4, seed);
    auto opt = solve_oastar(p);
    auto ha = solve_hastar(p);
    ASSERT_TRUE(opt.found && ha.found);
    total_gap += (ha.objective - opt.objective) /
                 std::max<Real>(opt.objective, 1e-12);
    ++count;
  }
  EXPECT_LT(total_gap / count, 0.15);
}

TEST(HaStar, DefaultHeuristicRunsAsStrategy2) {
  // HA* runs the default Lagrangian bound with λ = 0, i.e. as Strategy 2:
  // the same schedule and the same work, on exact and approximate stats.
  for (std::uint64_t max_stats_nodes : {5'000'000ull, 100ull}) {
    Problem p = random_serial_problem(20, 4, 36);
    SearchOptions s2;
    s2.heuristic = HeuristicKind::Strategy2;
    s2.max_stats_nodes = max_stats_nodes;
    SearchOptions defaults;
    defaults.max_stats_nodes = max_stats_nodes;
    auto a = solve_hastar(p, defaults);
    auto b = solve_hastar(p, s2);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.solution.machines, b.solution.machines);
    EXPECT_EQ(a.stats.expanded, b.stats.expanded);
    EXPECT_EQ(a.stats.generated, b.stats.generated);
    EXPECT_EQ(a.stats.dismissed, b.stats.dismissed);
    EXPECT_EQ(a.stats.visited_paths, b.stats.visited_paths);
    EXPECT_EQ(a.stats.beam_pruned, b.stats.beam_pruned);
    EXPECT_EQ(a.stats.heuristic_evals, b.stats.heuristic_evals);
  }
}

TEST(HaStar, MerCapOneIsPureGreedy) {
  Problem p = random_serial_problem(16, 4, 31);
  SearchOptions opt;
  opt.mer_cap = 1;
  auto r = solve_hastar(p, opt);
  ASSERT_TRUE(r.found);
  validate_solution(p, r.solution);
  // Greedy (cap 1) cannot beat the wider HA*.
  auto wide = solve_hastar(p);
  EXPECT_GE(r.objective, wide.objective - 1e-9);
}

TEST(HaStar, VisitsFewerPathsThanOaStar) {
  Problem p = random_serial_problem(20, 4, 32);
  auto oa = solve_oastar(p);
  auto ha = solve_hastar(p);
  ASSERT_TRUE(oa.found && ha.found);
  EXPECT_LT(ha.stats.visited_paths, oa.stats.visited_paths);
}

TEST(HaStar, HandlesParallelJobs) {
  Problem p = random_pe_problem(10, {5, 3}, 4, 33);
  auto r = solve_hastar(p);
  ASSERT_TRUE(r.found);
  validate_solution(p, r.solution);
  auto ev = evaluate_solution(p, r.solution);
  EXPECT_NEAR(ev.total, r.objective, 1e-9);
}

TEST(HaStar, ScalesToHundredsOfProcessesViaApproxStats) {
  // Exercise the approximate level-stats + surrogate-heap path end to end.
  Problem p = random_serial_problem(240, 4, 34);
  SearchOptions opt;
  opt.max_stats_nodes = 100'000;  // force approx stats
  auto r = solve_hastar(p, opt);
  ASSERT_TRUE(r.found);
  validate_solution(p, r.solution);
  EXPECT_GT(r.objective, 0.0);
}

TEST(HaStar, OaStarRefusesApproxStats) {
  Problem p = random_serial_problem(24, 4, 35);
  SearchOptions opt;
  opt.max_stats_nodes = 10;  // cannot build exact stats
  EXPECT_THROW(solve_oastar(p, opt), ContractViolation);
}

}  // namespace
}  // namespace cosched
