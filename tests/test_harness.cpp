// Tests for the experiment harness utilities and level statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "graph/level_stats.hpp"
#include "harness/experiment.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::random_pc_problem;
using testhelpers::random_pe_problem;
using testhelpers::random_serial_problem;

// ------------------------------------------------------------- ArgParser

TEST(ArgParser, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--jobs", "24", "--scale=2.5", "--flag"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("jobs", 0), 24);
  EXPECT_DOUBLE_EQ(args.get_real("scale", 0.0), 2.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  args.reject_unread();  // returns: every given flag was read
}

TEST(ArgParser, FlagFollowedByFlagHasEmptyValue) {
  const char* argv[] = {"prog", "--a", "--b", "x"};
  ArgParser args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get_string("a", "none"), "");
  EXPECT_EQ(args.get_string("b", "none"), "x");
}

// A numeric flag whose value is not entirely a number ends the process
// with status 2 and a message naming the flag, instead of an uncaught
// exception or a silently truncated value.
TEST(ArgParserDeathTest, BadNumericValuesExitWithStatus2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog",       "--port",  "abc",
                        "--workers",  "2x",      "--huge",
                        "99999999999999999999", "--scale", "0.5x",
                        "--rate",     "fast"};
  ArgParser args(11, const_cast<char**>(argv));
  EXPECT_EXIT(args.get_int("port", 0), ::testing::ExitedWithCode(2),
              "bad value for --port: abc");
  EXPECT_EXIT(args.get_int("workers", 0), ::testing::ExitedWithCode(2),
              "bad value for --workers: 2x");
  EXPECT_EXIT(args.get_int("huge", 0), ::testing::ExitedWithCode(2),
              "bad value for --huge: 99999999999999999999");
  EXPECT_EXIT(args.get_real("scale", 0.0), ::testing::ExitedWithCode(2),
              "bad value for --scale: 0.5x");
  EXPECT_EXIT(args.get_real("rate", 0.0), ::testing::ExitedWithCode(2),
              "bad value for --rate: fast");
}

// A flag nothing read — misspelt, removed, or belonging to a path the run
// did not take — ends the process with status 2 and names the flag, the
// same way a bad value does.
TEST(ArgParserDeathTest, UnreadFlagExitsWithStatus2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--requests", "80", "--shape", "pareto"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("requests", 0), 80);
  EXPECT_EXIT(args.reject_unread(), ::testing::ExitedWithCode(2),
              "unknown flag --shape");
  // Reading it afterwards is what clears it.
  EXPECT_EQ(args.get_string("shape", ""), "pareto");
  args.reject_unread();
}

// The tracer flags every server shares exit the same way: a --trace-ring
// below 1 instead of a cast to an unbounded ring.
TEST(ArgParserDeathTest, TraceRingBelowOneExitsWithStatus2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* ring : {"-1", "0"}) {
    const char* argv[] = {"prog", "--trace-ring", ring};
    ArgParser args(3, const_cast<char**>(argv));
    EXPECT_EXIT(read_trace_flags(args), ::testing::ExitedWithCode(2),
                std::string("bad value for --trace-ring: ") + ring);
  }
}

TEST(SplitHostPort, AcceptsOnlyWholePortsInRange) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(split_host_port("127.0.0.1:7731", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7731);
  for (const char* bad : {"127.0.0.1:abc", "127.0.0.1:70000", "h:0", "h:-1",
                          "h:80x", "h:", "no-colon"})
    EXPECT_FALSE(split_host_port(bad, host, port)) << bad;
}

TEST(WriteCsv, RoundTripsTableContents) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::string dir = std::filesystem::temp_directory_path() /
                    "cosched_csv_test";
  std::string path = write_csv(dir, "unit", t);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ LevelStats

TEST(LevelStats, ExactMinimaMatchBruteEnumeration) {
  Problem p = random_serial_problem(10, 2, 7);
  NodeEvaluator eval(p, *p.full_model);
  LevelStats stats = LevelStats::build_exact(eval);
  EXPECT_TRUE(stats.exact());
  EXPECT_EQ(stats.total_nodes(), 45u);  // C(10,2)

  // Check level 3 by hand: nodes {3,k} for k in 4..9.
  Real min_w = kInfinity;
  for (ProcessId k = 4; k < 10; ++k) {
    std::vector<ProcessId> node{3, k};
    min_w = std::min(min_w, eval.weight(node));
  }
  EXPECT_NEAR(stats.min_level_weight(3), min_w, 1e-12);
}

TEST(LevelStats, Strategy1SumsGloballyCheapestBeyondLevel) {
  Problem p = random_serial_problem(8, 2, 8);
  NodeEvaluator eval(p, *p.full_model);
  LevelStats stats = LevelStats::build_exact(
      eval, 20'000'000, HeuristicKind::Strategy1);
  // k = 0 -> 0; monotone in k; taking from later levels only can't be
  // cheaper than from all levels.
  EXPECT_DOUBLE_EQ(stats.strategy1_h(-1, 0), 0.0);
  Real h1 = stats.strategy1_h(-1, 1);
  Real h2 = stats.strategy1_h(-1, 2);
  EXPECT_GE(h2, h1);
  EXPECT_GE(stats.strategy1_h(3, 1), 0.0);
  // From the root (every level qualifies) h is the sum of the k globally
  // smallest node h-weights; the stats keep weights as float, hence the
  // tolerance.
  std::vector<Real> weights;
  for (ProcessId a = 0; a < p.n(); ++a)
    for (ProcessId b = a + 1; b < p.n(); ++b) {
      std::vector<ProcessId> node{a, b};
      weights.push_back(eval.h_weight(node));
    }
  std::sort(weights.begin(), weights.end());
  Real brute = 0.0;
  for (std::int32_t k = 1; k <= 3; ++k) {
    brute += weights[static_cast<std::size_t>(k - 1)];
    EXPECT_NEAR(stats.strategy1_h(-1, k), brute, 1e-6) << "k=" << k;
  }
  // Restricting to levels > 3 cannot find cheaper nodes than levels > -1.
  EXPECT_GE(stats.strategy1_h(3, 2) + 1e-12, stats.strategy1_h(-1, 2) - 1e-9);
}

TEST(LevelStats, Strategy2TakesKSmallestUnscheduledMinima) {
  Problem p = random_serial_problem(8, 2, 9);
  NodeEvaluator eval(p, *p.full_model);
  LevelStats stats = LevelStats::build_exact(eval);
  std::vector<ProcessId> unscheduled{0, 1, 2, 3, 4, 5, 6, 7};
  Real h_all4 = stats.strategy2_h(unscheduled, 4);
  // Sum of the 4 smallest minima over levels 0..6 (7 can't lead: 7+2>8).
  std::vector<Real> minima;
  for (ProcessId lead = 0; lead + 2 <= 8; ++lead)
    minima.push_back(stats.min_level_weight(lead));
  std::sort(minima.begin(), minima.end());
  Real expected = minima[0] + minima[1] + minima[2] + minima[3];
  EXPECT_NEAR(h_all4, expected, 1e-12);
  EXPECT_DOUBLE_EQ(stats.strategy2_h(unscheduled, 0), 0.0);
}

TEST(LevelStats, LagrangianRootBoundLiesBetweenStrategy2AndOptimum) {
  // Serial, PE and PC batches under Eq. 13 with admissible h-weights: the
  // fitted bound at the root never exceeds the brute-force optimum and
  // never falls below Strategy 2, its own λ = 0 instance (less the rounding
  // slack, far below the tolerance).
  std::vector<Problem> problems;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    problems.push_back(random_serial_problem(12, 4, seed));
    problems.push_back(random_serial_problem(10, 2, seed + 10));
    problems.push_back(random_pe_problem(4, {3, 3}, 2, seed + 20));
    problems.push_back(random_pc_problem(2, {3, 3}, 4, seed + 30));
  }
  std::int32_t tighter = 0;
  for (const Problem& p : problems) {
    NodeEvaluator eval(p, *p.full_model);
    LevelStats s2 = LevelStats::build_exact(eval);
    LevelStats lagrangian = LevelStats::build_exact(
        eval, 20'000'000, HeuristicKind::Lagrangian);
    std::vector<ProcessId> all(static_cast<std::size_t>(p.n()));
    std::iota(all.begin(), all.end(), 0);
    const std::int32_t k = p.n() / p.u();
    const Real h2 = s2.strategy2_h(all, k);
    const Real h = lagrangian.lagrangian_h(all, k);
    const Real optimum = solve_brute_force(p).objective;
    EXPECT_GE(h, h2 - 1e-9) << "n=" << p.n() << " u=" << p.u();
    EXPECT_LE(h, optimum) << "n=" << p.n() << " u=" << p.u();
    if (h > h2 + 1e-9) ++tighter;
  }
  EXPECT_GE(tighter, 6) << "the multipliers should tighten most roots";
}

TEST(LevelStats, LagrangianWithZeroMultipliersIsStrategy2BitForBit) {
  // Builds that do not fit λ (Strategy 2 exact, approximate) carry λ = 0,
  // and there the Lagrangian bound is Strategy 2 exactly.
  Problem p = random_serial_problem(12, 4, 5);
  NodeEvaluator eval(p, *p.full_model);
  for (const LevelStats& stats :
       {LevelStats::build_exact(eval), LevelStats::build_approx(eval)}) {
    for (ProcessId q = 0; q < p.n(); ++q) {
      EXPECT_EQ(stats.multiplier(q), 0.0);
      EXPECT_EQ(stats.min_reduced_weight(q), stats.min_level_weight(q));
    }
    for (std::int32_t skip = 0; skip < p.n(); skip += 3) {
      std::vector<ProcessId> unscheduled;
      for (ProcessId q = skip; q < p.n(); ++q) unscheduled.push_back(q);
      for (std::int32_t k = 0; k <= 3; ++k)
        EXPECT_EQ(stats.lagrangian_h(unscheduled, k),
                  stats.strategy2_h(unscheduled, k))
            << "skip=" << skip << " k=" << k;
    }
  }
}

TEST(LevelStats, ApproxBuildProvidesFiniteEstimates) {
  Problem p = random_serial_problem(40, 4, 10);
  NodeEvaluator eval(p, *p.full_model);
  LevelStats stats = LevelStats::build_approx(eval);
  EXPECT_FALSE(stats.exact());
  for (ProcessId lead = 0; lead + 4 <= 40; ++lead) {
    Real w = stats.min_level_weight(lead);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kInfinity);
  }
}

TEST(LevelStats, ExactBuildRefusesOversizedGraphs) {
  Problem p = random_serial_problem(40, 4, 11);
  NodeEvaluator eval(p, *p.full_model);
  EXPECT_THROW(
      LevelStats::build_exact(eval, /*max=*/1000),
      ContractViolation);
}

// ----------------------------------------------------------- beam search

TEST(BeamSearch, ExplicitBeamWidthMatchesValidity) {
  Problem p = random_serial_problem(32, 4, 12);
  SearchOptions opt;
  opt.heuristic_search = true;
  opt.beam_width = 4;
  auto r = CoScheduleSearch(p, opt).run();
  ASSERT_TRUE(r.found);
  validate_solution(p, r.solution);
  auto ev = evaluate_solution(p, r.solution);
  EXPECT_NEAR(ev.total, r.objective, 1e-9);
}

TEST(BeamSearch, WiderBeamIsNoWorse) {
  Problem p = random_serial_problem(48, 4, 13);
  SearchOptions narrow;
  narrow.heuristic_search = true;
  narrow.beam_width = 1;
  SearchOptions wide;
  wide.heuristic_search = true;
  wide.beam_width = 24;
  auto r_narrow = CoScheduleSearch(p, narrow).run();
  auto r_wide = CoScheduleSearch(p, wide).run();
  ASSERT_TRUE(r_narrow.found && r_wide.found);
  EXPECT_LE(r_wide.objective, r_narrow.objective + 1e-9);
}

TEST(BeamSearch, DeterministicAcrossRuns) {
  Problem p = random_serial_problem(60, 4, 14);
  SearchOptions opt;
  opt.heuristic_search = true;
  opt.beam_width = 8;
  auto a = CoScheduleSearch(p, opt).run();
  auto b = CoScheduleSearch(p, opt).run();
  ASSERT_TRUE(a.found && b.found);
  EXPECT_EQ(a.solution.machines, b.solution.machines);
}

TEST(BeamSearch, TimeLimitReportsTimeout) {
  Problem p = random_serial_problem(240, 4, 15);
  SearchOptions opt;
  opt.heuristic_search = true;
  opt.max_stats_nodes = 1000;      // force beam
  opt.time_limit_seconds = 1e-9;   // immediate
  auto r = CoScheduleSearch(p, opt).run();
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.found);
}

}  // namespace
}  // namespace cosched
