// offline-oastar: seeded SE / PE / PC batches on 4-core machines, each
// solved exactly by solve_oastar with the comm model and condensation on.
// No online or RPC code runs.
//
// A pass is 48 instances: 42 serial batches of 16 processes (the paper's
// OA* regime; their solve times are tight, so p50 and p90 land in the
// middle of them) and 3 + 3 batches of 8 serial jobs plus one 4-process PE
// or PC job. Serial batches use the shipped default search options (the
// paper's minimum-distance dismissal, exact for them by Theorem 1); the
// PE/PC batches use Pareto dismissal, since the paper's rule is not exact
// with parallel jobs and every solve is checked for optimality.
// Exact Pareto dismissal on 16-process PE/PC batches takes 0.1-0.5 s with
// a long tail, which would leave a run with a handful of unsteady samples;
// the 12-process ones exercise the same comm and condensation paths and are
// small enough to check against solve_brute_force every pass.
#include <cmath>
#include <optional>

#include "astar/search.hpp"
#include "baseline/brute_force.hpp"
#include "baseline/pg_greedy.hpp"
#include "bench.hpp"
#include "core/builders.hpp"
#include "core/objective.hpp"
#include "vm/migration.hpp"

namespace perfbench {

namespace {

using namespace cosched;

constexpr std::int32_t kInstancesPerPass = 48;
constexpr std::int32_t kBruteForceMaxProcesses = 12;
constexpr std::int32_t kWarmupSolves = 24;

struct Instance {
  Problem problem;
  Solution incumbent;  ///< PG greedy placement the optimum replaces
};

Problem build_instance(std::uint64_t seed, std::uint64_t pass,
                       std::int32_t index) {
  SyntheticProblemSpec spec;
  spec.cores = 4;
  spec.seed = mix_seed(seed, pass, static_cast<std::uint64_t>(index));
  switch (index % 16) {
    case 14:  // SE + PE
      spec.serial_jobs = 8;
      spec.parallel_job_sizes = {4};
      break;
    case 15:  // SE + PC
      spec.serial_jobs = 8;
      spec.parallel_job_sizes = {4};
      spec.parallel_with_comm = true;
      break;
    default:  // SE
      spec.serial_jobs = 16;
      break;
  }
  return build_synthetic_problem(spec);
}

SearchOptions exact_options(const Problem& problem) {
  SearchOptions options;
  if (problem.n() <= kBruteForceMaxProcesses)  // the PE / PC batches
    options.dismiss = DismissPolicy::ParetoDominance;
  return options;
}

bool same_objective(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

Report run_offline_oastar(const RunOptions& options) {
  Report report;
  report.workload = "offline-oastar";
  SpanLog spans(options.trace);
  SearchStats totals;
  double busy_search_s = 0.0;
  double slowdown_sum = 0.0, migration_sum = 0.0;
  std::uint64_t solved = 0, brute_checked = 0, ratio_count = 0;
  double ratio_sum = 0.0;
  double deadline = 0.0;
  std::uint64_t op = 0;

  std::optional<CpuPin> pin(std::in_place);
  for (std::uint64_t pass = 0;; ++pass) {
    // ---- set-up: instance generation, incumbents, warm-up --------------
    // The first pass warms up on its first kWarmupSolves batches: solve
    // times kept falling over the first ~20 solves of a process (the
    // allocator settles its mmap threshold), which dragged p50 with however
    // many passes a run got through. Later passes warm up on one batch, the
    // same for every seed and pass, so that every set-up after the first
    // does the same work (the batches' own solve times vary by 2x).
    const double setup_start = pass == 0 ? 0.0 : now_seconds();
    std::vector<Instance> instances;
    instances.reserve(kInstancesPerPass);
    for (std::int32_t i = 0; i < kInstancesPerPass; ++i) {
      Instance instance{build_instance(options.seed, pass, i), {}};
      instance.incumbent = solve_pg_greedy(instance.problem);
      instances.push_back(std::move(instance));
    }
    if (pass == 0) {
      for (std::int32_t i = 0; i < kWarmupSolves; ++i) {
        const Problem& problem =
            instances[static_cast<std::size_t>(i)].problem;
        (void)solve_oastar(problem, exact_options(problem));
      }
    } else {
      const Problem warmup = build_instance(0, 0, 0);
      (void)solve_oastar(warmup, exact_options(warmup));
    }
    report.setups.push_back({setup_start, now_seconds()});
    if (pass == 0) deadline = now_seconds() + options.seconds;

    SearchStats pass_stats;
    double pass_objective = 0.0;
    std::uint64_t pass_solved = 0;
    for (Instance& instance : instances) {
      if (pass > 0 && now_seconds() >= deadline) break;
      const Problem& problem = instance.problem;
      const double start = now_seconds();
      SearchResult result;
      {
        ScopedSpan span(spans, "solve_oastar", ++op);
        result = solve_oastar(problem, exact_options(problem));
      }
      const double end = now_seconds();
      ++report.attempted;
      report.ops.push_back({start, end});
      report.pace.sample_if_due();

      // ---- correctness, outside the timed call ---------------------------
      if (!result.found) {
        report.fail("pass " + std::to_string(pass) + ": no solution");
        continue;
      }
      Evaluation evaluation;
      try {
        evaluation = evaluate_solution(problem, result.solution);
      } catch (const ContractViolation& violation) {
        report.fail(std::string("invalid schedule: ") + violation.what());
        continue;
      }
      if (!same_objective(evaluation.total, result.objective)) {
        report.fail("claimed objective does not re-evaluate");
        continue;
      }
      if (problem.n() <= kBruteForceMaxProcesses) {
        ++brute_checked;
        BruteForceResult brute = solve_brute_force(problem);
        if (!same_objective(result.objective, brute.objective)) {
          report.fail("pass " + std::to_string(pass) + ": OA* " +
                      std::to_string(result.objective) + " != brute force " +
                      std::to_string(brute.objective));
          continue;
        }
      }
      const SearchStats& s = result.stats;
      pass_stats.expanded += s.expanded;
      pass_stats.generated += s.generated;
      pass_stats.heuristic_evals += s.heuristic_evals;
      pass_stats.dismissed += s.dismissed;
      pass_stats.condensed_skips += s.condensed_skips;
      pass_stats.precompute_seconds += s.precompute_seconds;
      pass_stats.search_seconds += s.search_seconds;
      pass_objective += result.objective;
      ++pass_solved;
      const double incumbent =
          evaluate_solution(problem, instance.incumbent).total;
      if (incumbent > 0.0) {
        ratio_sum += result.objective / incumbent;
        ++ratio_count;
      }
      slowdown_sum += 1.0 + evaluation.average_per_job;
      migration_sum += min_migrations(instance.incumbent, result.solution);
    }
    if (pass == 0) {
      char objective[64];
      std::snprintf(objective, sizeof(objective), "%.17g", pass_objective);
      report.fingerprint["solves"] = std::to_string(pass_solved);
      report.fingerprint["astar_expanded"] =
          std::to_string(pass_stats.expanded);
      report.fingerprint["astar_generated"] =
          std::to_string(pass_stats.generated);
      report.fingerprint["astar_heuristic_evals"] =
          std::to_string(pass_stats.heuristic_evals);
      report.fingerprint["objective_sum"] = objective;
    }
    totals.expanded += pass_stats.expanded;
    totals.generated += pass_stats.generated;
    totals.heuristic_evals += pass_stats.heuristic_evals;
    totals.dismissed += pass_stats.dismissed;
    totals.condensed_skips += pass_stats.condensed_skips;
    totals.precompute_seconds += pass_stats.precompute_seconds;
    busy_search_s += pass_stats.search_seconds;
    solved += pass_solved;
    report.rounds = pass + 1;
    if (now_seconds() >= deadline) break;
  }
  if (brute_checked == 0) report.fail("no instance was checked by brute force");

  pin.reset();
  const double n = solved ? static_cast<double>(solved) : 1.0;
  report.degradation = ratio_count ? ratio_sum / ratio_count : 0.0;
  report.slowdown = slowdown_sum / n;
  report.migrations_per_replan = migration_sum / n;
  report.quality_decisions = ratio_count;
  report.quality_jobs = solved;
  report.quality_replans = solved;
  report.peak_rss_mb = peak_rss_mb();
  if (!options.trace) return report;

  report.layer("astar.searches", 1.0, "count/op");
  report.layer("astar.expanded", totals.expanded / n, "count/op");
  report.layer("astar.generated", totals.generated / n, "count/op");
  report.layer("astar.heuristic_evals", totals.heuristic_evals / n,
               "count/op");
  report.layer("astar.dismissed", totals.dismissed / n, "count/op");
  report.layer("astar.useful_ratio",
               totals.generated ? static_cast<double>(totals.expanded) /
                                      static_cast<double>(totals.generated)
                                : 0.0,
               "ratio");
  report.layer("astar.busy_s",
               (busy_search_s + totals.precompute_seconds) / n, "s/op");
  report.layer("astar.precompute_s", totals.precompute_seconds / n, "s/op");
  report.layer("graph.condensed_skips", totals.condensed_skips / n,
               "count/op");
  report.layer("vm.migrations", migration_sum / n, "count/op");
  report.notes = spans.summary();
  spans.write_chrome_json(options.out_dir + "/offline-oastar.spans.json");
  return report;
}

}  // namespace perfbench
