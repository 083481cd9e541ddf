// Ablation (beyond the paper): the dismissal policy with parallel jobs.
//
// DESIGN.md §3 notes that the paper's per-process-set min-distance
// dismissal (Theorem 1) is not exact once parallel jobs introduce
// max-aggregation. This bench quantifies the gap between
// DismissPolicy::PaperMinDistance and the exact ParetoDominance mode over
// random PE mixes, alongside the cost (visited paths) of exactness.
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"

using namespace cosched;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::int64_t trials = args.get_int("trials", 20);
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();
  print_experiment_header(
      "Ablation (this work)",
      "Paper min-distance dismissal vs exact Pareto dismissal, PE mixes");

  TextTable table({"seed", "paper obj", "pareto obj", "gap %",
                   "paper paths", "pareto paths"});
  int suboptimal = 0;
  Real worst_gap = 0.0;
  for (std::int64_t seed = 1; seed <= trials; ++seed) {
    SyntheticProblemSpec spec;
    spec.cores = 2;
    spec.serial_jobs = 5;
    spec.parallel_job_sizes = {3, 2};
    spec.seed = static_cast<std::uint64_t>(seed);
    Problem p = build_synthetic_problem(spec);

    SearchOptions paper;
    paper.dismiss = DismissPolicy::PaperMinDistance;
    SearchOptions pareto;
    pareto.dismiss = DismissPolicy::ParetoDominance;
    auto r_paper = solve_oastar(p, paper);
    auto r_pareto = solve_oastar(p, pareto);
    if (!r_paper.found || !r_pareto.found) {
      std::cerr << "search failed\n";
      return 1;
    }
    if (r_paper.objective < r_pareto.objective - 1e-9) {
      std::cerr << "BUG: paper dismissal beat the exact optimum\n";
      return 1;
    }
    Real gap = (r_paper.objective - r_pareto.objective) /
               r_pareto.objective * 100.0;
    if (gap > 1e-6) ++suboptimal;
    worst_gap = std::max(worst_gap, gap);
    table.add_row(
        {TextTable::fmt_int(seed), TextTable::fmt(r_paper.objective, 4),
         TextTable::fmt(r_pareto.objective, 4), TextTable::fmt(gap, 2),
         TextTable::fmt_int(
             static_cast<std::int64_t>(r_paper.stats.visited_paths)),
         TextTable::fmt_int(
             static_cast<std::int64_t>(r_pareto.stats.visited_paths))});
  }
  std::cout << table.render();
  std::cout << "\nFinding: the paper's dismissal returned a suboptimal "
               "schedule on " << suboptimal << "/" << trials
            << " instances (worst gap " << TextTable::fmt(worst_gap, 2)
            << "%); Pareto dismissal is exact at the cost of a larger "
               "priority list.\n";
  write_csv(out_dir, "ablation_dismissal",
            table);
  return 0;
}
