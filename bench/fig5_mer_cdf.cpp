// Figure 5 — "Cumulative Distribution Function (CDF) of MER".
//
// Random SDC-backed synthetic graphs (miss rate uniform over discrete
// values in [15%, 75%], per the paper's generator); OA* computes the
// shortest path and MER is measured against the weight-sorted levels.
//
// REPRODUCTION NOTE (see EXPERIMENTS.md): the paper reports MER <= n/u for
// ~98-99% of graphs. Under our degradation synthesis the MER distribution
// is wider — the optimal schedule's early machines do not hug the cheap
// end of their levels — so this bench reports the *measured* CDF next to
// the paper's bound rather than asserting it. The operative downstream
// claim (HA* with cap n/u stays within ~10% of OA*) is reproduced
// independently by fig10/fig11/fig12.
#include <iostream>

#include "astar/mer.hpp"
#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "util/stats.hpp"

using namespace cosched;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  print_experiment_header("Figure 5 (ICPP'15)",
                          "CDF of MER over random co-scheduling graphs");
  // Paper: 24/32/48/56 jobs, K = 1000 graphs. OA* on SDC-synthetic
  // instances is plateau-heavy, so defaults are scaled down; raise with
  // --graphs / --jobs-list-style flags as time allows.
  const std::int64_t K = args.get_int("graphs", 8);
  const std::int64_t max_jobs = args.get_int("max-jobs", 16);
  const Real solve_limit = args.get_real("point-limit", 30.0);
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();

  TextTable table({"cores", "jobs", "n/u", "P[MER<=n/u]", "p50", "p90",
                   "max", "solved"});
  for (std::uint32_t cores : {4u, 8u}) {
    for (std::int32_t jobs : {16, 24, 32, 48, 56}) {
      if (jobs > max_jobs) continue;
      std::vector<Real> mers;
      for (std::int64_t g = 0; g < K; ++g) {
        SdcSyntheticSpec spec;
        spec.cores = cores;
        spec.serial_jobs = jobs;
        spec.seed = static_cast<std::uint64_t>(g) * 977 +
                    static_cast<std::uint64_t>(jobs) * 13 + cores;
        Problem p = build_sdc_synthetic_problem(spec);
        SearchOptions opt;
        opt.time_limit_seconds = solve_limit;
        auto r = solve_oastar(p, opt);
        if (!r.found) continue;  // timed-out graph: skip
        NodeEvaluator eval(p, *p.full_model);
        mers.push_back(
            static_cast<Real>(compute_mer(eval, r.solution).mer));
      }
      if (mers.empty()) continue;
      Real bound = static_cast<Real>(jobs) / cores;
      auto cdf_at_bound = empirical_cdf(mers, {bound});
      table.add_row(
          {TextTable::fmt_int(cores), TextTable::fmt_int(jobs),
           TextTable::fmt(bound, 0),
           TextTable::fmt(cdf_at_bound[0].fraction * 100.0, 1) + "%",
           TextTable::fmt(percentile(mers, 0.50), 0),
           TextTable::fmt(percentile(mers, 0.90), 0),
           TextTable::fmt(percentile(mers, 1.0), 0),
           TextTable::fmt_int(static_cast<std::int64_t>(mers.size())) +
               "/" + TextTable::fmt_int(K)});
    }
  }
  std::cout << table.render();
  std::cout << "\nPaper: P[MER <= n/u] ≈ 98-100% and MER shrinks with more "
               "cores (Fig. 5).\nMeasured: our MER distribution is wider "
               "(see the reproduction note in this\nfile and EXPERIMENTS.md)"
               " — the n/u cap is a genuine heuristic here, whose\nquality "
               "cost is quantified by fig10/fig11/fig12.\n";
  write_csv(out_dir, "fig5", table);
  return 0;
}
