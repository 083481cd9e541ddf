// Figure 8 — "Solving time with and without process condensation as the
// number of processes per parallel job increases".
//
// A fixed total process count with several parallel jobs whose per-job
// process count grows; OA*-PC runs with and without the condensation
// technique. The paper's shape: without condensation the time grows
// steeply with processes-per-job; with it the time stays low (symmetric
// parallel processes collapse).
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "util/timer.hpp"

using namespace cosched;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  print_experiment_header(
      "Figure 8 (ICPP'15)",
      "OA*-PC solving time with/without process condensation");
  // Paper: 72 total processes, 6 parallel jobs of 1..12 processes. OA* at
  // 72 processes needs hours per point on general hardware, so we default
  // to a 24-process scaled variant with 3 parallel jobs (--total 72
  // --jobs 6 --max-ppj 12 approaches the paper's full setting).
  const std::int32_t total =
      static_cast<std::int32_t>(args.get_int("total", 24));
  const std::int32_t njobs =
      static_cast<std::int32_t>(args.get_int("jobs", 3));
  const std::int32_t max_ppj =
      static_cast<std::int32_t>(args.get_int("max-ppj", 6));
  const Real point_limit = args.get_real("point-limit", 40.0);
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();

  TextTable table({"procs/job", "parallel procs", "serial jobs",
                   "time w/o condense (s)", "time w/ condense (s)",
                   "generated w/o", "generated w/"});
  for (std::int32_t ppj = 1; ppj <= max_ppj; ++ppj) {
    std::int32_t parallel_procs = njobs * ppj;
    if (parallel_procs > total) break;
    SyntheticProblemSpec spec;
    spec.landscape = SyntheticLandscape::Smooth;  // the h(v)-pruning regime
    spec.cores = 4;
    spec.serial_jobs = total - parallel_procs;
    spec.parallel_job_sizes.assign(static_cast<std::size_t>(njobs), ppj);
    spec.parallel_with_comm = true;
    spec.seed = 88 + static_cast<std::uint64_t>(ppj);
    Problem p = build_synthetic_problem(spec);

    auto run = [&](bool condense) {
      SearchOptions opt;
      opt.condense = condense;
      opt.time_limit_seconds = point_limit;
      WallTimer t;
      auto r = solve_oastar(p, opt);
      return std::tuple{t.seconds(), r.stats.generated, r.objective,
                        r.found};
    };
    auto [t_off, g_off, o_off, f_off] = run(false);
    auto [t_on, g_on, o_on, f_on] = run(true);
    if (f_off && f_on && std::abs(o_off - o_on) > 1e-9) {
      std::cerr << "condensation changed the optimum — bug\n";
      return 1;
    }
    auto cell = [](double secs, bool found) {
      std::string c = TextTable::fmt(secs, 3);
      if (!found) c += " (limit)";
      return c;
    };
    table.add_row({TextTable::fmt_int(ppj),
                   TextTable::fmt_int(parallel_procs),
                   TextTable::fmt_int(spec.serial_jobs),
                   cell(t_off, f_off), cell(t_on, f_on),
                   TextTable::fmt_int(static_cast<std::int64_t>(g_off)),
                   TextTable::fmt_int(static_cast<std::int64_t>(g_on))});
  }
  std::cout << table.render();
  std::cout << "\nPaper shape (Fig. 8): the gap between the two time "
               "columns widens as\nprocesses-per-job grows — condensation "
               "eliminates ever more symmetric nodes.\n";
  write_csv(out_dir, "fig8", table);
  return 0;
}
