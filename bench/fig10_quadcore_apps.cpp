// Figure 10 — "Comparing performance degradations of benchmarking
// applications on Quad-core machines under OA*, HA* and PG".
//
// 12 applications (BT, CG, EP, FT, IS, LU, MG, SP, UA, DC, art, ammp); the
// algorithms optimize the batch average ("AVG"), not individual jobs.
#include <iostream>

#include "astar/search.hpp"
#include "baseline/pg_greedy.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"

using namespace cosched;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t trace_length =
      static_cast<std::size_t>(args.get_int("trace", 50000));
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();
  print_experiment_header(
      "Figure 10 (ICPP'15)",
      "Per-application degradation under OA*, HA*, PG — quad-core");

  CatalogProblemSpec spec;
  spec.cores = 4;
  spec.serial_programs = {"BT", "CG", "EP", "FT", "IS", "LU",
                          "MG", "SP", "UA", "DC", "art", "ammp"};
  spec.trace_length = trace_length;
  Problem p = build_catalog_problem(spec);

  auto oa = solve_oastar(p);
  auto ha = solve_hastar(p);
  Solution pg = solve_pg_greedy(p);
  if (!oa.found || !ha.found) {
    std::cerr << "search failed\n";
    return 1;
  }
  auto ev_oa = evaluate_solution(p, oa.solution);
  auto ev_ha = evaluate_solution(p, ha.solution);
  auto ev_pg = evaluate_solution(p, pg);

  TextTable table({"app", "OA* (%)", "HA* (%)", "PG (%)"});
  for (const Job& job : p.batch.jobs()) {
    if (job.kind == JobKind::Imaginary) continue;
    auto cell = [&](const Evaluation& ev) {
      return TextTable::fmt(
          ev.per_job[static_cast<std::size_t>(job.id)] * 100.0, 2);
    };
    table.add_row({job.name, cell(ev_oa), cell(ev_ha), cell(ev_pg)});
  }
  table.add_row({"AVG", TextTable::fmt(ev_oa.average_per_job * 100.0, 2),
                 TextTable::fmt(ev_ha.average_per_job * 100.0, 2),
                 TextTable::fmt(ev_pg.average_per_job * 100.0, 2)});
  std::cout << table.render();

  Real ha_vs_oa =
      (ev_ha.average_per_job - ev_oa.average_per_job) /
      ev_oa.average_per_job * 100.0;
  Real pg_vs_ha =
      (ev_pg.average_per_job - ev_ha.average_per_job) /
      ev_ha.average_per_job * 100.0;
  std::cout << "\nHA* worse than OA* by " << TextTable::fmt(ha_vs_oa, 1)
            << "% (paper: 9.8%); HA* better than PG by "
            << TextTable::fmt(pg_vs_ha, 1) << "% (paper: 12.6%).\n";
  write_csv(out_dir, "fig10", table);
  return 0;
}
