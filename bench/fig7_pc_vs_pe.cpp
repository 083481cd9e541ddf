// Figure 7 — "Comparing the Degradation obtained by OA*-PC and OA*-PE".
//
// Four MPI jobs (BT-Par, LU-Par, MG-Par, CG-Par) mixed with serial jobs;
// OA*-PE ignores inter-process communication when scheduling, OA*-PC
// models it (Eq. 9). Both schedules are then judged under the full
// communication-combined degradation (CCD).
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "workload/benchmark_catalog.hpp"

using namespace cosched;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  print_experiment_header(
      "Figure 7 (ICPP'15)",
      "OA*-PC vs OA*-PE communication-combined degradation");
  // Paper: 11 processes per MPI job. Default 3 keeps the bench fast
  // (--pc-procs 11 for the full setting).
  const std::int32_t pc_procs =
      static_cast<std::int32_t>(args.get_int("pc-procs", 3));
  const std::size_t trace_length =
      static_cast<std::size_t>(args.get_int("trace", 50000));
  const Real halo = args.get_real("halo", 1.0e6);
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();

  for (std::uint32_t cores : {4u, 8u}) {
    CatalogProblemSpec spec;
    spec.cores = cores;
    spec.trace_length = trace_length;
    for (const auto& name : pc_program_names())
      spec.parallel_jobs.push_back({name, pc_procs, true, halo});
    spec.serial_programs = {"UA", "DC", "FT", "IS"};
    Problem p = build_catalog_problem(spec);

    SearchOptions pe;  // comm-blind scheduling (exact; Pareto dismissal)
    pe.use_comm_model = false;
    pe.dismiss = DismissPolicy::ParetoDominance;
    auto r_pe = solve_oastar(p, pe);
    SearchOptions pc;  // comm-aware scheduling
    pc.dismiss = DismissPolicy::ParetoDominance;
    auto r_pc = solve_oastar(p, pc);
    if (!r_pe.found || !r_pc.found) {
      std::cerr << "search failed\n";
      return 1;
    }
    // Judge both under the full model (Eq. 9 + Eq. 13).
    auto ev_pe = evaluate_solution(p, r_pe.solution);
    auto ev_pc = evaluate_solution(p, r_pc.solution);

    TextTable table({"job", "kind", "OA*-PC", "OA*-PE"});
    for (const Job& job : p.batch.jobs()) {
      if (job.kind == JobKind::Imaginary) continue;
      table.add_row({job.name, to_string(job.kind),
                     TextTable::fmt(
                         ev_pc.per_job[static_cast<std::size_t>(job.id)], 3),
                     TextTable::fmt(
                         ev_pe.per_job[static_cast<std::size_t>(job.id)], 3)});
    }
    table.add_row({"AVG", "-", TextTable::fmt(ev_pc.average_per_job, 3),
                   TextTable::fmt(ev_pe.average_per_job, 3)});
    std::cout << "\n--- " << cores << "-core machines ---\n"
              << table.render();
    Real gap = (ev_pe.average_per_job - ev_pc.average_per_job) /
               ev_pc.average_per_job * 100.0;
    std::cout << "OA*-PE average is worse than OA*-PC by "
              << TextTable::fmt(gap, 1)
              << "% (paper: 36.1% quad / 39.5% 8-core)\n";
    write_csv(out_dir, "fig7_" + std::to_string(cores) + "core", table);
  }
  return 0;
}
