// Table II — "Comparison of IP and OA* for serial and parallel jobs".
//
// MG-Par and LU-Par (2-4 processes each) mixed with SPEC/NPB serial
// programs exactly as the paper lists:
//   8 procs:  MG-Par, LU-Par + applu, art, equake, vpr
//   12 procs: MG-Par, LU-Par + applu, art, ammp, equake, galgel, vpr
//   16 procs: MG-Par, LU-Par + BT, IS, applu, art, ammp, equake, galgel, vpr
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "ip/branch_and_bound.hpp"
#include "ip/ip_model.hpp"

using namespace cosched;

namespace {

CatalogProblemSpec mix_spec(std::int32_t total_procs, std::uint32_t cores) {
  CatalogProblemSpec spec;
  spec.cores = cores;
  // Parallel process counts grow with the batch (paper: "varies from 2 to
  // 4"): 2+2 serialless -> at 8 procs use 2+2, at 12 use 3+3, at 16 use 4+4.
  std::int32_t par = total_procs == 8 ? 2 : (total_procs == 12 ? 3 : 4);
  spec.parallel_jobs.push_back({"MG-Par", par, true, 2.0e5});
  spec.parallel_jobs.push_back({"LU-Par", par, true, 2.0e5});
  std::vector<std::string> serial;
  if (total_procs == 8)
    serial = {"applu", "art", "equake", "vpr"};
  else if (total_procs == 12)
    serial = {"applu", "art", "ammp", "equake", "galgel", "vpr"};
  else
    serial = {"BT", "IS", "applu", "art", "ammp", "equake", "galgel", "vpr"};
  spec.serial_programs = std::move(serial);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t trace_length =
      static_cast<std::size_t>(args.get_int("trace", 50000));
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();
  print_experiment_header(
      "Table II (ICPP'15)",
      "IP vs OA*, mixed serial + parallel (PC) jobs, dual & quad core");

  TextTable table({"processes", "dual IP", "dual OA*", "quad IP",
                   "quad OA*"});
  for (std::int32_t procs : {8, 12, 16}) {
    std::vector<std::string> row{TextTable::fmt_int(procs)};
    for (std::uint32_t cores : {2u, 4u}) {
      CatalogProblemSpec spec = mix_spec(procs, cores);
      spec.trace_length = trace_length;
      Problem p = build_catalog_problem(spec);

      auto model = build_ip_model(p, *p.full_model,
                                  Aggregation::MaxPerParallelJob);
      auto ip = solve_branch_and_bound(model);
      SearchOptions oa_opt;
      oa_opt.dismiss = DismissPolicy::ParetoDominance;  // exact w/ parallel
      auto oa = solve_oastar(p, oa_opt);
      if (!ip.optimal || !oa.found) {
        std::cerr << "solver failure at " << procs << " processes\n";
        return 1;
      }
      Real ip_avg = evaluate_solution(p, ip.solution).average_per_job;
      Real oa_avg = evaluate_solution(p, oa.solution).average_per_job;
      row.push_back(TextTable::fmt(ip_avg, 3));
      row.push_back(TextTable::fmt(oa_avg, 3));
      if (std::abs(ip_avg - oa_avg) > 1e-6) {
        std::cerr << "MISMATCH: IP and OA* disagree\n";
        return 1;
      }
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render();
  std::cout << "\nPaper: identical degradation for IP and OA* in every cell "
               "(Table II),\nverifying OA* optimality on mixed batches.\n";
  write_csv(out_dir, "table2", table);
  return 0;
}
