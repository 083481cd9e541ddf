// Table I — "Comparison between OA* and IP for serial jobs".
//
// 8/12/16 serial benchmark programs (NPB-SER + SPEC CPU 2000 stand-ins)
// co-scheduled on dual-core and quad-core machines; both the IP model
// (our branch & bound) and OA* must report the same average degradation,
// verifying OA*'s optimality.
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "ip/branch_and_bound.hpp"
#include "ip/ip_model.hpp"
#include "workload/benchmark_catalog.hpp"

using namespace cosched;

namespace {

std::vector<std::string> job_mix(std::size_t count) {
  std::vector<std::string> names = npb_serial_names();
  for (const auto& s : spec_serial_names()) names.push_back(s);
  names.resize(count);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t trace_length =
      static_cast<std::size_t>(args.get_int("trace", 50000));
  const std::string out_dir = args.get_string("out-dir", "results");
  args.reject_unread();
  print_experiment_header(
      "Table I (ICPP'15)",
      "IP vs OA* average degradation, serial jobs, dual & quad core");

  TextTable table({"jobs", "dual IP", "dual OA*", "quad IP", "quad OA*"});
  for (std::size_t count : {8u, 12u, 16u}) {
    std::vector<std::string> row{TextTable::fmt_int(
        static_cast<std::int64_t>(count))};
    for (std::uint32_t cores : {2u, 4u}) {
      CatalogProblemSpec spec;
      spec.cores = cores;
      spec.serial_programs = job_mix(count);
      spec.trace_length = trace_length;
      Problem p = build_catalog_problem(spec);

      auto model = build_ip_model(p, *p.full_model,
                                  Aggregation::MaxPerParallelJob);
      auto ip = solve_branch_and_bound(model);
      auto oa = solve_oastar(p);
      if (!ip.optimal || !oa.found) {
        std::cerr << "solver failure at " << count << " jobs\n";
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
  std::cout << "\nPaper: OA* achieves the same degradation as the IP model "
               "in every cell\n(Table I); reproduced when the two columns "
               "match per machine type.\n";
  write_csv(out_dir, "table1", table);
  return 0;
}
