// Table III — "Efficiency of different methods on Quad-core machines".
//
// Solving time for 8/12/16 processes in three flavours (se / pe / pc), for
// four MILP configurations (standing in for CPLEX, CBC, SCIP, GLPK — see
// DESIGN.md "Substitutions"), OA*, and O-SVP. The paper's headline — the
// graph search beats general MILP by orders of magnitude, and OA* beats
// O-SVP — is the shape to reproduce; absolute times differ from 2015
// hardware.
#include <iostream>

#include "astar/search.hpp"
#include "core/builders.hpp"
#include "harness/experiment.hpp"
#include "ip/branch_and_bound.hpp"
#include "ip/ip_model.hpp"
#include "util/timer.hpp"
#include "workload/benchmark_catalog.hpp"

using namespace cosched;

namespace {

Problem make_problem(std::int32_t procs, const std::string& flavour,
                     std::size_t trace) {
  CatalogProblemSpec spec;
  spec.cores = 4;
  spec.trace_length = trace;
  std::vector<std::string> serial = npb_serial_names();
  for (const auto& s : spec_serial_names()) serial.push_back(s);
  if (flavour == "se") {
    serial.resize(static_cast<std::size_t>(procs));
    spec.serial_programs = serial;
  } else {
    // Two parallel jobs, remainder serial (Table II's combination style).
    std::int32_t par = procs == 8 ? 2 : (procs == 12 ? 3 : 4);
    bool comm = flavour == "pc";
    spec.parallel_jobs.push_back({comm ? "MG-Par" : "RA", par, comm, 2e5});
    spec.parallel_jobs.push_back({comm ? "LU-Par" : "MCM", par, comm, 2e5});
    serial.resize(static_cast<std::size_t>(procs - 2 * par));
    spec.serial_programs = serial;
  }
  return build_catalog_problem(spec);
}

struct SolverConfig {
  std::string name;
  BnBOptions options;
};

std::vector<SolverConfig> ip_configs(Real time_limit) {
  // Four configurations mirroring the relative spread of the paper's
  // solvers: best-bound + most-fractional is the strongest (CPLEX-like),
  // DFS + first-fractional the weakest (GLPK-like).
  SolverConfig best{"bb-best (CPLEX-like)", {}};
  best.options.node_order = BnBOptions::NodeOrder::BestBound;
  best.options.branch_rule = BnBOptions::BranchRule::MostFractional;

  SolverConfig dfs{"bb-dfs (CBC-like)", {}};
  dfs.options.node_order = BnBOptions::NodeOrder::DepthFirst;
  dfs.options.branch_rule = BnBOptions::BranchRule::MostFractional;

  SolverConfig bestff{"bb-bestff (SCIP-like)", {}};
  bestff.options.node_order = BnBOptions::NodeOrder::BestBound;
  bestff.options.branch_rule = BnBOptions::BranchRule::FirstFractional;

  SolverConfig dfsff{"bb-dfsff (GLPK-like)", {}};
  dfsff.options.node_order = BnBOptions::NodeOrder::DepthFirst;
  dfsff.options.branch_rule = BnBOptions::BranchRule::FirstFractional;

  std::vector<SolverConfig> configs{best, dfs, bestff, dfsff};
  for (auto& c : configs) c.options.time_limit_seconds = time_limit;
  return configs;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  print_experiment_header(
      "Table III (ICPP'15)",
      "Solving time: 4 MILP configs vs OA* vs O-SVP, quad-core");
  const std::size_t trace =
      static_cast<std::size_t>(args.get_int("trace", 50000));
  const Real ip_limit = args.get_real("ip-limit", 20.0);

  auto configs = ip_configs(ip_limit);
  std::vector<std::string> headers{"case"};
  for (const auto& c : configs) headers.push_back(c.name);
  headers.push_back("OA*");
  headers.push_back("O-SVP");
  TextTable table(headers);

  for (std::int32_t procs : {8, 12, 16}) {
    for (const char* flavour : {"se", "pe", "pc"}) {
      Problem p = make_problem(procs, flavour, trace);
      std::vector<std::string> row{std::to_string(procs) + "(" + flavour +
                                   ")"};

      auto model = build_ip_model(p, *p.full_model,
                                  Aggregation::MaxPerParallelJob);
      Real reference = -1.0;
      for (const auto& cfg : configs) {
        auto result = solve_branch_and_bound(model, cfg.options);
        std::string cell = TextTable::fmt(result.seconds, 3);
        if (!result.optimal) cell += " (limit)";
        if (result.optimal) {
          if (reference < 0) reference = result.objective;
          else if (std::abs(reference - result.objective) > 1e-6) {
            std::cerr << "MISMATCH between IP configs\n";
            return 1;
          }
        }
        row.push_back(std::move(cell));
      }

      SearchOptions oa_opt;
      oa_opt.dismiss = DismissPolicy::ParetoDominance;
      WallTimer t1;
      auto oa = solve_oastar(p, oa_opt);
      row.push_back(TextTable::fmt(t1.seconds(), 4));

      SearchOptions osvp_opt;
      osvp_opt.dismiss = DismissPolicy::ParetoDominance;
      WallTimer t2;
      auto osvp = solve_osvp(p, osvp_opt);
      row.push_back(TextTable::fmt(t2.seconds(), 4));

      if (!oa.found || !osvp.found ||
          std::abs(oa.objective - osvp.objective) > 1e-9 ||
          (reference >= 0 && std::abs(reference - oa.objective) > 1e-6)) {
        std::cerr << "OPTIMALITY MISMATCH in case " << row[0] << "\n";
        return 1;
      }
      table.add_row(std::move(row));
    }
  }
  std::cout << table.render();
  std::cout << "\nPaper shape: every MILP column is orders of magnitude "
               "slower than OA*;\nOA* is consistently faster than O-SVP "
               "(Table III).\n";
  write_csv(args.get_string("out-dir", "results"), "table3", table);
  return 0;
}
