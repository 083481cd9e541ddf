// online_throughput: head-to-head comparison of the online service's replan
// triggers (every-k / degradation-threshold / periodic) on one arrival
// trace, plus the degradation-vs-migration-cost frontier. Every replan is a
// repair of the running placement (greedy fill, then migration-aware swaps).
//
// Emits two CSVs:
//   online_throughput.csv — per trigger: sustained jobs/sec (virtual),
//     mean degradation, mean queue wait, migrations per replan, replans,
//     wall-clock replan time.
//   online_frontier.csv   — the every-k service across migration costs:
//     how much degradation each unit of migration budget buys.
//
// The third table compares the offline solvers on the Problems the service
// actually saw: every replan's Problem of the policy and frontier runs is
// solved by HA* and by the random baseline. Exit code is nonzero unless
// HA*'s mean Eq. 13 degradation over those Problems is no worse than
// random's, with at least one Problem on which the two differ (so the
// check cannot pass on trivial Problems alone).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "astar/search.hpp"
#include "baseline/random_schedule.hpp"
#include "harness/experiment.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "util/timer.hpp"

using namespace cosched;

namespace {

struct PolicyResult {
  std::string label;
  Real virtual_jobs_per_sec = 0.0;
  Real mean_degradation = 0.0;
  Real mean_queue_wait = 0.0;
  Real migrations_per_replan = 0.0;
  std::uint64_t replans = 0;
  double solve_wall_seconds = 0.0;
};

/// Runs the trace (exactly run(trace), stepped so every replan's input is
/// seen) and appends each replan's Problem to `problems`.
PolicyResult run_policy(const WorkloadTrace& trace,
                        const OnlineSchedulerOptions& options,
                        std::string label, std::vector<Problem>& problems) {
  OnlineScheduler service(options);
  service.begin();
  for (const TraceJob& job : trace.jobs) service.submit(job);
  std::size_t seen = 0;
  while (service.step(kInfinity)) {
    const std::size_t replans = service.metrics().replan_records().size();
    if (replans == seen) continue;
    seen = replans;
    problems.push_back(service.last_replan()->problem);
  }
  service.finish();
  const SchedulerMetrics& m = service.metrics();
  PolicyResult r;
  r.label = std::move(label);
  r.virtual_jobs_per_sec =
      service.now() > 0.0
          ? static_cast<Real>(m.completions()) / service.now()
          : 0.0;
  r.mean_degradation = m.running_mean_degradation();
  r.mean_queue_wait = m.queue_wait().mean();
  r.migrations_per_replan = m.mean_migrations_per_replan();
  r.replans = m.replans();
  r.solve_wall_seconds = m.total_solve_wall_seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::int64_t scale = args.get_int("scale", 1);
  const std::int64_t jobs = args.get_int("jobs", 80 * scale);
  const std::int64_t machines = args.get_int("machines", 5);
  const std::int64_t cores = args.get_int("cores", 4);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string out_dir = args.get_string("out-dir", "results");
  // Tracing stays runtime-off by default (the overhead smoke compares
  // against exactly this configuration); --trace-out opts in and writes a
  // Chrome trace-event JSON loadable in Perfetto.
  const std::string trace_out = args.get_string("trace-out", "");
  args.reject_unread();
  if (!trace_out.empty()) Tracer::global().set_enabled(true);

  print_experiment_header(
      "online service throughput (extension; Aupy et al. online regime)",
      "replan-trigger head-to-head on one arrival trace, the "
      "degradation-vs-migration-cost frontier, and HA* vs random on the "
      "replan Problems");

  TraceSpec trace_spec;
  trace_spec.job_count = static_cast<std::int32_t>(jobs);
  trace_spec.mean_interarrival = 2.0;
  trace_spec.work_lo = 8.0;
  trace_spec.work_hi = 40.0;
  trace_spec.parallel_fraction = 0.15;
  trace_spec.seed = seed;
  WorkloadTrace trace = generate_trace(trace_spec);

  OnlineSchedulerOptions base;
  base.cores = static_cast<std::uint32_t>(cores);
  base.machines = static_cast<std::int32_t>(machines);
  base.migration_cost = 0.05;
  // One polish pass, shared by every policy: enough local search to make
  // migration costs bite.
  base.replan_passes = 1;

  std::cout << "trace: " << trace.job_count() << " jobs ("
            << trace.process_count() << " processes), fleet " << machines
            << " x " << cores << " cores\n\n";

  // ---- policy table ----------------------------------------------------
  TextTable policy_table({"trigger", "jobs/sec", "mean degradation",
                          "mean queue wait", "migrations/replan", "replans",
                          "replan seconds"});
  std::vector<Problem> problems;  ///< every replan's Problem, in run order
  WallTimer total;
  for (ReplanTrigger trigger :
       {ReplanTrigger::EveryKArrivals, ReplanTrigger::DegradationThreshold,
        ReplanTrigger::Periodic}) {
    OnlineSchedulerOptions options = base;
    options.admission.trigger = trigger;
    PolicyResult r = run_policy(trace, options, to_string(trigger), problems);
    policy_table.add_row(
        {r.label, TextTable::fmt(r.virtual_jobs_per_sec),
         TextTable::fmt(r.mean_degradation),
         TextTable::fmt(r.mean_queue_wait),
         TextTable::fmt(r.migrations_per_replan),
         TextTable::fmt_int(static_cast<std::int64_t>(r.replans)),
         TextTable::fmt(r.solve_wall_seconds, 3)});
  }
  std::cout << policy_table.render() << "\n";
  write_csv(out_dir, "online_throughput", policy_table);

  // ---- degradation-vs-migration-cost frontier --------------------------
  TextTable frontier(
      {"migration cost", "mean degradation", "migrations/replan"});
  for (Real cost : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    OnlineSchedulerOptions options = base;
    options.admission.trigger = ReplanTrigger::EveryKArrivals;
    options.migration_cost = cost;
    PolicyResult r = run_policy(trace, options, "frontier", problems);
    frontier.add_row({TextTable::fmt(cost, 2),
                      TextTable::fmt(r.mean_degradation),
                      TextTable::fmt(r.migrations_per_replan)});
  }
  std::cout << frontier.render() << "\n";
  write_csv(out_dir, "online_frontier", frontier);

  std::cout << "total bench wall time: " << TextTable::fmt(total.seconds(), 1)
            << " s\n";

  if (!trace_out.empty()) {
    if (Tracer::global().write_chrome_json(trace_out))
      std::cout << "wrote " << trace_out << "\n";
  }

  // ---- HA* vs random on the Problems the service actually saw ----------
  Rng rng(seed);
  Real hastar_sum = 0.0;
  Real random_sum = 0.0;
  std::size_t unsolved = 0;
  std::size_t differing = 0;  ///< Problems where the two objectives differ
  for (const Problem& problem : problems) {
    SearchResult hastar = solve_hastar(problem);
    if (!hastar.found) {
      ++unsolved;
      continue;
    }
    const Real h = evaluate_solution(problem, hastar.solution).total;
    const Real r = evaluate_solution(problem, solve_random(problem, rng)).total;
    hastar_sum += h;
    random_sum += r;
    if (std::abs(h - r) > 1e-9) ++differing;
  }
  const std::size_t compared = problems.size() - unsolved;
  const Real hastar_mean =
      compared ? hastar_sum / static_cast<Real>(compared) : 0.0;
  const Real random_mean =
      compared ? random_sum / static_cast<Real>(compared) : 0.0;
  std::cout << "solver check over " << compared << " replan Problems ("
            << differing << " where the solvers differ, "
            << unsolved << " HA* found nothing): hastar mean degradation "
            << TextTable::fmt(hastar_mean) << ", random "
            << TextTable::fmt(random_mean) << "\n";
  if (unsolved > 0 || differing == 0 || hastar_mean > random_mean + 1e-9) {
    std::cerr << "FAIL: HA* does not dominate random on the replan "
                 "Problems\n";
    return 1;
  }
  std::cout << "check: hastar " << TextTable::fmt(hastar_mean)
            << " <= random " << TextTable::fmt(random_mean) << " -- OK\n";
  return 0;
}
