// online_service: the event-driven co-scheduling service end to end — jobs
// arrive over virtual time, queue under an admission policy, get placed by
// HA*-backed migration-aware replans on a fixed fleet, and complete at
// contention-stretched rates.
//
// Prints the first decision-journal events, the replan history and the
// service metrics. Everything is a pure function of the seed: run it twice
// and the tables are byte-identical.
#include <iostream>

#include "online/scheduler.hpp"

int main() {
  using namespace cosched;

  TraceSpec trace_spec;
  trace_spec.job_count = 60;
  trace_spec.mean_interarrival = 1.5;
  trace_spec.work_lo = 8.0;
  trace_spec.work_hi = 40.0;
  trace_spec.parallel_fraction = 0.2;  // every 5th job is an MPI-style PE job
  trace_spec.seed = 2026;
  WorkloadTrace trace = generate_trace(trace_spec);

  OnlineSchedulerOptions options;
  options.cores = 4;
  options.machines = 6;  // 24 cores serving ~40 concurrent processes' worth
  options.solver = OnlineSolverKind::HAStar;
  options.admission.trigger = ReplanTrigger::EveryKArrivals;
  options.admission.every_k = 4;
  options.migration_cost = 0.05;

  std::cout << "Online co-scheduling service: " << trace.job_count()
            << " jobs (" << trace.process_count() << " processes) onto "
            << options.machines << " machines x " << options.cores
            << " cores\n\n";

  OnlineScheduler service(options);
  service.run(trace);

  std::cout << "First decision-journal events of the run:\n";
  std::vector<JournalEvent> events = service.journal().tail(
      service.journal().size());
  for (std::size_t i = 0; i < events.size() && i < 12; ++i)
    std::cout << "  " << render_journal_event(events[i]) << "\n";
  std::cout << "\n";

  std::cout << "Replan history (virtual-time deterministic):\n"
            << service.metrics().replans_table().render() << "\n";

  std::cout << "Service metrics:\n"
            << service.metrics().summary_table().render() << "\n";

  auto cache = service.oracle_cache().stats();
  std::cout << "Degradation-oracle cache: " << cache.entries << " entries, "
            << cache.hits << " hits / " << cache.misses << " misses ("
            << TextTable::fmt(100.0 * cache.hit_rate(), 1)
            << "% hit rate across replans)\n";

  std::cout << "\nReading: arrivals batch up under the every-k policy, each\n"
               "replan packs the batch around the jobs already running, and\n"
               "the shared oracle cache keeps successive replans cheap.\n";
  return service.metrics().completions() ==
      static_cast<std::uint64_t>(trace.job_count()) ? 0 : 1;
}
