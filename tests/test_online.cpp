// Tests for the online co-scheduling service (src/online): deterministic
// replay, admission batching, and the service-level replan property (never
// worse than staying put).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "baseline/brute_force.hpp"
#include "online/scheduler.hpp"
#include "vm/migration.hpp"

namespace cosched {
namespace {

// ------------------------------------------------------------ trace

TEST(Trace, GenerationIsDeterministic) {
  TraceSpec spec;
  spec.job_count = 40;
  spec.parallel_fraction = 0.25;
  spec.seed = 99;
  WorkloadTrace a = generate_trace(spec);
  WorkloadTrace b = generate_trace(spec);
  ASSERT_EQ(a.job_count(), b.job_count());
  for (std::int32_t i = 0; i < a.job_count(); ++i) {
    const TraceJob& x = a.jobs[static_cast<std::size_t>(i)];
    const TraceJob& y = b.jobs[static_cast<std::size_t>(i)];
    EXPECT_EQ(x.arrival_time, y.arrival_time);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.processes, y.processes);
    EXPECT_EQ(x.work, y.work);
    EXPECT_EQ(x.miss_rate, y.miss_rate);
    EXPECT_EQ(x.sensitivity, y.sensitivity);
  }
}

TEST(Trace, GenerationRespectsSpecRanges) {
  TraceSpec spec;
  spec.job_count = 200;
  spec.work_lo = 3.0;
  spec.work_hi = 9.0;
  spec.parallel_fraction = 0.3;
  spec.max_parallel_processes = 5;
  spec.seed = 7;
  WorkloadTrace t = generate_trace(spec);
  Real prev_arrival = 0.0;
  std::int32_t parallel = 0;
  for (const TraceJob& j : t.jobs) {
    EXPECT_GE(j.arrival_time, prev_arrival);  // sorted
    prev_arrival = j.arrival_time;
    EXPECT_GE(j.work, spec.work_lo);
    EXPECT_LE(j.work, spec.work_hi);
    EXPECT_GE(j.miss_rate, spec.miss_rate_lo);
    EXPECT_LE(j.miss_rate, spec.miss_rate_hi);
    if (j.kind == JobKind::ParallelNoComm) {
      ++parallel;
      EXPECT_GE(j.processes, 2);
      EXPECT_LE(j.processes, spec.max_parallel_processes);
    } else {
      EXPECT_EQ(j.processes, 1);
    }
  }
  // ~30% of 200 jobs; generous bounds, but catches a dead branch.
  EXPECT_GT(parallel, 30);
  EXPECT_LT(parallel, 90);
}

TEST(Trace, SaveLoadRoundTripsExactly) {
  TraceSpec spec;
  spec.job_count = 25;
  spec.parallel_fraction = 0.2;
  spec.seed = 13;
  WorkloadTrace t = generate_trace(spec);
  std::stringstream buf;
  save_trace(t, buf);
  WorkloadTrace back = load_trace(buf);
  ASSERT_EQ(back.job_count(), t.job_count());
  for (std::int32_t i = 0; i < t.job_count(); ++i) {
    const TraceJob& x = t.jobs[static_cast<std::size_t>(i)];
    const TraceJob& y = back.jobs[static_cast<std::size_t>(i)];
    EXPECT_EQ(x.arrival_time, y.arrival_time);  // %.17g: bit-exact
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.processes, y.processes);
    EXPECT_EQ(x.work, y.work);
    EXPECT_EQ(x.miss_rate, y.miss_rate);
    EXPECT_EQ(x.sensitivity, y.sensitivity);
  }
}

TEST(Trace, LoadRejectsMalformedInput) {
  std::stringstream bad_kind("0.0,job0,XX,1,10.0,0.4,0.7\n");
  EXPECT_THROW(load_trace(bad_kind), std::invalid_argument);
  std::stringstream missing_fields("0.0,job0,SE,1\n");
  EXPECT_THROW(load_trace(missing_fields), std::invalid_argument);
}

// Every numeric cell must be a whole number in the model's domain: junk
// suffixes, nan/inf, an out-of-range miss rate or sensitivity and an
// unrepresentable process count all fail with the offending line number —
// never a partial parse or a std::out_of_range escaping.
TEST(Trace, LoadRejectsOutOfDomainFields) {
  const char* bad_lines[] = {
      "0.2abc,job0,SE,1,10.0,0.4,0.7",  // junk after a number
      "nan,job0,SE,1,10.0,0.4,0.7",     // arrival
      "inf,job0,SE,1,10.0,0.4,0.7",
      "0.0,job0,SE,1,inf,0.4,0.7",      // work
      "0.0,job0,SE,1,nan,0.4,0.7",
      "0.0,job0,SE,1,10.0,1.5,0.7",     // miss_rate
      "0.0,job0,SE,1,10.0,nan,0.7",
      "0.0,job0,SE,1,10.0,0.4,-1",      // sensitivity
      "0.0,job0,SE,1,10.0,0.4,nan",
      "0.0,job0,PE,99999999999,10.0,0.4,0.7",  // processes
      "0.0,job0,SE,1x,10.0,0.4,0.7",
      "0.0,job0,SE,1,1e999,0.4,0.7",    // overflows to inf
  };
  for (const char* line : bad_lines) {
    std::stringstream in(std::string("# header\n0.0,ok,SE,1,1.0,0.4,0.7\n") +
                         line + "\n");
    try {
      load_trace(in);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("trace line 3"), std::string::npos)
          << e.what();
    }
  }
  // CRLF line ends are not junk.
  std::stringstream crlf("0.0,job0,SE,1,10.0,0.4,0.7\r\n");
  EXPECT_EQ(load_trace(crlf).job_count(), 1);
}

// ------------------------------------------------------------ events

TEST(EventQueue, OrdersByTimeThenPushSequence) {
  EventQueue q;
  q.push(1.0, EventKind::JobArrival, 10);
  q.push(0.5, EventKind::ReplanTick, 20);
  q.push(1.0, EventKind::AdmissionDeadline, 30);  // same time as the first
  EXPECT_EQ(q.size(), 3u);
  Event e1 = q.pop();
  EXPECT_EQ(e1.payload, 20);
  Event e2 = q.pop();  // time tie: earlier push wins
  EXPECT_EQ(e2.payload, 10);
  Event e3 = q.pop();
  EXPECT_EQ(e3.payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(VirtualClockTest, RejectsTravelToThePast) {
  VirtualClock c;
  c.advance_to(2.0);
  EXPECT_EQ(c.now(), 2.0);
  c.advance_to(2.0);  // no-op is fine
  EXPECT_THROW(c.advance_to(1.0), ContractViolation);
}

// ------------------------------------------------------------ metrics

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  h.add(0.5);
  h.add(1.0);  // lands in <=1
  h.add(3.0);
  h.add(100.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{2, 0, 1, 1}));
  EXPECT_NEAR(h.mean(), (0.5 + 1.0 + 3.0 + 100.0) / 4.0, 1e-12);
  EXPECT_EQ(h.max(), 100.0);
}

// ------------------------------------------------------------ admission

TEST(Admission, FifoAdmitsWholeJobsAndStopsAtFirstMisfit) {
  const std::vector<std::int32_t> sizes{1, 4, 2, 1};
  // 5 slots: job0 (1) + job1 (4) fit; job2 (2) does not -> stop, even
  // though job3 (1) would fit (strict FIFO, no skipping ahead).
  EXPECT_EQ(AdmissionPolicy::admit_fifo(sizes, 5), 2);
  EXPECT_EQ(AdmissionPolicy::admit_fifo(sizes, 0), 0);
  EXPECT_EQ(AdmissionPolicy::admit_fifo(sizes, 100), 4);
  // 3 slots: job0 fits, job1 (4) does not.
  EXPECT_EQ(AdmissionPolicy::admit_fifo(sizes, 3), 1);
}

TEST(Admission, EveryKFiresAtDepthK) {
  AdmissionOptions opt;
  opt.trigger = ReplanTrigger::EveryKArrivals;
  opt.every_k = 3;
  AdmissionPolicy policy(opt);
  AdmissionState s;
  s.running_processes = 4;  // fleet busy: idle shortcut does not apply
  s.free_slots = 4;
  s.pending_jobs = 2;
  EXPECT_FALSE(policy.should_replan(s));
  s.pending_jobs = 3;
  EXPECT_TRUE(policy.should_replan(s));
}

TEST(Admission, IdleFleetWithPendingWorkAlwaysFires) {
  AdmissionOptions opt;
  opt.trigger = ReplanTrigger::EveryKArrivals;
  opt.every_k = 10;
  AdmissionPolicy policy(opt);
  AdmissionState s;
  s.pending_jobs = 1;
  s.running_processes = 0;  // nothing running: waiting would idle the fleet
  s.free_slots = 8;
  EXPECT_TRUE(policy.should_replan(s));
}

TEST(Admission, ThresholdRespectsCooldown) {
  AdmissionOptions opt;
  opt.trigger = ReplanTrigger::DegradationThreshold;
  opt.degradation_threshold = 0.3;
  opt.min_replan_interval = 5.0;
  AdmissionPolicy policy(opt);
  AdmissionState s;
  s.running_processes = 6;
  s.running_mean_degradation = 0.5;  // above threshold
  s.last_replan_time = 10.0;
  s.now = 12.0;  // within cooldown
  EXPECT_FALSE(policy.should_replan(s));
  s.now = 15.5;  // cooldown elapsed
  EXPECT_TRUE(policy.should_replan(s));
  s.running_mean_degradation = 0.1;  // below threshold
  EXPECT_FALSE(policy.should_replan(s));
}

// ------------------------------------------------------------ service

OnlineSchedulerOptions small_service_options() {
  OnlineSchedulerOptions options;
  options.cores = 2;
  options.machines = 3;
  options.admission.every_k = 2;
  return options;
}

WorkloadTrace small_trace(std::uint64_t seed, std::int32_t jobs = 16) {
  TraceSpec spec;
  spec.job_count = jobs;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = seed;
  return generate_trace(spec);
}

/// Every retained decision-journal event, one rendered line each: the
/// scheduler's event record as a byte-comparable string.
std::string rendered_journal(const OnlineScheduler& service) {
  std::string out;
  for (const JournalEvent& event :
       service.journal().tail(service.journal().size()))
    out += render_journal_event(event) + "\n";
  return out;
}

TEST(OnlineService, CompletesEveryJob) {
  WorkloadTrace trace = small_trace(1);
  OnlineScheduler service(small_service_options());
  service.run(trace);
  EXPECT_EQ(service.metrics().arrivals(),
            static_cast<std::uint64_t>(trace.job_count()));
  EXPECT_EQ(service.metrics().admissions(),
            static_cast<std::uint64_t>(trace.job_count()));
  EXPECT_EQ(service.metrics().completions(),
            static_cast<std::uint64_t>(trace.job_count()));
  // Fleet drained: no live processes left anywhere.
  for (const auto& m : service.placement()) EXPECT_TRUE(m.empty());
}

// The deterministic-replay acceptance test: two runs over the same trace
// leave byte-identical decision journals and metric CSVs.
TEST(OnlineService, ReplayIsByteIdentical) {
  WorkloadTrace trace = small_trace(2);
  OnlineScheduler first(small_service_options());
  first.run(trace);
  OnlineScheduler second(small_service_options());
  second.run(trace);
  EXPECT_FALSE(rendered_journal(first).empty());
  EXPECT_EQ(rendered_journal(first), rendered_journal(second));
  EXPECT_EQ(first.metrics().render_deterministic_csv(),
            second.metrics().render_deterministic_csv());
}

// Service-level replan property: no adopted placement is worse (combined
// objective) than staying put.
TEST(OnlineService, ReplansNeverWorseThanStaying) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    WorkloadTrace trace = small_trace(seed);
    OnlineSchedulerOptions options = small_service_options();
    options.migration_cost = 0.05;
    OnlineScheduler service(options);
    service.run(trace);
    ASSERT_GT(service.metrics().replans(), 0u);
    for (const ReplanRecord& r : service.metrics().replan_records()) {
      EXPECT_LE(r.combined, r.stay_combined + 1e-9)
          << "seed " << seed << " t=" << r.time;
      EXPECT_GE(r.migrations, 0);
    }
  }
}

TEST(OnlineService, PlacementRespectsCoreCapacity) {
  WorkloadTrace trace = small_trace(6, 10);
  OnlineSchedulerOptions options = small_service_options();
  options.admission.trigger = ReplanTrigger::Periodic;
  options.admission.period = 3.0;
  OnlineScheduler service(options);
  service.run(trace);
  // Capacity was never exceeded: every admission fit the free slots at its
  // replan, and each machine's live set is bounded by u at the end.
  for (const auto& m : service.placement())
    EXPECT_LE(m.size(), static_cast<std::size_t>(options.cores));
  EXPECT_EQ(service.metrics().completions(),
            static_cast<std::uint64_t>(trace.job_count()));
}

TEST(OnlineService, ThresholdTriggerAlsoDrainsTheQueue) {
  WorkloadTrace trace = small_trace(7);
  OnlineSchedulerOptions options = small_service_options();
  options.admission.trigger = ReplanTrigger::DegradationThreshold;
  options.admission.degradation_threshold = 0.25;
  options.admission.max_wait = 10.0;  // backstop carries the admission load
  OnlineScheduler service(options);
  service.run(trace);
  EXPECT_EQ(service.metrics().completions(),
            static_cast<std::uint64_t>(trace.job_count()));
  // The max-wait backstop bounds queue waits for every trigger family.
  EXPECT_LE(service.metrics().queue_wait().max(),
            options.admission.max_wait + 1e-9);
}

// Committed moves equal reported migrations: the processes the journal's
// Migration events name (one "p<gid>:m<a>->m<b>" token each) are exactly
// the `migrations` the replans table reports.
TEST(OnlineService, JournalMigrationsEqualReportedMigrations) {
  std::uint64_t total = 0;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    OnlineSchedulerOptions options;
    options.cores = 4;
    options.machines = 3;
    options.admission.every_k = 1;
    OnlineScheduler service(options);
    service.run(small_trace(seed, 30));
    std::uint64_t journaled = 0;
    for (const JournalEvent& event :
         service.journal().tail(service.journal().size())) {
      if (event.kind != JournalEventKind::Migration) continue;
      std::istringstream tokens(event.detail);
      std::string token;
      while (tokens >> token) ++journaled;
    }
    std::uint64_t reported = 0;
    for (const ReplanRecord& r : service.metrics().replan_records())
      reported += static_cast<std::uint64_t>(r.migrations);
    EXPECT_EQ(journaled, reported) << "seed " << seed;
    EXPECT_EQ(service.metrics().migrations(), reported) << "seed " << seed;
    total += reported;
  }
  EXPECT_GT(total, 0u);  // the traces do migrate
}

// ------------------------------------------------------- replan oracle

struct OracleStats {
  std::uint64_t replans = 0;
  std::uint64_t repairs = 0;       ///< replans compared with the reference
  std::uint64_t wide_repairs = 0;  ///< admitted more than one machine holds
  std::uint64_t rebalances = 0;    ///< repairs that admitted nothing
  std::uint64_t worse = 0;    ///< repairs strictly worse than fresh
  Real gap_sum = 0.0;         ///< Σ (repair − fresh-then-polish) combined
  Real gap_max = -kInfinity;
  Real fresh_sum = 0.0;       ///< Σ fresh-then-polish combined

  void add(const OracleStats& other) {
    replans += other.replans;
    repairs += other.repairs;
    wide_repairs += other.wide_repairs;
    rebalances += other.rebalances;
    worse += other.worse;
    gap_sum += other.gap_sum;
    gap_max = std::max(gap_max, other.gap_max);
    fresh_sum += other.fresh_sum;
  }
  Real gap_mean() const { return gap_sum / static_cast<Real>(repairs); }
};

/// Steps `trace` one occurrence at a time. After each step that committed
/// a replan: the brute-force optimum is no worse than the committed
/// degradation, and the repair is compared against a fresh HA* solve
/// polished the same way, on the same incumbent.
OracleStats run_replan_oracle(const OnlineSchedulerOptions& options,
                              const WorkloadTrace& trace) {
  OracleStats stats;
  OnlineScheduler service(options);
  service.begin();
  for (const TraceJob& job : trace.jobs) service.submit(job);
  std::size_t seen = 0;
  while (service.step(kInfinity)) {
    const auto& records = service.metrics().replan_records();
    if (records.size() == seen) continue;
    EXPECT_EQ(records.size(), seen + 1);
    seen = records.size();
    const ReplanRecord& committed = records.back();
    const ReplanInput& input = *service.last_replan();
    EXPECT_LE(solve_brute_force(input.problem).objective,
              committed.degradation + 1e-9)
        << "t=" << committed.time;
    ReplanOptions replan_options;
    replan_options.migration_cost = options.migration_cost;
    replan_options.max_passes = options.replan_passes;
    replan_options.move_weight = input.move_weight;
    ReplanResult fresh =
        replan_with_migrations(input.problem, input.incumbent, replan_options);
    const Real gap = committed.combined - fresh.combined;
    ++stats.repairs;
    std::int32_t admitted_procs = 0;
    for (ProcessId p = 0; p < input.problem.n(); ++p)
      if (input.move_weight[static_cast<std::size_t>(p)] == 0.0 &&
          input.problem.batch.job(input.problem.batch.job_of(p)).kind !=
              JobKind::Imaginary)
        ++admitted_procs;
    if (admitted_procs > static_cast<std::int32_t>(options.cores))
      ++stats.wide_repairs;
    if (committed.admitted == 0) ++stats.rebalances;
    if (gap > 1e-12) ++stats.worse;
    stats.gap_sum += gap;
    stats.fresh_sum += fresh.combined;
    stats.gap_max = std::max(stats.gap_max, gap);
  }
  service.finish();
  for (const ReplanRecord& r : service.metrics().replan_records())
    EXPECT_LE(r.combined, r.stay_combined + 1e-12) << "t=" << r.time;
  stats.replans = service.metrics().replans();
  return stats;
}

/// The oracle over fleets small enough for brute force: 3×4-core and
/// 4×2-core, four seeded traces each (seeds fixed before measuring), with
/// the admission policy `admission` on top of each fleet's defaults.
OracleStats replan_oracle_over_fleets(const AdmissionOptions& admission) {
  struct Fleet {
    std::uint32_t cores;
    std::int32_t machines;
    std::int32_t max_parallel;
  };
  OracleStats all;
  for (const Fleet& fleet : {Fleet{4, 3, 4}, Fleet{2, 4, 2}}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      TraceSpec spec;
      spec.job_count = 24;
      spec.mean_interarrival = 1.5;
      spec.work_lo = 4.0;
      spec.work_hi = 12.0;
      spec.parallel_fraction = 0.3;
      spec.max_parallel_processes = fleet.max_parallel;
      spec.seed = seed;
      OnlineSchedulerOptions options;
      options.cores = fleet.cores;
      options.machines = fleet.machines;
      options.admission = admission;
      all.add(run_replan_oracle(options, generate_trace(spec)));
    }
  }
  // Every replan is a repair, and every one was checked.
  EXPECT_EQ(all.repairs, all.replans);
  return all;
}

// Repair's safety net, over every replan — cold fleets included — with
// single-job admissions (every_k 1) and batched ones (every_k 2 and 4),
// whose admissions can exceed what one machine holds.
TEST(ReplanOracle, RepairsStayWithinAStatedGapOfFreshSolves) {
  for (std::int32_t every_k : {1, 2, 4}) {
    AdmissionOptions admission;
    admission.every_k = every_k;
    const OracleStats all = replan_oracle_over_fleets(admission);
    // Measured (gap = repair combined − fresh-then-polish combined, over
    // every replan): every_k 1: 192 replans, 10 strictly worse, mean
    // 0.0017 (fresh averages 0.527), max 0.065. every_k 2: 134 replans, 7
    // worse, mean −0.00004, max 0.127. every_k 4: 96 replans, 7 worse,
    // mean 0.0017, max 0.077. Polishing batches that take every free slot
    // without the swap-descent start measured max 0.168 at every_k 2;
    // seating the admitted processes FIFO instead of greedily measured max
    // 0.100 / 0.277 / 0.063.
    ASSERT_GT(all.repairs, 0u) << "every_k " << every_k;
    if (every_k > 1) {  // batches larger than one machine are repaired
      EXPECT_GT(all.wide_repairs, 0u) << "every_k " << every_k;
    }
    EXPECT_LE(all.gap_mean(), 0.005) << "every_k " << every_k;
    EXPECT_LE(all.gap_max, 0.15) << "every_k " << every_k;
  }
}

// The degradation-threshold trigger also fires replans that admit nothing
// (pure rebalances: the polish alone); they hold the same bounds.
TEST(ReplanOracle, ThresholdRebalancesStayWithinTheSameGap) {
  std::uint64_t rebalances = 0;
  for (Real threshold : {0.15, 0.25, 0.40}) {
    AdmissionOptions admission;
    admission.trigger = ReplanTrigger::DegradationThreshold;
    admission.degradation_threshold = threshold;
    const OracleStats all = replan_oracle_over_fleets(admission);
    // Measured: threshold 0.15: 84 replans, 24 of them rebalances, mean
    // 0.0023, max 0.100. 0.25: 54 / 5 / 0.0035 / 0.100. 0.40: 43 / 0 /
    // 0.0030 / 0.100.
    ASSERT_GT(all.repairs, 0u) << "threshold " << threshold;
    EXPECT_LE(all.gap_mean(), 0.005) << "threshold " << threshold;
    EXPECT_LE(all.gap_max, 0.15) << "threshold " << threshold;
    rebalances += all.rebalances;
  }
  EXPECT_GT(rebalances, 0u);
}

// ------------------------------------------------- open-world interface

// run(trace) is documented as exactly begin + submit* + finish; driving the
// incremental interface by hand — with arbitrary extra pump() calls thrown
// in — must leave byte-identical observables. This is what makes the RPC
// submission path equivalent to trace replay.
TEST(OnlineService, IncrementalInterfaceMatchesRunByteForByte) {
  WorkloadTrace trace = small_trace(9);
  OnlineSchedulerOptions options = small_service_options();

  OnlineScheduler batch(options);
  batch.run(trace);

  OnlineScheduler incremental(options);
  incremental.begin();
  std::size_t i = 0;
  for (const TraceJob& job : trace.jobs) {
    std::int64_t id = incremental.submit(job);
    EXPECT_EQ(id, static_cast<std::int64_t>(i++));
    // Redundant pumps at and before the arrival must be invisible.
    incremental.pump(job.arrival_time);
    incremental.pump(job.arrival_time * 0.5);
  }
  incremental.finish();

  EXPECT_FALSE(rendered_journal(batch).empty());
  EXPECT_EQ(rendered_journal(batch), rendered_journal(incremental));
  EXPECT_EQ(batch.metrics().render_deterministic_csv(),
            incremental.metrics().render_deterministic_csv());
}

TEST(OnlineService, JobStatusTracksLifecycle) {
  OnlineScheduler service(small_service_options());
  service.begin();
  TraceJob job;
  job.name = "tracked";
  job.arrival_time = 1.0;
  job.work = 4.0;
  std::int64_t id = service.submit(job);
  EXPECT_EQ(service.job_status(id).phase, JobPhase::Pending);
  service.pump(1.0);  // arrival: idle fleet admits immediately
  JobStatusView running = service.job_status(id);
  EXPECT_EQ(running.phase, JobPhase::Running);
  ASSERT_EQ(running.procs.size(), 1u);
  EXPECT_GE(running.procs[0].machine, 0);
  EXPECT_EQ(running.procs[0].remaining_work, 4.0);
  service.finish();
  JobStatusView done = service.job_status(id);
  EXPECT_EQ(done.phase, JobPhase::Finished);
  EXPECT_GE(done.finish_time, done.admit_time);
  ServiceSnapshot snapshot = service.service_snapshot();
  EXPECT_EQ(snapshot.completions, 1u);
  EXPECT_EQ(snapshot.free_slots, service.total_cores());
}

// The admission max-wait backstop in plain trace replay: with a trigger
// that never fires on its own, a waiting job is force-admitted exactly
// max_wait after arrival.
TEST(OnlineService, MaxWaitBackstopFiresInTraceReplay) {
  OnlineSchedulerOptions options = small_service_options();
  options.admission.every_k = 100;  // the batch trigger never fills
  options.admission.max_wait = 5.0;

  WorkloadTrace trace;
  TraceJob hog;  // idle-fleet rule admits it instantly, then occupies a core
  hog.name = "hog";
  hog.arrival_time = 0.0;
  hog.work = 100.0;
  trace.jobs.push_back(hog);
  TraceJob waiter;  // nothing admits it but the backstop
  waiter.name = "waiter";
  waiter.arrival_time = 1.0;
  waiter.work = 2.0;
  trace.jobs.push_back(waiter);

  OnlineScheduler service(options);
  service.run(trace);
  JobStatusView status = service.job_status(1);
  EXPECT_EQ(status.phase, JobPhase::Finished);
  EXPECT_EQ(status.admit_time,
            waiter.arrival_time + options.admission.max_wait);
  EXPECT_EQ(service.metrics().completions(), 2u);
}

// ------------------------------------------------- metrics CSV writer

TEST(Metrics, WriteCsvsCreatesMissingDirectories) {
  WorkloadTrace trace = small_trace(11, 6);
  OnlineScheduler service(small_service_options());
  service.run(trace);

  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() /
                  ("cosched_metrics_test_" + std::to_string(::getpid()));
  fs::path dir = root / "deep" / "nested";
  fs::remove_all(root);
  ASSERT_FALSE(fs::exists(dir));

  std::vector<std::string> paths =
      service.metrics().write_csvs(dir.string(), "svc");
  ASSERT_EQ(paths.size(), 3u);  // summary, histograms, replans
  for (const std::string& path : paths) {
    EXPECT_TRUE(fs::exists(path)) << path;
    std::ifstream in(path);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line)) << path;
    EXPECT_NE(first_line.find(','), std::string::npos);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace cosched
