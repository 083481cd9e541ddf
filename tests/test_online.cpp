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

#include "online/scheduler.hpp"

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
  for (OnlineSolverKind solver :
       {OnlineSolverKind::HAStar, OnlineSolverKind::PgGreedy,
        OnlineSolverKind::Random}) {
    OnlineSchedulerOptions options = small_service_options();
    options.solver = solver;
    OnlineScheduler first(options);
    first.run(trace);
    OnlineScheduler second(options);
    second.run(trace);
    EXPECT_FALSE(rendered_journal(first).empty()) << to_string(solver);
    EXPECT_EQ(rendered_journal(first), rendered_journal(second))
        << to_string(solver);
    EXPECT_EQ(first.metrics().render_deterministic_csv(),
              second.metrics().render_deterministic_csv())
        << to_string(solver);
  }
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
