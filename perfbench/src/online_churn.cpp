// online-churn: one embedded CoschedServer at its shipped defaults (virtual
// time) over a 6 x 4-core fleet with every_k = 1, driven by one closed-loop
// client. Every arrival replans, and each replan admits one job into a
// mostly unchanged placement, so HA* dominates each SubmitJob round trip.
//
// A run is a sequence of rounds. Each round deploys a fresh server, warms it
// with a prefix of jobs that fills the fleet (set-up), then times one
// SubmitJob per job of the round's stream, drains and checks. Round r's
// stream is a pure function of (seed, r), so the first round's work
// fingerprint repeats exactly for one commit and seed.
#include <memory>
#include <optional>

#include "bench.hpp"
#include "obs/http.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

namespace perfbench {

namespace {

using namespace cosched;

constexpr std::int32_t kMachines = 6;
constexpr std::int32_t kPrefixJobs = 16;
constexpr std::int32_t kTimedJobs = 25;
constexpr double kInterarrival = 2.0;
/// Quality replays run longer streams than the timed rounds: the means
/// over 25-job rounds moved more from seed to seed (migrations per replan
/// by 0.14 of its median) than over 100-job ones.
constexpr std::uint64_t kQualityRounds = 18;
constexpr std::int32_t kQualityJobs = 100;

ServerOptions churn_server_options() {
  ServerOptions options;
  options.service.scheduler.machines = kMachines;
  options.service.scheduler.admission.every_k = 1;
  return options;
}

/// Round `round`'s stream: the fleet-filling prefix, then `jobs` more.
/// A shorter stream is a prefix of a longer one.
std::vector<TraceJob> churn_jobs(std::uint64_t seed, std::uint64_t round,
                                 std::int32_t jobs = kTimedJobs) {
  JobStreamSpec spec;
  spec.seed = seed;
  spec.round = round;
  spec.count = kPrefixJobs + jobs;
  spec.mean_interarrival = kInterarrival;
  return make_job_stream(spec);
}

}  // namespace

Report run_online_churn(const RunOptions& options) {
  Report report;
  report.workload = "online-churn";
  SpanLog spans(options.trace);
  SpanLog untraced(false);

  std::uint64_t completions = 0, replans = 0, migrations = 0;
  std::string round0_csv;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0,
                cache_entries = 0;
  std::uint64_t ops_served = 0, client_failed = 0, client_retries = 0;
  double frame_bytes = 0.0;
  ServerReadout readout;
  double deadline = 0.0;
  std::uint64_t op = 0;

  std::optional<CpuPin> pin(std::in_place);
  for (std::uint64_t round = 0;; ++round) {
    const double setup_start = round == 0 ? 0.0 : now_seconds();
    std::vector<TraceJob> jobs = churn_jobs(options.seed, round);
    CoschedServer server(churn_server_options());
    std::string error;
    if (!server.start(error)) {
      report.fail("server start: " + error);
      return report;
    }
    ClientOptions client_options;
    client_options.port = server.port();
    CoschedClient client(client_options);

    std::uint64_t accepted = 0;
    auto submit = [&](const TraceJob& job) {
      SubmitJobResponse out;
      RpcError rpc = client.submit_job(job, out);
      ++ops_served;
      client_retries += static_cast<std::uint64_t>(rpc.attempts - 1);
      if (!rpc.ok()) {
        ++client_failed;
        report.fail("SubmitJob " + job.name + ": " + rpc.describe());
        return;
      }
      ++accepted;
    };
    for (std::int32_t i = 0; i < kPrefixJobs; ++i)
      submit(jobs[static_cast<std::size_t>(i)]);
    report.setups.push_back({setup_start, now_seconds()});
    if (round == 0) deadline = now_seconds() + options.seconds;

    for (std::int32_t i = kPrefixJobs; i < kPrefixJobs + kTimedJobs; ++i) {
      if (round > 0 && now_seconds() >= deadline) break;
      const TraceJob& job = jobs[static_cast<std::size_t>(i)];
      const double start = now_seconds();
      {
        ScopedSpan span(spans, "CoschedClient::submit", ++op);
        submit(job);
      }
      const double end = now_seconds();
      ++report.attempted;
      report.ops.push_back({start, end});
      report.pace.sample_if_due();
      frame_bytes += static_cast<double>(submit_frame_bytes(job));
    }

    // ---- drain, read what the program exposes, check -------------------
    const bool last = now_seconds() >= deadline;
    DrainResponse drained;
    MetricsResponse metrics;
    RpcError drain_error = client.drain(drained);
    RpcError metrics_error = client.get_metrics(metrics);
    if (!drain_error.ok() || !metrics_error.ok()) {
      report.fail("round " + std::to_string(round) + " drain/metrics: " +
                  drain_error.describe() + " " + metrics_error.describe());
      server.stop();
      return report;
    }
    if (metrics.completions != accepted || metrics.arrivals != accepted)
      report.fail("round " + std::to_string(round) + ": " +
                  std::to_string(accepted) + " accepted but " +
                  std::to_string(metrics.completions) + " completed");
    ReplanCheck replan_check = check_replans_csv(metrics.deterministic_csv);
    if (!replan_check.parsed)
      report.missing.push_back("replans table");
    if (replan_check.worse_than_stay > 0)
      report.fail("round " + std::to_string(round) + ": " +
                  std::to_string(replan_check.worse_than_stay) +
                  " replans committed worse than staying put");

    completions += metrics.completions;
    replans += metrics.replans;
    migrations += metrics.migrations;

    if (round == 0) {
      round0_csv = metrics.deterministic_csv;
      std::map<std::string, double> families = prometheus_families(
          MetricsRegistry::global().render_prometheus());
      report.fingerprint["replans"] = std::to_string(metrics.replans);
      report.fingerprint["admissions"] = std::to_string(metrics.admissions);
      report.fingerprint["migrations"] = std::to_string(metrics.migrations);
      report.fingerprint["astar_expanded"] =
          std::to_string(metrics.astar_expansions);
      report.fingerprint["astar_heuristic_evals"] =
          std::to_string(metrics.astar_heuristic_evals);
      report.fingerprint["astar_generated"] = std::to_string(
          static_cast<std::uint64_t>(
              family(families, "cosched_astar_generated_total", report)));
    }
    if (last && options.trace) {
      const double scrape_start = now_seconds();
      readout.service = prometheus_families(
          http_get("127.0.0.1", server.http_port(), "/metrics"));
      readout.scrape_ms = (now_seconds() - scrape_start) * 1e3;
      readout.process = readout.service;
      readout.phases = parse_collapsed_profile(
          http_get("127.0.0.1", server.http_port(), "/debug/profile"));
      readout.tracer_dropped = metrics.tracer_dropped_events;
      // Per-layer readings of the live server, before it goes away.
      report.layer("online.cmd_queue_depth",
                   static_cast<double>(metrics.command_queue_depth), "count");
      report.layer("online.admission_wait_vs",
                   metrics.queue_wait_count
                       ? metrics.queue_wait_seconds_sum /
                             static_cast<double>(metrics.queue_wait_count)
                       : 0.0,
                   "s");
    }
    const DegradationCache::Stats cache =
        server.service().oracle_cache().stats();
    cache_hits += cache.hits;
    cache_misses += cache.misses;
    cache_evictions += cache.evictions;
    cache_entries += cache.entries;
    server.stop();
    report.rounds = round + 1;
    if (last) break;
  }

  pin.reset();  // untimed replays below may use every CPU
  report.peak_rss_mb = peak_rss_mb();

  // ---- schedule quality ---------------------------------------------------
  // A fixed number of rounds replayed in-process through
  // OnlineScheduler::run, untimed and spread over threads. A closed loop in
  // virtual time commits exactly the placements of the in-process run, so
  // the quality is that of the served schedule, from more rounds than the
  // timed phase gets through, and independent of how fast the host is.
  // One more replay, of the served round 0's own stream, must match it
  // byte for byte.
  const auto replays =
      replay_rounds(kQualityRounds + 1, 4, [&](std::uint64_t r) {
        OnlineScheduler scheduler(churn_server_options().service.scheduler);
        WorkloadTrace trace;
        trace.jobs = r < kQualityRounds
                         ? churn_jobs(options.seed, r, kQualityJobs)
                         : churn_jobs(options.seed, 0);
        scheduler.run(trace);
        return std::vector<std::string>{
            scheduler.metrics().render_deterministic_csv()};
      });
  Quality quality;
  for (std::uint64_t r = 0; r < kQualityRounds; ++r) {
    if (replays[r].empty()) {
      report.fail("quality replay round " + std::to_string(r) + " threw");
      continue;
    }
    quality.add(replays[r][0]);
  }
  quality.apply(report);
  if (replays[kQualityRounds].empty() ||
      replays[kQualityRounds][0] != round0_csv)
    report.fail("round 0 served over rpc differs from the in-process run");
  if (!options.trace) return report;

  // ---- traced run: per-layer numbers -------------------------------------
  const double ops = static_cast<double>(ops_served);
  read_server_layers(readout, ops, report);
  report.layer("core.oracle_hits", cache_hits / ops, "count/op");
  report.layer("core.oracle_misses", cache_misses / ops, "count/op");
  report.layer("core.hit_ratio",
               cache_hits + cache_misses
                   ? static_cast<double>(cache_hits) /
                         static_cast<double>(cache_hits + cache_misses)
                   : 0.0,
               "ratio");
  report.layer("core.evictions", cache_evictions / ops, "count/op");
  report.layer("core.entries",
               static_cast<double>(cache_entries) / report.rounds, "count");
  report.layer("online.replans", static_cast<double>(replans) / ops,
               "count/op");
  report.layer("online.admitted_per_replan",
               replans ? static_cast<double>(completions) / replans : 0.0,
               "count");
  report.layer("vm.migrations", static_cast<double>(migrations) / ops,
               "count/op");

  const SpanLog::Totals client = spans.totals("CoschedClient::submit");
  const double server_count =
      family(readout.service, "cosched_rpc_request_seconds_count", report);
  const double server_ms =
      server_count > 0
          ? family(readout.service, "cosched_rpc_request_seconds_sum", report) *
                1e3 / server_count
          : 0.0;
  report.layer("rpc.requests", static_cast<double>(report.attempted), "count");
  report.layer("rpc.failed", static_cast<double>(client_failed), "count");
  report.layer("rpc.retries", static_cast<double>(client_retries), "count");
  report.layer("rpc.client_ms", client.mean_ms(), "ms");
  report.layer("rpc.server_ms", server_ms, "ms");
  report.layer("net.overhead_ms", client.mean_ms() - server_ms, "ms");
  report.layer("net.frame_bytes",
               report.attempted ? frame_bytes / report.attempted : 0.0,
               "bytes");

  // Replay round 0's stream in-process: first through the service's public
  // submit (no rpc, no net), then as one OnlineScheduler::run batch, so the
  // online layer's own cost separates from rpc and net.
  // Pinned like the timed phase, and only the timed jobs get spans, so
  // online.service_ms compares with rpc.client_ms.
  pin.emplace();
  std::vector<TraceJob> jobs = churn_jobs(options.seed, 0);
  {
    ScopedSpan replay(spans, "replay.service", ++op);
    LiveSchedulerService service(churn_server_options().service);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SubmitOutcome out;
      SpanLog& log = i < kPrefixJobs ? untraced : spans;
      ScopedSpan span(log, "LiveSchedulerService::submit", ++op,
                      replay.index());
      if (!service.submit(jobs[i], out, -1.0) ||
          out.error != SubmitError::None)
        report.fail("in-process submit " + jobs[i].name);
    }
    DrainOutcome drained;
    service.drain(drained, -1.0);
  }
  {
    OnlineScheduler scheduler(churn_server_options().service.scheduler);
    WorkloadTrace trace;
    trace.jobs = jobs;
    ScopedSpan span(spans, "OnlineScheduler::run", ++op);
    scheduler.run(trace);
  }
  const SpanLog::Totals service_spans =
      spans.totals("LiveSchedulerService::submit");
  report.layer("online.service_ms", service_spans.mean_ms(), "ms");
  report.layer("online.run_s", spans.totals("OnlineScheduler::run").total_s,
               "s");
  report.notes = spans.summary();
  spans.write_chrome_json(options.out_dir + "/online-churn.spans.json");
  return report;
}

}  // namespace perfbench
