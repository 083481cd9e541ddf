// fleet-burst: an embedded RouterServer over 2 local shards of 4 x 4 cores,
// admission batches of 4 (every_k = 4), driven by an open-loop Poisson
// generator at a fixed rate with at most 4 requests in flight and a Zipf
// tenant mix. About three in four submissions never replan, so p50 is the
// per-request path (framing, dispatch, ring hash and spillover check,
// observability); about one in four carries a batched replan of a busy
// shard, which p90 measures.
//
// Latency is timed from each request's scheduled send time, so a stalled
// generator charges the wait to the requests behind it; late sends are
// counted. A run is a sequence of rounds, each with a fresh deployment.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "loadgen/arrival.hpp"
#include "obs/http.hpp"
#include "obs/metrics_registry.hpp"
#include "rpc/client.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"

namespace perfbench {

namespace {

using namespace cosched;

constexpr std::size_t kShards = 2;
constexpr std::int32_t kMachinesPerShard = 4;
constexpr std::size_t kDepth = 4;
constexpr double kRateRps = 50.0;
constexpr double kRoundSeconds = 2.5;
constexpr std::int32_t kWarmupJobs = 48;
constexpr double kInterarrival = 1.8;  ///< virtual seconds, whole fleet
constexpr double kLateMs = 1.0;
constexpr std::uint64_t kQualityRounds = 64;
constexpr int kPaceSamplesPerSide = 4;

LiveServiceOptions shard_options() {
  LiveServiceOptions options;
  options.scheduler.machines = kMachinesPerShard;
  options.scheduler.admission.every_k = 4;
  return options;
}

std::vector<TraceJob> burst_jobs(std::uint64_t seed, std::uint64_t round,
                                 std::int32_t count) {
  JobStreamSpec spec;
  spec.seed = seed;
  spec.round = round;
  spec.count = count;
  spec.mean_interarrival = kInterarrival;
  spec.tenants = 128;
  spec.tenant_skew = 0.6;
  return make_job_stream(spec);
}

/// Σ fan-in: every fleet total equals the sum of the shard entries shipped
/// alongside it, and the per-shard routed requests add up to what we sent.
bool fan_in_holds(const MetricsResponse& m, std::uint64_t sent) {
  std::uint64_t requests = 0, arrivals = 0, admissions = 0, completions = 0,
                replans = 0, migrations = 0;
  for (const ShardMetricsEntry& e : m.shards) {
    requests += e.requests;
    arrivals += e.arrivals;
    admissions += e.admissions;
    completions += e.completions;
    replans += e.replans;
    migrations += e.migrations;
  }
  return m.shards.size() == kShards && m.arrivals == arrivals &&
         m.admissions == admissions && m.completions == completions &&
         m.replans == replans && m.migrations == migrations &&
         requests == sent;
}

struct Sent {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
  bool sent = false;
  bool ok = false;
  int attempts = 0;
  std::int32_t shard = -1;
  std::size_t queue_depth = 0;
  std::string error;
};

}  // namespace

Report run_fleet_burst(const RunOptions& options) {
  Report report;
  report.workload = "fleet-burst";
  // One malloc arena for the process: with a dozen threads taking turns on
  // one CPU, glibc's on-contention arena creation made peak RSS wander by a
  // fifth from run to run. The cap cannot be lifted once arenas exist, so
  // the quality replays below run on one thread.
  mallopt(M_ARENA_MAX, 1);
  SpanLog spans(options.trace);

  std::uint64_t accepted_total = 0, completions = 0, replans = 0,
                migrations = 0, ops_served = 0, failed_rpcs = 0, retries = 0;
  std::uint64_t late_sends = 0, spillovers = 0;
  double max_late_ms = 0.0, frame_bytes = 0.0, queue_depth_sum = 0.0;
  std::vector<std::uint64_t> shard_requests(kShards, 0);
  ServerReadout readout;
  double deadline = 0.0;
  std::vector<TraceJob> round0_jobs;
  std::vector<std::int32_t> round0_shard;
  std::uint64_t op = 0;

  const auto timed = static_cast<std::int32_t>(kRateRps * kRoundSeconds);
  std::optional<CpuPin> pin(std::in_place);
  for (std::uint64_t round = 0;; ++round) {
    // ---- set-up: deployment, inputs, warm-up ------------------------------
    const double setup_start = round == 0 ? 0.0 : now_seconds();
    RouterOptions router_options;
    ShardRouter router(router_options);
    for (std::size_t s = 0; s < kShards; ++s)
      router.add_local_shard(shard_options());
    RouterServerOptions server_options;
    server_options.worker_threads = kDepth;  // one per generator connection
    RouterServer server(router, server_options);
    std::string error;
    if (!server.start(error)) {
      report.fail("router start: " + error);
      return report;
    }
    std::vector<TraceJob> jobs =
        burst_jobs(options.seed, round, kWarmupJobs + timed);
    ArrivalSpec arrival;
    arrival.rate_rps = kRateRps;
    arrival.count = timed;
    arrival.seed = mix_seed(options.seed, round, 0xA771);
    std::vector<Real> schedule = build_arrival_schedule(arrival);

    ClientOptions client_options;
    client_options.port = server.port();
    std::vector<std::unique_ptr<CoschedClient>> clients;
    for (std::size_t c = 0; c < kDepth; ++c)
      clients.push_back(std::make_unique<CoschedClient>(client_options));
    std::uint64_t accepted = 0;
    for (std::int32_t i = 0; i < kWarmupJobs; ++i) {
      SubmitJobResponse out;
      RpcError rpc = clients[0]->submit_job(jobs[static_cast<std::size_t>(i)],
                                            out);
      ++ops_served;
      if (!rpc.ok())
        report.fail("warm-up SubmitJob: " + rpc.describe());
      else
        ++accepted;
    }
    report.setups.push_back({setup_start, now_seconds()});
    if (round == 0) deadline = now_seconds() + options.seconds;

    // ---- open loop -------------------------------------------------------
    // The pace kernel cannot run inside an open loop without delaying its
    // sends, so it is sampled just before and just after each round's.
    for (int i = 0; i < kPaceSamplesPerSide; ++i) report.pace.sample();
    std::optional<IdleSpinner> spinner(std::in_place);
    std::vector<Sent> sent(static_cast<std::size_t>(timed));
    std::atomic<std::size_t> next{0};
    const double t0 = now_seconds();
    const bool cut = round > 0;
    auto worker = [&](std::size_t c) {
      CoschedClient& client = *clients[c];
      while (true) {
        std::size_t i = next.fetch_add(1);
        if (i >= sent.size()) return;
        Sent& s = sent[i];
        s.due = t0 + schedule[i];
        if (cut && s.due >= deadline) return;
        const double wait = s.due - now_seconds();
        if (wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        s.queue_depth = router.shard(0).load().queue_depth +
                        router.shard(1).load().queue_depth;
        const TraceJob& job = jobs[static_cast<std::size_t>(kWarmupJobs) + i];
        SubmitJobResponse out;
        s.start = now_seconds();
        RpcError rpc = client.submit_job(job, out);
        s.end = now_seconds();
        s.sent = true;
        s.ok = rpc.ok();
        s.attempts = rpc.attempts;
        s.shard = out.shard_id;
        if (!rpc.ok()) s.error = rpc.describe();
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kDepth; ++c) threads.emplace_back(worker, c);
    for (std::thread& t : threads) t.join();
    spinner.reset();
    for (int i = 0; i < kPaceSamplesPerSide; ++i) report.pace.sample();

    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Sent& s = sent[i];
      if (!s.sent) continue;
      const TraceJob& job = jobs[static_cast<std::size_t>(kWarmupJobs) + i];
      ++report.attempted;
      ++ops_served;
      report.ops.push_back({s.due, s.end});
      const double late = (s.start - s.due) * 1e3;
      if (late > kLateMs) ++late_sends;
      max_late_ms = std::max(max_late_ms, late);
      retries += static_cast<std::uint64_t>(std::max(0, s.attempts - 1));
      frame_bytes += static_cast<double>(submit_frame_bytes(job));
      queue_depth_sum += static_cast<double>(s.queue_depth);
      // Generator threads time their calls; the spans are logged here, on
      // one thread, from those timestamps.
      spans.add("CoschedClient::submit", ++op, s.start, s.end);
      if (!s.ok) {
        ++failed_rpcs;
        report.fail("SubmitJob " + job.name + ": " + s.error);
        continue;
      }
      ++accepted;
      if (round == 0) {
        round0_jobs.push_back(job);
        round0_shard.push_back(s.shard);
      }
    }

    // ---- drain, fan-in, checks ---------------------------------------------
    const bool last = now_seconds() >= deadline;
    DrainResponse drained;
    MetricsResponse fleet;
    RpcError drain_error = clients[0]->drain(drained);
    RpcError metrics_error = clients[0]->get_metrics(fleet);
    if (!drain_error.ok() || !metrics_error.ok()) {
      report.fail("round " + std::to_string(round) + " drain/metrics: " +
                  drain_error.describe() + " " + metrics_error.describe());
      server.stop();
      return report;
    }
    const RouterStats stats = router.stats();
    if (!fan_in_holds(fleet, stats.requests))
      report.fail("round " + std::to_string(round) + ": router fan-in sums "
                  "do not match the shard entries");
    if (fleet.completions != accepted || stats.submitted_ok != accepted)
      report.fail("round " + std::to_string(round) + ": " +
                  std::to_string(accepted) + " accepted but " +
                  std::to_string(fleet.completions) + " completed");
    for (std::size_t s = 0; s < kShards; ++s) {
      MetricsResponse shard;
      std::string shard_error;
      if (router.shard(s).metrics(shard, shard_error) != RpcStatus::Ok) {
        report.fail("shard metrics: " + shard_error);
        continue;
      }
      ReplanCheck check = check_replans_csv(shard.deterministic_csv);
      if (!check.parsed) report.missing.push_back("replans table");
      if (check.worse_than_stay > 0)
        report.fail("shard " + std::to_string(s) + ": " +
                    std::to_string(check.worse_than_stay) +
                    " replans committed worse than staying put");
    }
    accepted_total += accepted;
    completions += fleet.completions;
    replans += fleet.replans;
    migrations += fleet.migrations;
    spillovers += stats.spillovers;
    for (std::size_t s = 0; s < kShards; ++s)
      shard_requests[s] += stats.per_shard_requests[s];

    if (last && options.trace) {
      const double scrape_start = now_seconds();
      readout.service = prometheus_families(
          http_get("127.0.0.1", server.http_port(), "/metrics"));
      readout.scrape_ms = (now_seconds() - scrape_start) * 1e3;
      readout.phases = parse_collapsed_profile(
          http_get("127.0.0.1", server.http_port(), "/debug/profile"));
      readout.process = prometheus_families(
          MetricsRegistry::global().render_prometheus());
      readout.tracer_dropped = fleet.tracer_dropped_events;
    }
    server.stop();
    report.rounds = round + 1;
    if (last) break;
  }

  pin.reset();  // untimed replays below may use every CPU
  report.peak_rss_mb = peak_rss_mb();

  // ---- schedule quality ---------------------------------------------------
  // A fixed number of rounds replayed in-process through a ShardRouter in
  // submission order, untimed: the placements the
  // fleet commits for these job streams, from more rounds than the timed
  // phase gets through and independent of how fast the host is. (Served
  // over rpc, up to four requests overlap, so a shard may see two jobs in
  // the other order; the timed rounds are checked, not compared.)
  const auto replays = replay_rounds(kQualityRounds, 1, [&](std::uint64_t r) {
    ShardRouter router;
    for (std::size_t s = 0; s < kShards; ++s)
      router.add_local_shard(shard_options());
    std::string error;
    for (const TraceJob& job :
         burst_jobs(options.seed, r, kWarmupJobs + timed)) {
      SubmitJobResponse out;
      if (router.submit(job, out, error) != RpcStatus::Ok)
        return std::vector<std::string>{};
    }
    DrainResponse drained;
    router.drain(drained, error);
    std::vector<std::string> csvs;
    for (std::size_t s = 0; s < kShards; ++s) {
      MetricsResponse shard;
      if (router.shard(s).metrics(shard, error) != RpcStatus::Ok)
        return std::vector<std::string>{};
      csvs.push_back(shard.deterministic_csv);
    }
    return csvs;
  });
  Quality quality;
  for (std::uint64_t r = 0; r < replays.size(); ++r) {
    if (replays[r].empty())
      report.fail("quality replay round " + std::to_string(r) + " failed");
    for (const std::string& csv : replays[r]) quality.add(csv);
  }
  quality.apply(report);
  if (!options.trace) return report;

  // ---- traced run: per-layer numbers ---------------------------------------
  const double ops = static_cast<double>(ops_served);
  read_server_layers(readout, ops, report);
  const double client_ms = report.latency_ms(false).mean();
  report.layer("rpc.requests", static_cast<double>(report.attempted), "count");
  report.layer("rpc.failed", static_cast<double>(failed_rpcs), "count");
  report.layer("rpc.retries", static_cast<double>(retries), "count");
  report.layer("rpc.client_ms", client_ms, "ms");
  report.layer("net.frame_bytes",
               report.attempted ? frame_bytes / report.attempted : 0.0,
               "bytes");
  report.layer("shard.spillovers", static_cast<double>(spillovers), "count");
  const double mean_requests =
      static_cast<double>(shard_requests[0] + shard_requests[1]) / kShards;
  report.layer("shard.imbalance",
               mean_requests > 0
                   ? static_cast<double>(*std::max_element(
                         shard_requests.begin(), shard_requests.end())) /
                         mean_requests
                   : 0.0,
               "ratio");
  report.layer("loadgen.late_sends", static_cast<double>(late_sends), "count");
  report.layer("loadgen.max_late_ms", max_late_ms, "ms");
  report.layer("online.replans", static_cast<double>(replans) / ops,
               "count/op");
  report.layer("online.admitted_per_replan",
               replans ? static_cast<double>(accepted_total) / replans : 0.0,
               "count");
  report.layer("online.cmd_queue_depth",
               report.attempted ? queue_depth_sum / report.attempted : 0.0,
               "count");
  report.layer("vm.migrations", static_cast<double>(migrations) / ops,
               "count/op");

  // ---- size-matched control -----------------------------------------------
  // Round 0's accepted jobs, replayed in submission order: once through an
  // in-process ShardRouter (the router path without rpc and net), and once
  // per shard into a lone LiveSchedulerService of the per-shard size fed
  // exactly the jobs that shard received. The gap between the two is the
  // router's own cost; the control alone is the per-shard solve cost.
  pin.emplace();
  {
    ScopedSpan replay(spans, "replay.router", ++op);
    ShardRouter router;
    for (std::size_t s = 0; s < kShards; ++s)
      router.add_local_shard(shard_options());
    for (const TraceJob& job : round0_jobs) {
      SubmitJobResponse out;
      std::string error;
      ScopedSpan span(spans, "ShardRouter::submit", ++op, replay.index());
      if (router.submit(job, out, error) != RpcStatus::Ok)
        report.fail("in-process router submit: " + error);
    }
    DrainResponse drained;
    std::string error;
    router.drain(drained, error);
  }
  Samples control_ms;
  for (std::size_t s = 0; s < kShards; ++s) {
    LiveSchedulerService service(shard_options());
    for (std::size_t i = 0; i < round0_jobs.size(); ++i) {
      if (round0_shard[i] != static_cast<std::int32_t>(s)) continue;
      SubmitOutcome out;
      const double start = now_seconds();
      {
        ScopedSpan span(spans, "LiveSchedulerService::submit", ++op);
        if (!service.submit(round0_jobs[i], out, -1.0) ||
            out.error != SubmitError::None)
          report.fail("control submit " + round0_jobs[i].name);
      }
      control_ms.add((now_seconds() - start) * 1e3);
    }
    DrainOutcome drained;
    service.drain(drained, -1.0);
  }
  // The in-process router path stands in for the server side of the rpc:
  // what is left of the client's time is rpc framing and loopback net.
  const double router_ms = spans.totals("ShardRouter::submit").mean_ms();
  report.layer("rpc.server_ms", router_ms, "ms");
  report.layer("net.overhead_ms", client_ms - router_ms, "ms");
  report.layer("shard.route_ms", router_ms - control_ms.mean(), "ms");
  report.layer("shard.control_ms", control_ms.mean(), "ms");
  report.layer("shard.control_p90_ms", control_ms.quantile(0.9), "ms");
  report.notes = spans.summary();
  spans.write_chrome_json(options.out_dir + "/fleet-burst.spans.json");
  return report;
}

}  // namespace perfbench
