// benchmark_app: the RPC load driver (src/loadgen).
//
// One tool for every speed claim: open-loop (Poisson arrivals, bounded
// async in-flight depth, late-send accounting) and closed-loop (N streams)
// generation, warm-up exclusion, tenant key mixes for the shard ring, a
// BENCH_*.json report in the committed baselines' schema, an SLO gate and a
// baseline regression gate.
//
//   # open loop, 20 rps Poisson offered at depth 8 against the embedded
//   # single-scheduler deployment; first 20 requests are warm-up
//   ./benchmark_app --mode open --rate 20 --requests 200 --depth 8 --warmup 20
//
//   # closed loop, 2 streams over loopback, with a Chrome trace of the run
//   ./benchmark_app --mode closed --streams 2 --requests 80 --warmup 10
//                   --trace-out traces/loopback.json
//
//   # the same load through an embedded router over 2 local shards; exits 1
//   # unless the router's metric fan-in holds
//   ./benchmark_app --mode closed --streams 2 --router --shards 2
//                   --tenant-skew 1.1
//
//   # CI gates: absolute SLO budgets and a committed-baseline comparison
//   ./benchmark_app --slo slo.json --compare BENCH_rpc_loopback.json
//                   --tolerance 0.25
//
//   # drive an external deployment (e.g. the multi-process RemoteShard
//   # smoke) and assert the router's metric fan-in over 2 shards
//   ./benchmark_app --connect 127.0.0.1:7733 --expect-shards 2
//
// Every flag is read before the deployment starts; an unknown one exits 2
// naming it, as does a bad numeric value.
//
// Exit codes: 0 ok; 1 infrastructure/correctness failure (errors, lost
// completions, fan-in violation); 2 SLO budget violated, or an unknown or
// bad flag; 3 baseline regression.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "loadgen/arrival.hpp"
#include "loadgen/report.hpp"
#include "loadgen/runner.hpp"
#include "loadgen/shapes.hpp"
#include "loadgen/slo.hpp"
#include "obs/http.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"

namespace {

using namespace cosched;

/// The deployment under test: an embedded single CoschedServer, an embedded
/// RouterServer over local shards, or an external address (--connect).
struct Deployment {
  std::string kind = "single";  ///< single | router | remote
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;     ///< 0 = no scrapeable side door
  std::int64_t expect_shards = 0;  ///< > 0: assert the metric fan-in

  std::unique_ptr<CoschedServer> single;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<RouterServer> router_server;

  /// Starts the embedded server, if any, and records its ports.
  bool start(std::string& error) {
    if (router_server) {
      if (!router_server->start(error)) return false;
      port = router_server->port();
      http_port = router_server->http_port();
    } else if (single) {
      if (!single->start(error)) return false;
      port = single->port();
      http_port = single->http_port();
    }
    return true;
  }

  void stop() {
    if (router_server) router_server->stop();
    if (single) single->stop();
  }
};

/// The router's Σ promise, checked through the front door: every fleet
/// total equals the sum of its per-shard entries, the routed request count
/// equals what this run submitted, and nothing was lost before drain.
/// Fleet totals must equal the shard sums, and this run's share of them —
/// everything past `baseline_requests` (what the deployment had already
/// served when benchmark_app attached) — must match what the runner
/// submitted. Keeps the invariant meaningful against a --connect deployment
/// with prior traffic (e.g. a correlated tracing batch in the smoke test).
bool fan_in_holds(const MetricsResponse& metrics, std::int64_t expect_shards,
                  std::uint64_t submitted_ok, std::uint64_t completions,
                  std::uint64_t baseline_requests) {
  std::uint64_t sum_requests = 0, sum_arrivals = 0, sum_admissions = 0;
  std::uint64_t sum_completions = 0, sum_replans = 0, sum_migrations = 0;
  for (const ShardMetricsEntry& entry : metrics.shards) {
    sum_requests += entry.requests;
    sum_arrivals += entry.arrivals;
    sum_admissions += entry.admissions;
    sum_completions += entry.completions;
    sum_replans += entry.replans;
    sum_migrations += entry.migrations;
  }
  return metrics.shards.size() == static_cast<std::size_t>(expect_shards) &&
         metrics.arrivals == sum_arrivals &&
         metrics.admissions == sum_admissions &&
         metrics.completions == sum_completions &&
         metrics.replans == sum_replans &&
         metrics.migrations == sum_migrations &&
         sum_requests == baseline_requests + submitted_ok &&
         metrics.completions == completions;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);

  // --slo FILE gates the finished run against that budget (exit 2).
  SloFlag slo = read_slo_flag(args, "benchmark_app");

  // ---- generator configuration ------------------------------------------
  std::string mode_name = args.get_string("mode", "open");
  if (mode_name != "open" && mode_name != "closed") {
    std::cerr << "benchmark_app: unknown --mode " << mode_name
              << " (open|closed)\n";
    return 1;
  }
  LoadMode mode = mode_name == "open" ? LoadMode::Open : LoadMode::Closed;
  std::int64_t requests = args.get_int("requests", 200);
  std::int64_t warmup = args.get_int("warmup", requests / 10);
  if (requests <= 0 || warmup < 0 || warmup >= requests) {
    std::cerr << "benchmark_app: need 0 <= warmup < requests\n";
    return 1;
  }

  RunnerOptions runner_options;
  runner_options.mode = mode;
  runner_options.concurrency = static_cast<std::size_t>(
      mode == LoadMode::Open ? args.get_int("depth", 4)
                             : args.get_int("streams", 4));
  runner_options.warmup = static_cast<std::uint64_t>(warmup);
  // Simulated fleet load, decoupled from the RPC request rate: 0.5 jobs
  // per virtual second is the load the committed baselines were recorded
  // at, ~27% utilization of the default 8-machine fleet at mean work 17.5.
  runner_options.virtual_rate = args.get_real("virtual-rate", 0.5);
  if (runner_options.concurrency < 1) {
    std::cerr << "benchmark_app: need --depth/--streams >= 1\n";
    return 1;
  }

  ArrivalSpec arrival;
  arrival.rate_rps = args.get_real("rate", 20.0);
  arrival.count = static_cast<std::int32_t>(requests);
  arrival.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  ShapeSpec shape;
  shape.parallel_fraction = args.get_real("parallel", 0.2);
  shape.tenants = static_cast<std::int32_t>(args.get_int("tenants", 32));
  shape.tenant_skew = args.get_real("tenant-skew", 0.0);
  shape.seed = arrival.seed + 0x10AD;  // decorrelate sizes from arrivals

  // ---- outputs and gates --------------------------------------------------
  // Drain blocks until the whole backlog has run; give it minutes, not the
  // per-request seconds.
  Real drain_timeout = args.get_real("drain-timeout", 300.0);
  std::string trace_out = args.get_string("trace-out", "");
  std::string metrics_out = args.get_string("metrics-out", "");
  std::string profile_out = args.get_string("profile-out", "");
  std::string csv_dir = args.get_string("out", "results");
  std::string bench_out =
      args.get_string("bench-out", "BENCH_benchmark_app.json");
  std::string compare_path = args.get_string("compare", "");
  Real tolerance = args.get_real("tolerance", 0.25);

  // ---- deployment under test --------------------------------------------
  // --trace-out FILE records the whole run (client, RPC and scheduler
  // spans) from before the deployment starts and writes a Chrome trace
  // after drain.
  if (!trace_out.empty()) Tracer::global().set_enabled(true);

  Deployment deployment;
  std::string connect = args.get_string("connect", "");
  if (!connect.empty()) {
    deployment.kind = "remote";
    if (!split_host_port(connect, deployment.host, deployment.port)) {
      std::cerr << "benchmark_app: bad --connect " << connect
                << " (want host:port)\n";
      return 1;
    }
    deployment.expect_shards = args.get_int("expect-shards", 0);
  } else if (args.has("router")) {
    deployment.kind = "router";
    std::int64_t shards = args.get_int("shards", 4);
    std::int64_t machines = args.get_int("machines", 8);
    deployment.expect_shards = args.get_int("expect-shards", shards);
    RouterOptions router_options;
    router_options.shard_timeout_seconds = 300.0;  // per-shard drain budget
    deployment.router = std::make_unique<ShardRouter>(router_options);
    for (std::int64_t s = 0; s < shards; ++s) {
      LiveServiceOptions service;
      service.wall_clock = false;
      service.scheduler.cores =
          static_cast<std::uint32_t>(args.get_int("cores", 4));
      service.scheduler.machines = static_cast<std::int32_t>(
          std::max<std::int64_t>(1, machines / shards));
      service.scheduler.admission.every_k =
          static_cast<std::int32_t>(args.get_int("every-k", 4));
      deployment.router->add_local_shard(service);
    }
    RouterServerOptions options;
    options.port = 0;
    options.worker_threads =
        std::max<std::size_t>(runner_options.concurrency, 2);
    options.request_deadline_seconds = 300.0;  // drain outlives 10 s easily
    deployment.router_server =
        std::make_unique<RouterServer>(*deployment.router, options);
  } else {
    ServerOptions options;
    options.port = 0;
    options.worker_threads =
        std::max<std::size_t>(runner_options.concurrency, 2);
    options.request_deadline_seconds = 300.0;  // drain outlives 10 s easily
    options.service.wall_clock = false;
    options.service.scheduler.cores =
        static_cast<std::uint32_t>(args.get_int("cores", 4));
    options.service.scheduler.machines =
        static_cast<std::int32_t>(args.get_int("machines", 8));
    options.service.scheduler.admission.every_k =
        static_cast<std::int32_t>(args.get_int("every-k", 4));
    deployment.single = std::make_unique<CoschedServer>(options);
  }
  args.reject_unread();

  print_experiment_header("benchmark_app",
                          "RPC load driver: " + mode_name + " loop against " +
                              deployment.kind + " deployment");
  {
    std::string error;
    if (!deployment.start(error)) {
      std::cerr << "benchmark_app: " << deployment.kind
                << " start: " << error << "\n";
      return 1;
    }
  }
  runner_options.host = deployment.host;
  runner_options.port = deployment.port;

  // An external deployment may have served traffic before we attached;
  // snapshot its counters so the post-run accounting works on deltas. The
  // final drain completes that earlier backlog along with ours, so the
  // completions check is anchored on prior arrivals, not prior completions.
  std::uint64_t baseline_requests = 0, baseline_arrivals = 0;
  if (deployment.kind == "remote") {
    ClientOptions client_options;
    client_options.host = deployment.host;
    client_options.port = deployment.port;
    CoschedClient client(client_options);
    MetricsResponse before;
    if (client.get_metrics(before).ok()) {
      baseline_arrivals = before.arrivals;
      for (const ShardMetricsEntry& entry : before.shards)
        baseline_requests += entry.requests;
      if (before.shards.empty()) baseline_requests = before.arrivals;
    }
  }

  // ---- generate and run --------------------------------------------------
  std::vector<TraceJob> jobs =
      build_jobs(shape, static_cast<std::int32_t>(requests));
  std::vector<Real> schedule;
  if (mode == LoadMode::Open) schedule = build_arrival_schedule(arrival);

  LoadRunner runner(runner_options);
  LoadResult result = runner.run(jobs, schedule);

  // ---- drain, completions, fan-in ----------------------------------------
  int exit_code = 0;
  std::uint64_t completions = 0;
  {
    ClientOptions client_options;
    client_options.host = deployment.host;
    client_options.port = deployment.port;
    // Never retry the drain: a second one arriving while the first is
    // mid-flight just queues more work.
    client_options.request_timeout_seconds = drain_timeout;
    client_options.max_attempts = 1;
    CoschedClient client(client_options);
    DrainResponse drained;
    RpcError drain_error = client.drain(drained);
    if (!drain_error.ok()) {
      std::cerr << "benchmark_app: drain: " << drain_error.describe() << "\n";
      deployment.stop();
      return 1;
    }
    completions = drained.completions;

    if (deployment.expect_shards > 0) {
      MetricsResponse metrics;
      RpcError metrics_error = client.get_metrics(metrics);
      if (!metrics_error.ok() ||
          !fan_in_holds(metrics, deployment.expect_shards,
                        result.total_requests(), completions,
                        baseline_requests)) {
        std::cerr << "benchmark_app: metric fan-in VIOLATED ("
                  << metrics.shards.size() << " shards reported)\n";
        exit_code = 1;
      } else {
        std::cout << "fan-in invariant ok across " << metrics.shards.size()
                  << " shards\n";
      }
    }
  }

  if (completions - baseline_arrivals != result.total_requests()) {
    std::cerr << "benchmark_app: " << result.total_requests()
              << " accepted submissions but "
              << (completions - baseline_arrivals)
              << " completions after drain\n";
    exit_code = 1;
  }
  if (result.total_errors() != 0) {
    std::cerr << "benchmark_app: " << result.total_errors()
              << " requests failed\n";
    exit_code = 1;
  }

  if (!metrics_out.empty() && deployment.http_port != 0) {
    std::string exposition =
        http_get(deployment.host, deployment.http_port, "/metrics");
    if (exposition.empty())
      std::cerr << "benchmark_app: GET /metrics failed\n";
    else if (write_text_file(metrics_out, exposition))
      std::cout << "wrote " << metrics_out << "\n";
  }
  // --profile-out FILE: the loaded deployment's collapsed-stack profile.
  // Embedded deployments are scraped through their own /debug/profile side
  // door (exercising the endpoint end to end); without one, fall back to
  // this process's profiler directly.
  if (!profile_out.empty()) {
    std::string collapsed;
    if (deployment.http_port != 0)
      collapsed =
          http_get(deployment.host, deployment.http_port, "/debug/profile");
    if (collapsed.empty()) collapsed = Profiler::global().render_collapsed();
    if (write_text_file(profile_out, collapsed))
      std::cout << "wrote " << profile_out << "\n";
  }
  deployment.stop();
  if (!trace_out.empty() && Tracer::global().write_chrome_json(trace_out))
    std::cout << "wrote " << trace_out << "\n";

  // ---- report ------------------------------------------------------------
  BenchReport report;
  report.bench = "benchmark_app";
  report.mode = mode_name;
  report.deployment = deployment.kind;
  report.clients = static_cast<std::int64_t>(runner_options.concurrency);
  report.requests_ok = result.measure.requests;
  report.requests_failed = result.total_errors();
  report.warmup_requests = result.warmup.requests + result.warmup.errors;
  report.late_sends = result.measure.late_sends;
  report.max_late_ms = result.measure.max_late_ms;
  report.offered_rps = result.offered_rps;
  report.achieved_rps = result.achieved_rps();
  report.wall_seconds = result.measure.window_seconds();
  report.latency = LatencySummary::from(result.measure.latency_ms);

  TextTable table({"metric", "value"});
  table.add_row({"mode", mode_name + " / " + deployment.kind});
  table.add_row({"concurrency",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(runner_options.concurrency))});
  table.add_row({"measure requests",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.requests_ok))});
  table.add_row({"warm-up requests (excluded)",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.warmup_requests))});
  table.add_row({"requests failed",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.requests_failed))});
  table.add_row({"late sends",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.late_sends))});
  table.add_row({"max lateness ms", TextTable::fmt(report.max_late_ms, 3)});
  table.add_row({"offered req/s", TextTable::fmt(report.offered_rps, 2)});
  table.add_row({"achieved req/s", TextTable::fmt(report.achieved_rps, 2)});
  table.add_row({"measure window s", TextTable::fmt(report.wall_seconds, 3)});
  table.add_row({"latency mean ms", TextTable::fmt(report.latency.mean, 3)});
  table.add_row({"latency p50 ms", TextTable::fmt(report.latency.p50, 3)});
  table.add_row({"latency p95 ms", TextTable::fmt(report.latency.p95, 3)});
  table.add_row({"latency p99 ms", TextTable::fmt(report.latency.p99, 3)});
  table.add_row({"latency max ms", TextTable::fmt(report.latency.max, 3)});
  table.add_row({"jobs completed",
                 TextTable::fmt_int(static_cast<std::int64_t>(completions))});
  std::cout << table.render() << "\n";
  write_csv(csv_dir, "benchmark_app", table);

  if (!bench_out.empty()) {
    if (write_text_file(bench_out, report.to_json()))
      std::cout << "wrote " << bench_out << "\n";
  }

  // ---- gates: committed-baseline regression, then absolute SLO -----------
  if (!compare_path.empty()) {
    FlatJson baseline_json;
    std::string error;
    if (!load_flat_json(compare_path, baseline_json, error)) {
      std::cerr << "benchmark_app: --compare: " << error << "\n";
      return 1;
    }
    BaselineStats baseline = extract_baseline(baseline_json);
    if (!baseline.ok) {
      std::cerr << "benchmark_app: --compare: no latency_ms.p95 in "
                << compare_path << "\n";
      return 1;
    }
    CompareResult compared = compare_to_baseline(report, baseline, tolerance);
    std::cout << "baseline " << compare_path
              << (baseline.source_prefix.empty()
                      ? ""
                      : " (" + baseline.source_prefix + ")")
              << ", tolerance " << TextTable::fmt(tolerance, 2) << ":\n"
              << compared.describe();
    if (!compared.pass) {
      std::cerr << "benchmark_app: REGRESSION vs " << compare_path << "\n";
      if (exit_code == 0) exit_code = 3;
    }
  }

  if (!slo.path.empty()) {
    SloVerdict verdict = evaluate_slo(slo.budget, report);
    std::cout << "SLO " << slo.path << ":\n" << verdict.describe();
    if (!verdict.pass) {
      std::cerr << "benchmark_app: SLO VIOLATED per " << slo.path << "\n";
      if (exit_code == 0) exit_code = 2;
    }
  }

  return exit_code;
}
