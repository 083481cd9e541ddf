// benchmark_app: the production load-generation driver (src/loadgen).
//
// One tool for every speed claim: open-loop (Poisson/uniform arrivals,
// bounded async in-flight depth, late-send accounting) and closed-loop
// (N streams + think time) generation, warm-up/measure/cool-down phases,
// heavy-tailed and diurnal workload shapes, tenant key mixes for the shard
// ring, a BENCH_*.json report sharing the rpc_loopback schema, an SLO gate
// and a baseline regression gate. Replaces the measurement half of the old
// rpc_loopback/rpc_soak split.
//
//   # open loop, 20 rps Poisson offered at depth 8 against the embedded
//   # single-scheduler deployment; first 20 requests are warm-up
//   ./benchmark_app --mode open --rate 20 --requests 200 --depth 8 --warmup 20
//
//   # closed loop, 4 streams, sharded deployment, heavy-tailed sizes
//   ./benchmark_app --mode closed --streams 4 --router --shards 4
//                   --shape pareto --tenant-skew 1.1
//
//   # CI gates: absolute SLO budgets and a committed-baseline comparison
//   ./benchmark_app --slo slo.json --compare BENCH_rpc_loopback.json
//                   --tolerance 0.25
//
//   # drive an external deployment (e.g. the multi-process RemoteShard
//   # smoke) and assert the router's metric fan-in over 2 shards
//   ./benchmark_app --connect 127.0.0.1:7733 --expect-shards 2
//
// Hint presets (--hint latency|throughput) pick the concurrency and the
// embedded scheduler's admission batching the way OpenVINO's benchmark_app
// picks stream counts: latency = depth/streams 1 + replan every arrival,
// throughput = depth/streams 8 + every-8 batching. Explicit flags override
// the preset.
//
// Exit codes: 0 ok; 1 infrastructure/correctness failure (errors, lost
// completions, fan-in violation); 2 SLO budget violated; 3 baseline
// regression; 4 --fail-on-alert and the deployment's SLO watchdog fired
// during the run.
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
#include "obs/log.hpp"
#include "obs/profiler.hpp"
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

  // ---- hint presets (explicit flags override) ---------------------------
  std::string hint = args.get_string("hint", "");
  std::int64_t default_concurrency = 4;
  std::int64_t default_every_k = 4;
  if (hint == "latency") {
    default_concurrency = 1;
    default_every_k = 1;
  } else if (hint == "throughput") {
    default_concurrency = 8;
    default_every_k = 8;
  } else if (!hint.empty()) {
    std::cerr << "benchmark_app: unknown --hint " << hint
              << " (latency|throughput)\n";
    return 1;
  }

  // Structured logging: --log-level debug|info|warn|error|off filters the
  // global logger (the embedded deployment's scheduler shares it), --log-json
  // 1 switches to JSON lines, --log-out FILE appends accepted records.
  {
    std::string level_text = args.get_string("log-level", "warn");
    LogLevel level = LogLevel::Warn;
    if (!parse_log_level(level_text, level))
      std::cerr << "benchmark_app: unknown --log-level '" << level_text
                << "' (want debug|info|warn|error|off)\n";
    Logger::global().set_level(level);
    Logger::global().set_json(args.get_int("log-json", 0) != 0);
    std::string log_out = args.get_string("log-out", "");
    if (!log_out.empty()) Logger::global().set_sink_path(log_out);
  }

  // ---- SLO watchdog configuration ----------------------------------------
  // Embedded deployments run the servers' alert engine (--alerts 0 turns it
  // off); --alert-rules FILE replaces the default burn-rate guards, --slo
  // FILE points them at that budget's p95, --tsdb-* size the store, and
  // --fail-on-alert 1 makes the run exit 4 when the watchdog fired.
  bool alerts_on = args.get_int("alerts", 1) != 0;
  bool fail_on_alert = args.get_int("fail-on-alert", 0) != 0;
  AlertEngineOptions alert_options;
  alert_options.scrape_interval_seconds = args.get_real("tsdb-interval", 1.0);
  alert_options.tsdb.raw_capacity =
      static_cast<std::size_t>(args.get_int("tsdb-raw", 600));
  alert_options.tsdb.max_series =
      static_cast<std::size_t>(args.get_int("tsdb-series", 1024));
  double alert_budget_ms = 900.0;
  {
    std::string rules_path = args.get_string("alert-rules", "");
    if (!rules_path.empty()) {
      std::string rules_error;
      if (!load_alert_rules(rules_path, alert_options.rules, rules_error)) {
        std::cerr << "benchmark_app: --alert-rules: " << rules_error << "\n";
        return 1;
      }
    }
    std::string slo_path = args.get_string("slo", "");
    if (!slo_path.empty()) {
      SloBudget budget;
      std::string slo_error;
      if (!load_slo_budget(slo_path, budget, slo_error)) {
        std::cerr << "benchmark_app: --slo: " << slo_error << "\n";
        return 1;
      }
      if (budget.p95_ms > 0.0) alert_budget_ms = budget.p95_ms;
    }
  }

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
  std::int64_t cooldown = args.get_int("cooldown", 0);
  if (requests <= 0 || warmup < 0 || cooldown < 0 ||
      warmup + cooldown >= requests) {
    std::cerr << "benchmark_app: need warmup + cooldown < requests\n";
    return 1;
  }

  RunnerOptions runner_options;
  runner_options.mode = mode;
  runner_options.concurrency = static_cast<std::size_t>(
      mode == LoadMode::Open
          ? args.get_int("depth", default_concurrency)
          : args.get_int("streams", default_concurrency));
  runner_options.think_seconds = args.get_real("think-ms", 0.0) / 1000.0;
  runner_options.warmup = static_cast<std::uint64_t>(warmup);
  runner_options.cooldown = static_cast<std::uint64_t>(cooldown);
  // Simulated fleet load, decoupled from the RPC request rate: 0.5 jobs
  // per virtual second is the aggregate rate rpc_loopback has always
  // offered its 8-machine fleet (~27% utilization at mean work 17.5).
  runner_options.virtual_rate = args.get_real("virtual-rate", 0.5);
  if (runner_options.concurrency < 1) {
    std::cerr << "benchmark_app: need --depth/--streams >= 1\n";
    return 1;
  }

  ArrivalSpec arrival;
  arrival.rate_rps = args.get_real("rate", 20.0);
  arrival.count = static_cast<std::int32_t>(requests);
  arrival.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::string arrival_name = args.get_string("arrival", "poisson");
  if (arrival_name == "poisson") {
    arrival.process = ArrivalProcess::Poisson;
  } else if (arrival_name == "uniform") {
    arrival.process = ArrivalProcess::Uniform;
  } else {
    std::cerr << "benchmark_app: unknown --arrival " << arrival_name
              << " (poisson|uniform)\n";
    return 1;
  }
  Real diurnal_period = args.get_real("diurnal-period", 0.0);
  if (diurnal_period > 0.0) {
    arrival.diurnal.enabled = true;
    arrival.diurnal.period_seconds = diurnal_period;
    arrival.diurnal.amplitude = args.get_real("diurnal-amplitude", 0.6);
  }

  ShapeSpec shape;
  std::string shape_name = args.get_string("shape", "uniform");
  if (shape_name == "uniform") {
    shape.size = SizeDistribution::Uniform;
  } else if (shape_name == "pareto") {
    shape.size = SizeDistribution::Pareto;
    shape.pareto_shape = args.get_real("pareto-shape", 1.5);
    shape.pareto_scale = args.get_real("pareto-scale", 5.0);
  } else {
    std::cerr << "benchmark_app: unknown --shape " << shape_name
              << " (uniform|pareto)\n";
    return 1;
  }
  shape.parallel_fraction = args.get_real("parallel", 0.2);
  shape.tenants = static_cast<std::int32_t>(args.get_int("tenants", 32));
  shape.tenant_skew = args.get_real("tenant-skew", 0.0);
  shape.seed = arrival.seed + 0x10AD;  // decorrelate sizes from arrivals

  // ---- deployment under test --------------------------------------------
  print_experiment_header(
      "benchmark_app",
      "unified load generator: " + mode_name + " loop, " +
          std::string(to_string(arrival.process)) + " arrivals, " +
          shape_name + " sizes");

  Deployment deployment;
  std::string connect = args.get_string("connect", "");
  std::int64_t shards = args.get_int("shards", 4);
  std::int64_t machines = args.get_int("machines", 8);
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
          static_cast<std::int32_t>(args.get_int("every-k", default_every_k));
      deployment.router->add_local_shard(service);
    }
    RouterServerOptions options;
    options.port = 0;
    options.worker_threads =
        std::max<std::size_t>(runner_options.concurrency, 2);
    options.request_deadline_seconds = 300.0;  // drain outlives 10 s easily
    options.enable_alerts = alerts_on;
    options.alerts = alert_options;
    options.alert_budget_ms = alert_budget_ms;
    deployment.router_server =
        std::make_unique<RouterServer>(*deployment.router, options);
    std::string error;
    if (!deployment.router_server->start(error)) {
      std::cerr << "benchmark_app: router start: " << error << "\n";
      return 1;
    }
    deployment.port = deployment.router_server->port();
    deployment.http_port = deployment.router_server->http_port();
  } else {
    ServerOptions options;
    options.port = 0;
    options.worker_threads =
        std::max<std::size_t>(runner_options.concurrency, 2);
    options.request_deadline_seconds = 300.0;  // drain outlives 10 s easily
    options.enable_alerts = alerts_on;
    options.alerts = alert_options;
    options.alert_budget_ms = alert_budget_ms;
    options.service.wall_clock = false;
    options.service.scheduler.cores =
        static_cast<std::uint32_t>(args.get_int("cores", 4));
    options.service.scheduler.machines =
        static_cast<std::int32_t>(machines);
    options.service.scheduler.admission.every_k =
        static_cast<std::int32_t>(args.get_int("every-k", default_every_k));
    deployment.single = std::make_unique<CoschedServer>(options);
    std::string error;
    if (!deployment.single->start(error)) {
      std::cerr << "benchmark_app: server start: " << error << "\n";
      return 1;
    }
    deployment.port = deployment.single->port();
    deployment.http_port = deployment.single->http_port();
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
    // Drain blocks until the whole backlog has run; give it minutes, not
    // the per-request seconds, and never retry it (a second drain arriving
    // while the first is mid-flight just queues more work).
    client_options.request_timeout_seconds = args.get_real("drain-timeout", 300.0);
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

  std::string metrics_out = args.get_string("metrics-out", "");
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
  std::string profile_out = args.get_string("profile-out", "");
  if (!profile_out.empty()) {
    std::string collapsed;
    if (deployment.http_port != 0)
      collapsed =
          http_get(deployment.host, deployment.http_port, "/debug/profile");
    if (collapsed.empty()) collapsed = Profiler::global().render_collapsed();
    if (write_text_file(profile_out, collapsed))
      std::cout << "wrote " << profile_out << "\n";
  }
  // --fail-on-alert: sample the watchdog before tearing the deployment
  // down. Embedded deployments expose their engine directly (lifetime
  // fired count survives resolution); a --connect deployment answers
  // GetAlerts — rules currently firing or resolved count as fired.
  std::uint64_t alerts_fired = 0;
  std::vector<std::string> fired_rules;
  if (fail_on_alert) {
    AlertEngine* engine = nullptr;
    if (deployment.single) engine = deployment.single->alert_engine();
    if (deployment.router_server)
      engine = deployment.router_server->alert_engine();
    if (engine != nullptr) {
      alerts_fired = engine->fired_total();
      fired_rules = engine->firing_rules();
    } else if (deployment.kind == "remote") {
      ClientOptions client_options;
      client_options.host = deployment.host;
      client_options.port = deployment.port;
      CoschedClient client(client_options);
      AlertsResponse remote;
      if (client.get_alerts(remote).ok()) {
        for (const AlertEntry& entry : remote.alerts) {
          if (entry.state != static_cast<std::uint8_t>(AlertState::Firing) &&
              entry.state != static_cast<std::uint8_t>(AlertState::Resolved))
            continue;
          ++alerts_fired;
          fired_rules.push_back(entry.rule);
        }
      }
    }
  }
  deployment.stop();

  // ---- report ------------------------------------------------------------
  BenchReport report;
  report.bench = "benchmark_app";
  report.mode = mode_name;
  report.deployment = deployment.kind;
  report.clients = static_cast<std::int64_t>(runner_options.concurrency);
  report.requests_ok = result.measure.requests;
  report.requests_failed = result.total_errors();
  report.warmup_requests = result.warmup.requests + result.warmup.errors;
  report.cooldown_requests =
      result.cooldown.requests + result.cooldown.errors;
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
  table.add_row({"cool-down requests (excluded)",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.cooldown_requests))});
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
  write_csv(args.get_string("out", "results"), "benchmark_app", table);

  std::string bench_out =
      args.get_string("bench-out", "BENCH_benchmark_app.json");
  if (!bench_out.empty()) {
    if (write_text_file(bench_out, report.to_json()))
      std::cout << "wrote " << bench_out << "\n";
  }

  // ---- gates: committed-baseline regression, then absolute SLO -----------
  std::string compare_path = args.get_string("compare", "");
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
    Real tolerance = args.get_real("tolerance", 0.25);
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

  std::string slo_path = args.get_string("slo", "");
  if (!slo_path.empty()) {
    SloBudget budget;
    std::string error;
    if (!load_slo_budget(slo_path, budget, error)) {
      std::cerr << "benchmark_app: --slo: " << error << "\n";
      return 1;
    }
    SloVerdict verdict = evaluate_slo(budget, report);
    std::cout << "SLO " << slo_path << ":\n" << verdict.describe();
    if (!verdict.pass) {
      std::cerr << "benchmark_app: SLO VIOLATED per " << slo_path << "\n";
      if (exit_code == 0) exit_code = 2;
    }
  }

  // ---- gate: the SLO watchdog itself (--fail-on-alert) -------------------
  if (fail_on_alert && alerts_fired > 0) {
    std::cerr << "benchmark_app: watchdog fired " << alerts_fired
              << " alert(s) during the run:";
    for (const std::string& rule : fired_rules) std::cerr << " " << rule;
    std::cerr << "\n";
    if (exit_code == 0) exit_code = 4;
  }

  return exit_code;
}
