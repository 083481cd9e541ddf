// rpc_server: stand up the co-scheduling service behind its TCP front-end.
//
//   ./rpc_server --port 7717 --machines 6 --cores 4 --wall-scale 4
//
// Runs until an RPC Shutdown arrives (see rpc_client). In wall-clock mode
// (the default here) arrivals are stamped from real elapsed time, so jobs
// submitted from another terminal land "now" on the virtual clock; pass
// --virtual 1 to drive the clock purely from submitted arrival times
// (deterministic replay mode). On exit the scheduler metrics are written as
// CSVs under --out (directory is created if missing).
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "loadgen/slo.hpp"
#include "obs/log.hpp"
#include "obs/otlp.hpp"
#include "obs/profiler.hpp"
#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "rpc/server.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  ArgParser args(argc, argv);

  ServerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port =
      static_cast<std::uint16_t>(args.get_int("port", 7717, 0, kMaxPort));
  options.worker_threads =
      static_cast<std::size_t>(args.get_int("workers", 2, 1, kMaxCount));
  options.max_connections = static_cast<std::size_t>(
      args.get_int("max-connections", 32, 1, kMaxCount));
  options.request_deadline_seconds = args.get_real("deadline", 10.0);
  // --shard-id N makes this server an RPC-addressable shard: the id is
  // advertised on SubmitJob acks and the GetMetrics shard block so a
  // ShardRouter started with --remote can adopt it as a backend. -1 (the
  // default) keeps it a standalone server.
  options.shard_id = static_cast<std::int32_t>(args.get_int("shard-id", -1));
  // Observability side door (GET /metrics, /healthz). 0 picks an ephemeral
  // port; --metrics-port -1 disables the endpoint entirely.
  std::int64_t metrics_port = args.get_int("metrics-port", 7718, -1, kMaxPort);
  options.enable_http = metrics_port >= 0;
  if (options.enable_http)
    options.http_port = static_cast<std::uint16_t>(metrics_port);
  // Tracer knobs mirror the acceptance configuration: --trace 1 enables
  // recording, --trace-ring bounds each thread's ring, --trace-sample-every
  // keeps 1-in-N traces head-based (deterministic under --trace-seed), and
  // --trace-keep is a comma-separated list of span-name prefixes recorded
  // even for sampled-out traces.
  if (args.get_int("trace", 0) != 0) Tracer::global().set_enabled(true);
  Tracer::global().set_max_events_per_thread(
      static_cast<std::size_t>(args.get_int("trace-ring", 4096)));
  Tracer::global().set_sample_every(
      static_cast<std::uint64_t>(args.get_int("trace-sample-every", 1)));
  Tracer::global().set_sample_seed(
      static_cast<std::uint64_t>(args.get_int("trace-seed", 0)));
  {
    std::string keep = args.get_string("trace-keep", "");
    std::vector<std::string> prefixes;
    std::size_t start = 0;
    while (start < keep.size()) {
      std::size_t comma = keep.find(',', start);
      if (comma == std::string::npos) comma = keep.size();
      if (comma > start) prefixes.push_back(keep.substr(start, comma - start));
      start = comma + 1;
    }
    if (!prefixes.empty())
      Tracer::global().set_always_keep(std::move(prefixes));
  }
  // Tail-sampling knobs: keep/drop is decided at span *end*, so these
  // compose with --trace-sample-every (head sampling) — a slow span is
  // retained even when its trace lost the head coin flip.
  // --tail-keep-slow-us N keeps spans matching --tail-prefix that ran at
  // least N microseconds; --tail-top-k K keeps the K slowest per
  // --tail-window completed spans; --tail-keep-errors keeps error spans.
  {
    std::vector<TailPolicy> policies;
    std::int64_t slow_us = args.get_int("tail-keep-slow-us", 0);
    std::int64_t top_k = args.get_int("tail-top-k", 0);
    std::string prefix = args.get_string("tail-prefix", "");
    if (slow_us > 0 || top_k > 0 || args.get_int("tail-keep-errors", 0) != 0) {
      TailPolicy policy;
      policy.name = args.get_string("tail-policy-name", "cli");
      policy.span_prefix = prefix;
      policy.min_duration_us =
          slow_us > 0 ? static_cast<Real>(slow_us) : 0.0;
      policy.top_k = top_k > 0 ? static_cast<std::size_t>(top_k) : 0;
      policy.keep_errors = args.get_int("tail-keep-errors", 0) != 0;
      policies.push_back(std::move(policy));
      TailSamplerOptions tail_options;
      tail_options.window_spans =
          static_cast<std::size_t>(args.get_int("tail-window", 64));
      TailSampler::global().configure(std::move(policies), tail_options);
    }
  }

  // Structured logging: --log-level debug|info|warn|error|off filters the
  // global logger, --log-json 1 switches the sink to JSON lines, --log-out
  // FILE appends every accepted record to a file (the tail -f surface).
  {
    std::string level_text = args.get_string("log-level", "info");
    LogLevel level = LogLevel::Info;
    if (!parse_log_level(level_text, level))
      std::cerr << "rpc_server: unknown --log-level '" << level_text
                << "' (want debug|info|warn|error|off)\n";
    Logger::global().set_level(level);
    Logger::global().set_json(args.get_int("log-json", 0) != 0);
    std::string log_out = args.get_string("log-out", "");
    if (!log_out.empty()) Logger::global().set_sink_path(log_out);
  }

  // SLO watchdog: --alerts 0 disables the engine; --alert-rules FILE loads
  // a declarative rule set (default: fast+slow burn-rate guards on the RPC
  // latency histogram); --slo FILE points the default rules at that
  // budget's p95; --tsdb-interval/--tsdb-raw/--tsdb-series size the
  // embedded store. GET /alerts (text, ?format=json) serves the state.
  options.enable_alerts = args.get_int("alerts", 1) != 0;
  options.alerts.scrape_interval_seconds = args.get_real("tsdb-interval", 1.0);
  options.alerts.tsdb.raw_capacity =
      static_cast<std::size_t>(args.get_int("tsdb-raw", 600));
  options.alerts.tsdb.max_series =
      static_cast<std::size_t>(args.get_int("tsdb-series", 1024));
  {
    std::string rules_path = args.get_string("alert-rules", "");
    if (!rules_path.empty()) {
      std::string rules_error;
      if (!load_alert_rules(rules_path, options.alerts.rules, rules_error)) {
        std::cerr << "rpc_server: --alert-rules: " << rules_error << "\n";
        return 1;
      }
    }
    std::string slo_path = args.get_string("slo", "");
    if (!slo_path.empty()) {
      SloBudget budget;
      std::string slo_error;
      if (!load_slo_budget(slo_path, budget, slo_error)) {
        std::cerr << "rpc_server: --slo: " << slo_error << "\n";
        return 1;
      }
      if (budget.p95_ms > 0.0) options.alert_budget_ms = budget.p95_ms;
    }
  }

  options.service.wall_clock = args.get_int("virtual", 0) == 0;
  options.service.wall_time_scale = args.get_real("wall-scale", 4.0);
  options.service.scheduler.cores =
      static_cast<std::uint32_t>(args.get_int("cores", 4, 1, kMaxCount));
  options.service.scheduler.machines =
      static_cast<std::int32_t>(args.get_int("machines", 6, 1, kMaxCount));
  options.service.scheduler.admission.trigger = ReplanTrigger::EveryKArrivals;
  options.service.scheduler.admission.every_k =
      static_cast<std::int32_t>(args.get_int("every-k", 2, 1, kMaxCount));
  options.service.scheduler.admission.max_wait = args.get_real("max-wait", 8.0);

  CoschedServer server(options);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "rpc_server: " << error << "\n";
    return 1;
  }

  std::cout << "cosched rpc_server listening on " << options.host << ":"
            << server.port() << "\n";
  if (server.http_port() != 0) {
    std::cout << "  metrics: curl http://" << options.host << ":"
              << server.http_port() << "/metrics\n";
    if (server.alert_engine() != nullptr)
      std::cout << "  alerts:  curl http://" << options.host << ":"
                << server.http_port() << "/alerts\n";
  }
  std::cout << "  fleet: " << options.service.scheduler.machines
            << " machines x " << options.service.scheduler.cores << " cores, "
            << (options.service.wall_clock ? "wall-clock" : "virtual-time")
            << " mode\n"
            << "  submit jobs with: ./rpc_client --port " << server.port()
            << " --jobs 20\n"
            << "  stop with:        ./rpc_client --port " << server.port()
            << " --shutdown 1\n";

  server.wait();

  MetricsOutcome metrics;
  bool have_metrics = server.service().metrics(metrics, 5.0);
  server.stop();

  if (have_metrics) {
    std::cout << "\nfinal state: " << metrics.completions << " jobs completed, "
              << metrics.replans << " replans, virtual time "
              << TextTable::fmt(metrics.virtual_now, 2) << "\n";
  }
  std::string out_dir = args.get_string("out", "results/rpc_server");
  for (const std::string& path :
       server.service().write_metrics_csvs(out_dir, "service"))
    std::cout << "wrote " << path << "\n";

  // OTLP sinks: --otlp-out DIR drops otlp_traces.json + otlp_metrics.json
  // (the collector-less path, same files CI archives from the soak);
  // --otlp-endpoint host[:port] POSTs both bodies to a live OTLP/HTTP
  // collector (4318 is the conventional port).
  TailSampler* tail =
      TailSampler::global().active() ? &TailSampler::global() : nullptr;
  std::string otlp_out = args.get_string("otlp-out", "");
  if (!otlp_out.empty()) {
    std::vector<std::string> written;
    if (otlp_write_files(otlp_out, Tracer::global(),
                         MetricsRegistry::global(), tail, {}, &written,
                         &Logger::global(), &server.service().journal()))
      for (const std::string& path : written)
        std::cout << "wrote " << path << "\n";
  }
  std::string otlp_spec = args.get_string("otlp-endpoint", "");
  if (!otlp_spec.empty()) {
    OtlpEndpoint endpoint;
    std::string otlp_error;
    if (!parse_otlp_endpoint(otlp_spec, endpoint, otlp_error)) {
      std::cerr << "rpc_server: --otlp-endpoint: " << otlp_error << "\n";
    } else {
      if (!otlp_post(endpoint, "/v1/traces",
                     otlp_traces_json(Tracer::global(), tail), otlp_error))
        std::cerr << "rpc_server: OTLP trace export failed: " << otlp_error
                  << "\n";
      if (!otlp_post(endpoint, "/v1/metrics",
                     otlp_metrics_json(MetricsRegistry::global()), otlp_error))
        std::cerr << "rpc_server: OTLP metric export failed: " << otlp_error
                  << "\n";
    }
  }
  // --profile-out FILE drops the lifetime collapsed-stack profile (the same
  // text /debug/profile serves live) for flamegraph.pl / speedscope.
  std::string profile_out = args.get_string("profile-out", "");
  if (!profile_out.empty() && Profiler::global().write_collapsed(profile_out))
    std::cout << "wrote " << profile_out << "\n";
  return 0;
}
