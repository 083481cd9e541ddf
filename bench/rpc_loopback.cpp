// rpc_loopback: latency/throughput of the RPC front-end over loopback.
//
// Starts a CoschedServer on an ephemeral port, drives it with one or more
// client threads submitting a seeded job mix, and reports per-request
// latency percentiles plus aggregate request throughput. Virtual-time mode
// is used so the numbers measure the transport + scheduler-thread handoff,
// not simulated job durations.
//
// Measurement goes through src/loadgen: each client's first --warmup
// requests are classified Warmup by the phase controller and excluded from
// every reported figure (they still run — cold connections, cold caches
// and the first dense replans warm the service up for the measure window).
// Latencies are accumulated in the shared fixed-bucket Histogram (one per
// client phase, merged at the end), so the p50/p95/p99 reported here are
// the same bucket-interpolated quantiles the /metrics exposition serves.
// Throughput is measure-phase completions over the measure window, not the
// whole wall clock including warm-up.
//
// Besides the human-readable table (and CSV), the run always writes a
// machine-readable summary (default BENCH_rpc_loopback.json, override with
// --bench-out) in the loadgen BenchReport schema so CI can diff throughput
// and p50/p95/p99 against the checked-in baseline.
//
//   ./rpc_loopback --jobs 200 --clients 4 --warmup 8 --scale 1
//   ./rpc_loopback --trace-out traces/loopback.json --metrics-out
//                  traces/loopback_metrics.txt --bench-out bench.json
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "loadgen/phase.hpp"
#include "loadgen/report.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"

namespace {

using namespace cosched;

using Clock = std::chrono::steady_clock;

/// One client thread's accumulators, split by phase (no cool-down here —
/// the trace is finite and the tail is as interesting as the middle).
struct ClientLoad {
  PhaseStats warmup;
  PhaseStats measure;
};

void drive_client(std::uint16_t port, const WorkloadTrace& trace,
                  std::uint64_t warmup_count, Clock::time_point t0,
                  ClientLoad& load) {
  ClientOptions options;
  options.port = port;
  CoschedClient client(options);
  PhaseController phases(
      trace.jobs.size(),
      std::min<std::uint64_t>(warmup_count, trace.jobs.size()), 0);
  // Arrival times are kept from the generated trace: flooding everything at
  // t=0 would saturate the fleet and every replan would be a dense 32-slot
  // solve — that benchmarks HA*, not the transport.
  std::uint64_t index = 0;
  for (const TraceJob& job : trace.jobs) {
    PhaseStats& bucket = phases.classify(index++) == LoadPhase::Warmup
                             ? load.warmup
                             : load.measure;
    auto begin = Clock::now();
    SubmitJobResponse reply;
    RpcError error = client.submit_job(job, reply);
    auto end = Clock::now();
    bucket.first_send_s = std::min(
        bucket.first_send_s, std::chrono::duration<double>(begin - t0).count());
    bucket.last_finish_s = std::max(
        bucket.last_finish_s, std::chrono::duration<double>(end - t0).count());
    if (!error.ok()) {
      ++bucket.errors;
      continue;
    }
    ++bucket.requests;
    bucket.latency_ms.add(
        std::chrono::duration<double, std::milli>(end - begin).count());
  }
}

/// Runs all client threads against `port`, merging per-client loads.
ClientLoad drive_all(std::uint16_t port,
                     const std::vector<WorkloadTrace>& traces,
                     std::uint64_t warmup_count) {
  std::vector<ClientLoad> loads(traces.size());
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < traces.size(); ++c)
    clients.emplace_back(drive_client, port, std::cref(traces[c]),
                         warmup_count, t0, std::ref(loads[c]));
  for (std::thread& t : clients) t.join();
  ClientLoad all;
  for (const ClientLoad& load : loads) {
    all.warmup.merge(load.warmup);
    all.measure.merge(load.measure);
  }
  return all;
}

// ---- --router mode ---------------------------------------------------------
//
// Same workload, two deployments: the 8-machine fleet as ONE scheduler versus
// the same 8 machines split across N shards behind a ShardRouter. The win is
// not parallelism (CI runs single-core): HA* solve cost grows super-linearly
// in fleet size, so N small solves are cheaper than one big one even run
// back-to-back. The run doubles as the fan-in smoke: it fetches GetMetrics
// through the router and fails (nonzero exit) unless every fleet total equals
// the sum of its per-shard entries.

constexpr std::int64_t kTotalMachines = 8;
constexpr int kTenants = 32;

/// Prefix every job name with a stable tenant key ("t7/...") so the router's
/// consistent hash has something to spread. Tenant assignment is a function
/// of (client, job index) only — identical across shard counts, so the two
/// configurations see byte-identical workloads.
void tenantize(std::vector<WorkloadTrace>& traces) {
  int k = 0;
  for (WorkloadTrace& trace : traces)
    for (TraceJob& job : trace.jobs)
      job.name = "t" + std::to_string(k++ % kTenants) + "/" + job.name;
}

struct RouterRunResult {
  ClientLoad load;
  std::uint64_t completions = 0;
  bool fan_in_ok = false;
  std::uint64_t spillovers = 0;
  std::vector<std::uint64_t> shard_requests;

  std::uint64_t requests() const { return load.measure.requests; }
  std::uint64_t warmup_requests() const {
    return load.warmup.requests + load.warmup.errors;
  }
  std::uint64_t errors() const {
    return load.warmup.errors + load.measure.errors;
  }
  double throughput_rps() const {
    Real window = load.measure.window_seconds();
    return window > 0.0 ? static_cast<double>(requests()) / window : 0.0;
  }
};

/// One full run against a ShardRouter fronting `shard_count` local shards.
/// Returns false only on infrastructure failure (bind, drain, metrics RPC);
/// fan-in and completion checks land in `result` for the caller to judge.
bool run_router_config(std::int64_t shard_count,
                       const std::vector<WorkloadTrace>& traces,
                       std::uint64_t warmup_count,
                       const std::string& metrics_out,
                       RouterRunResult& result) {
  ShardRouter router{RouterOptions{}};
  for (std::int64_t s = 0; s < shard_count; ++s) {
    LiveServiceOptions service;
    service.wall_clock = false;
    service.scheduler.cores = 4;
    service.scheduler.machines = static_cast<std::int32_t>(
        std::max<std::int64_t>(1, kTotalMachines / shard_count));
    service.scheduler.admission.every_k = 4;
    service.scheduler.cache_compaction_jobs = 16;
    router.add_local_shard(service);
  }

  RouterServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = std::max<std::size_t>(traces.size(), 1);
  RouterServer server(router, server_options);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "rpc_loopback: router start: " << error << "\n";
    return false;
  }

  result.load = drive_all(server.port(), traces, warmup_count);

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  DrainResponse drained;
  RpcError drain_error = client.drain(drained);
  if (!drain_error.ok()) {
    std::cerr << "rpc_loopback: router drain: " << drain_error.describe()
              << "\n";
    server.stop();
    return false;
  }
  result.completions = drained.completions;

  MetricsResponse metrics;
  RpcError metrics_error = client.get_metrics(metrics);
  if (!metrics_error.ok()) {
    std::cerr << "rpc_loopback: router metrics: " << metrics_error.describe()
              << "\n";
    server.stop();
    return false;
  }

  // The Σ invariant the router promises: each fan-in total is exactly the
  // sum of the shard entries it ships alongside, and routed requests add up
  // to what the clients sent (warm-up included — the router routed those
  // too, they are only excluded from the *latency* report).
  std::uint64_t all_requests =
      result.load.warmup.requests + result.load.measure.requests;
  std::uint64_t sum_requests = 0, sum_arrivals = 0, sum_admissions = 0;
  std::uint64_t sum_completions = 0, sum_replans = 0, sum_migrations = 0;
  for (const ShardMetricsEntry& entry : metrics.shards) {
    sum_requests += entry.requests;
    sum_arrivals += entry.arrivals;
    sum_admissions += entry.admissions;
    sum_completions += entry.completions;
    sum_replans += entry.replans;
    sum_migrations += entry.migrations;
    result.shard_requests.push_back(entry.requests);
  }
  result.fan_in_ok =
      metrics.shards.size() == static_cast<std::size_t>(shard_count) &&
      metrics.arrivals == sum_arrivals &&
      metrics.admissions == sum_admissions &&
      metrics.completions == sum_completions &&
      metrics.replans == sum_replans && metrics.migrations == sum_migrations &&
      sum_requests == all_requests &&
      metrics.completions == result.completions;
  result.spillovers = metrics.router_spillovers;

  if (!metrics_out.empty()) {
    std::string exposition =
        http_get(server_options.host, server.http_port(), "/metrics");
    if (exposition.empty())
      std::cerr << "rpc_loopback: GET /metrics (router) failed\n";
    else if (write_text_file(metrics_out, exposition))
      std::cout << "wrote " << metrics_out << "\n";
  }

  server.stop();
  return true;
}

void print_router_table(const std::string& title, const RouterRunResult& r) {
  TextTable table({"metric", title});
  table.add_row({"requests measured",
                 TextTable::fmt_int(static_cast<std::int64_t>(r.requests()))});
  table.add_row({"warm-up requests (excluded)",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(r.warmup_requests()))});
  table.add_row({"requests failed",
                 TextTable::fmt_int(static_cast<std::int64_t>(r.errors()))});
  table.add_row({"measure window s",
                 TextTable::fmt(r.load.measure.window_seconds(), 3)});
  table.add_row({"throughput req/s", TextTable::fmt(r.throughput_rps(), 1)});
  table.add_row({"latency p50 ms",
                 TextTable::fmt(r.load.measure.latency_ms.quantile(0.5), 3)});
  table.add_row({"latency p95 ms",
                 TextTable::fmt(r.load.measure.latency_ms.quantile(0.95), 3)});
  table.add_row({"latency p99 ms",
                 TextTable::fmt(r.load.measure.latency_ms.quantile(0.99), 3)});
  table.add_row({"jobs completed",
                 TextTable::fmt_int(static_cast<std::int64_t>(r.completions))});
  table.add_row({"spillovers",
                 TextTable::fmt_int(static_cast<std::int64_t>(r.spillovers))});
  table.add_row({"fan-in invariant", r.fan_in_ok ? "ok" : "VIOLATED"});
  std::cout << table.render() << "\n";
}

void append_router_json(std::ostringstream& json, const std::string& key,
                        std::int64_t shards, const RouterRunResult& r) {
  const Histogram& latency = r.load.measure.latency_ms;
  json << "  \"" << key << "\": {\n"
       << "    \"shards\": " << shards << ",\n"
       << "    \"requests_ok\": " << r.requests() << ",\n"
       << "    \"requests_failed\": " << r.errors() << ",\n"
       << "    \"warmup_requests\": " << r.warmup_requests() << ",\n"
       << "    \"wall_seconds\": " << r.load.measure.window_seconds() << ",\n"
       << "    \"throughput_rps\": " << r.throughput_rps() << ",\n"
       << "    \"spillovers\": " << r.spillovers << ",\n"
       << "    \"shard_requests\": [";
  for (std::size_t i = 0; i < r.shard_requests.size(); ++i)
    json << (i ? ", " : "") << r.shard_requests[i];
  json << "],\n"
       << "    \"latency_ms\": {\n"
       << "      \"mean\": " << latency.mean() << ",\n"
       << "      \"p50\": " << latency.quantile(0.5) << ",\n"
       << "      \"p95\": " << latency.quantile(0.95) << ",\n"
       << "      \"p99\": " << latency.quantile(0.99) << ",\n"
       << "      \"max\": " << latency.max() << "\n"
       << "    }\n"
       << "  }";
}

/// --router entry point: 1-shard baseline then the N-shard fleet over the
/// same tenantized workload; writes the comparison to `bench_out`.
int run_router_mode(std::int64_t shard_count, std::int64_t jobs_per_client,
                    std::int64_t client_count, std::uint64_t warmup_count,
                    const std::string& metrics_out,
                    const std::string& bench_out) {
  print_experiment_header(
      "rpc_sharded",
      "ShardRouter loopback: one scheduler vs " +
          std::to_string(shard_count) +
          " consistent-hash shards over the same " +
          std::to_string(kTotalMachines) + "-machine fleet");

  std::vector<WorkloadTrace> traces(static_cast<std::size_t>(client_count));
  for (std::size_t c = 0; c < traces.size(); ++c) {
    TraceSpec spec;
    spec.job_count = static_cast<std::int32_t>(jobs_per_client);
    spec.parallel_fraction = 0.2;
    spec.mean_interarrival = 2.0 * static_cast<Real>(client_count);
    spec.seed = 1000 + c;
    traces[c] = generate_trace(spec);
  }
  tenantize(traces);

  RouterRunResult single;
  RouterRunResult sharded;
  if (!run_router_config(1, traces, warmup_count, "", single)) return 1;
  if (!run_router_config(shard_count, traces, warmup_count, metrics_out,
                         sharded))
    return 1;

  print_router_table("1 shard", single);
  print_router_table(std::to_string(shard_count) + " shards", sharded);

  double speedup = single.throughput_rps() > 0.0
                       ? sharded.throughput_rps() / single.throughput_rps()
                       : 0.0;
  std::cout << "sharded speedup vs single shard: "
            << TextTable::fmt(speedup, 2) << "x\n";

  if (!bench_out.empty()) {
    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(4);
    json << "{\n"
         << "  \"bench\": \"rpc_sharded\",\n"
         << "  \"mode\": \"closed\",\n"
         << "  \"clients\": " << client_count << ",\n"
         << "  \"jobs_per_client\": " << jobs_per_client << ",\n"
         << "  \"tenants\": " << kTenants << ",\n"
         << "  \"total_machines\": " << kTotalMachines << ",\n";
    append_router_json(json, "single_shard", 1, single);
    json << ",\n";
    append_router_json(json, "sharded", shard_count, sharded);
    json << ",\n"
         << "  \"speedup_vs_single_shard\": " << speedup << ",\n"
         << "  \"fan_in_invariant_ok\": "
         << (single.fan_in_ok && sharded.fan_in_ok ? "true" : "false") << "\n"
         << "}\n";
    if (write_text_file(bench_out, json.str()))
      std::cout << "wrote " << bench_out << "\n";
  }

  bool clean = single.fan_in_ok && sharded.fan_in_ok &&
               single.errors() == 0 && sharded.errors() == 0 &&
               single.completions ==
                   single.requests() + single.warmup_requests() &&
               sharded.completions ==
                   sharded.requests() + sharded.warmup_requests();
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  std::int64_t scale = args.get_int("scale", 1);
  std::int64_t jobs_per_client = args.get_int("jobs", 100) * scale;
  std::int64_t client_count = args.get_int("clients", 2);
  // Per-client warm-up: the first N requests of every client thread warm
  // the connection, the oracle cache and the scheduler before measurement
  // starts. They run, they are counted, they never reach the histograms.
  std::int64_t warmup = args.get_int("warmup", 5);
  if (warmup < 0 || warmup >= jobs_per_client) {
    std::cerr << "rpc_loopback: need 0 <= --warmup < --jobs\n";
    return 1;
  }
  std::uint64_t warmup_count = static_cast<std::uint64_t>(warmup);
  std::string trace_out = args.get_string("trace-out", "");
  std::string metrics_out = args.get_string("metrics-out", "");

  if (args.has("router")) {
    // Sharded comparison mode: separate default bench-out so the single-
    // scheduler baseline JSON is never clobbered by a router run.
    return run_router_mode(args.get_int("shards", 4), jobs_per_client,
                           client_count, warmup_count, metrics_out,
                           args.get_string("bench-out",
                                           "BENCH_rpc_sharded.json"));
  }

  std::string bench_out =
      args.get_string("bench-out", "BENCH_rpc_loopback.json");

  if (!trace_out.empty()) Tracer::global().set_enabled(true);

  print_experiment_header(
      "rpc_loopback",
      "RPC front-end loopback latency/throughput (transport + scheduler "
      "thread handoff, virtual-time mode)");

  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.worker_threads =
      static_cast<std::size_t>(std::max<std::int64_t>(client_count, 1));
  server_options.service.wall_clock = false;
  server_options.service.scheduler.cores = 4;
  server_options.service.scheduler.machines = 8;
  server_options.service.scheduler.admission.every_k = 4;
  server_options.service.scheduler.cache_compaction_jobs = 16;

  CoschedServer server(server_options);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "rpc_loopback: " << error << "\n";
    return 1;
  }

  std::vector<WorkloadTrace> traces(static_cast<std::size_t>(client_count));
  for (std::size_t c = 0; c < traces.size(); ++c) {
    TraceSpec spec;
    spec.job_count = static_cast<std::int32_t>(jobs_per_client);
    spec.parallel_fraction = 0.2;
    // Spread arrivals so the aggregate offered load stays around half the
    // fleet regardless of the client count.
    spec.mean_interarrival = 2.0 * static_cast<Real>(client_count);
    spec.seed = 1000 + c;
    traces[c] = generate_trace(spec);
  }

  ClientLoad all = drive_all(server.port(), traces, warmup_count);

  DrainResponse drained;
  {
    ClientOptions options;
    options.port = server.port();
    CoschedClient client(options);
    RpcError drain_error = client.drain(drained);
    if (!drain_error.ok()) {
      std::cerr << "rpc_loopback: drain: " << drain_error.describe() << "\n";
      return 1;
    }
  }

  if (!metrics_out.empty()) {
    std::string exposition =
        http_get(server_options.host, server.http_port(), "/metrics");
    if (exposition.empty())
      std::cerr << "rpc_loopback: GET /metrics failed\n";
    else if (write_text_file(metrics_out, exposition))
      std::cout << "wrote " << metrics_out << "\n";
  }

  ServerStats stats = server.stats();
  server.stop();

  BenchReport report;
  report.bench = "rpc_loopback";
  report.mode = "closed";
  report.deployment = "single";
  report.clients = client_count;
  report.jobs_per_client = jobs_per_client;
  report.requests_ok = all.measure.requests;
  report.requests_failed = all.warmup.errors + all.measure.errors;
  report.warmup_requests = all.warmup.requests + all.warmup.errors;
  report.achieved_rps =
      all.measure.window_seconds() > 0.0
          ? static_cast<double>(all.measure.requests) /
                all.measure.window_seconds()
          : 0.0;
  report.wall_seconds = all.measure.window_seconds();
  report.latency = LatencySummary::from(all.measure.latency_ms);

  TextTable table({"metric", "value"});
  table.add_row({"clients", TextTable::fmt_int(client_count)});
  table.add_row({"requests measured",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.requests_ok))});
  table.add_row({"warm-up requests (excluded)",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.warmup_requests))});
  table.add_row({"requests failed",
                 TextTable::fmt_int(
                     static_cast<std::int64_t>(report.requests_failed))});
  table.add_row({"measure window s", TextTable::fmt(report.wall_seconds, 3)});
  table.add_row({"throughput req/s", TextTable::fmt(report.achieved_rps, 1)});
  table.add_row({"latency mean ms", TextTable::fmt(report.latency.mean, 3)});
  table.add_row({"latency p50 ms", TextTable::fmt(report.latency.p50, 3)});
  table.add_row({"latency p95 ms", TextTable::fmt(report.latency.p95, 3)});
  table.add_row({"latency p99 ms", TextTable::fmt(report.latency.p99, 3)});
  table.add_row({"latency max ms", TextTable::fmt(report.latency.max, 3)});
  table.add_row({"jobs completed",
                 TextTable::fmt_int(static_cast<std::int64_t>(
                     drained.completions))});
  table.add_row({"server frames rejected",
                 TextTable::fmt_int(static_cast<std::int64_t>(
                     stats.malformed_frames))});
  std::cout << table.render() << "\n";
  write_csv(args.get_string("out", "results"), "rpc_loopback", table);

  if (!trace_out.empty()) {
    if (Tracer::global().write_chrome_json(trace_out))
      std::cout << "wrote " << trace_out << "\n";
  }

  if (!bench_out.empty()) {
    if (write_text_file(bench_out, report.to_json()))
      std::cout << "wrote " << bench_out << "\n";
  }

  std::uint64_t all_ok = all.warmup.requests + all.measure.requests;
  return drained.completions == all_ok && report.requests_failed == 0 ? 0 : 1;
}
