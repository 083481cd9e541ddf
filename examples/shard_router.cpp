// shard_router: a sharded co-scheduling deployment behind one front door.
//
//   ./shard_router --port 7720 --shards 4 --machines-per-shard 2
//
// Stands up N independent LiveSchedulerService shards (each with its own
// scheduler lock and virtual clock) behind a ShardRouter + RouterServer.
// Jobs are admitted by consistent hashing on their tenant key — the job-name
// prefix before the first '/' — so "tenantA/train" and "tenantA/etl" land on
// the same shard and keep degrading each other honestly, while different
// tenants spread across the fleet. A shard with more callers waiting for its
// scheduler than --spill-depth sheds new tenants to the least-loaded shard
// (the remap is recorded, so job-status lookups keep resolving).
//
// The router speaks the same wire protocol as a single CoschedServer, so the
// ordinary client works unchanged:
//
//   ./rpc_client --port 7720 --jobs 20 --name-prefix tenantA/
//   curl http://127.0.0.1:7721/metrics     # merged fleet page
//   ./rpc_client --port 7720 --shutdown 1
//
// The /metrics page fans in all shards: router routing counters, per-shard
// queue/clock gauges (one series per shard label — point Grafana at it for a
// fleet view), and the per-shard latency histograms merged with exemplars
// intact. Runs until an RPC Shutdown arrives.
// A multi-process deployment uses --remote instead of local shards:
//
//   ./rpc_server --port 7731 --shard-id 0 --virtual 1 &
//   ./rpc_server --port 7732 --shard-id 1 --virtual 1 &
//   ./shard_router --port 7720 --remote 127.0.0.1:7731,127.0.0.1:7732
//
// Each entry becomes a RemoteShard backend speaking the RPC protocol to that
// server; shard ids follow list order, so start server k with --shard-id k.
// --remote-cores tells the router each backend's capacity (the spillover
// signal); --remote-timeout bounds each proxied RPC. With --trace 1 the
// router records its own request spans and forwards each request's trace
// id to the shard it routes to — a TraceDump against the router then
// returns the merged, shard-namespaced fabric timeline.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/profiler.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"

namespace {

/// Splits "host:port,host:port" into client options, one per backend.
std::vector<cosched::ClientOptions> parse_remotes(const std::string& spec,
                                                  double timeout_seconds) {
  std::vector<cosched::ClientOptions> remotes;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    cosched::ClientOptions options;
    options.request_timeout_seconds = timeout_seconds;
    if (entry.find(':') == std::string::npos)
      options.host = entry;  // default port
    else if (!cosched::split_host_port(entry, options.host, options.port))
      cosched::bad_value("remote", entry);
    remotes.push_back(std::move(options));
  }
  return remotes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cosched;
  ArgParser args(argc, argv);

  std::int64_t shard_count = args.get_int("shards", 4, 1, kMaxCount);
  // --trace 1: record router request spans (and forward trace ids to the
  // shards) so TraceDump answers the merged fabric timeline.
  read_trace_flags(args);
  std::vector<ClientOptions> remotes = parse_remotes(
      args.get_string("remote", ""), args.get_real("remote-timeout", 60.0));

  RouterOptions router_options;
  router_options.vnodes_per_shard =
      static_cast<std::int32_t>(args.get_int("vnodes", 64, 1, kMaxCount));
  // 0 disables spillover.
  router_options.spill_queue_depth =
      static_cast<std::size_t>(args.get_int("spill-depth", 64, 0, kMaxCount));
  router_options.shard_timeout_seconds = args.get_real("shard-timeout", 30.0);
  ShardRouter router(router_options);

  const std::int64_t cores = args.get_int("cores", 4, 1, kMaxCount);
  const std::int64_t machines_per_shard =
      args.get_int("machines-per-shard", 2, 1, kMaxCount);
  const std::int64_t every_k = args.get_int("every-k", 2, 1, kMaxCount);
  if (!remotes.empty()) {
    shard_count = static_cast<std::int64_t>(remotes.size());
    std::int32_t cores_per_remote = static_cast<std::int32_t>(
        args.get_int("remote-cores", machines_per_shard * cores, 1,
                     kMaxCount));
    for (ClientOptions& remote : remotes)
      router.add_remote_shard(std::move(remote), cores_per_remote);
  } else {
    for (std::int64_t s = 0; s < shard_count; ++s) {
      LiveServiceOptions service;
      service.wall_clock = args.get_int("virtual", 0) == 0;
      service.wall_time_scale = args.get_real("wall-scale", 4.0);
      service.scheduler.cores = static_cast<std::uint32_t>(cores);
      service.scheduler.machines =
          static_cast<std::int32_t>(machines_per_shard);
      service.scheduler.admission.trigger = ReplanTrigger::EveryKArrivals;
      service.scheduler.admission.every_k = static_cast<std::int32_t>(every_k);
      router.add_local_shard(service);
    }
  }

  RouterServerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port =
      static_cast<std::uint16_t>(args.get_int("port", 7720, 0, kMaxPort));
  options.worker_threads =
      static_cast<std::size_t>(args.get_int("workers", 2, 1, kMaxCount));
  std::int64_t metrics_port = args.get_int("metrics-port", 7721, -1, kMaxPort);
  options.enable_http = metrics_port >= 0;
  if (options.enable_http)
    options.http_port = static_cast<std::uint16_t>(metrics_port);

  // --profile-out FILE drops the router process's collapsed-stack profile
  // (what /debug/profile serves live) for flamegraph tooling.
  std::string profile_out = args.get_string("profile-out", "");
  args.reject_unread();

  RouterServer server(router, options);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "shard_router: " << error << "\n";
    return 1;
  }

  std::cout << "cosched shard_router listening on " << options.host << ":"
            << server.port() << "\n"
            << "  fleet: " << shard_count << " shards x "
            << machines_per_shard << " machines x " << cores << " cores\n";
  if (server.http_port() != 0) {
    std::cout << "  fleet metrics: curl http://" << options.host << ":"
              << server.http_port() << "/metrics\n";
  }
  std::cout << "  submit jobs with: ./rpc_client --port " << server.port()
            << " --jobs 20\n"
            << "  stop with:        ./rpc_client --port " << server.port()
            << " --shutdown 1\n";

  server.wait();

  // Fan-in summary: fleet totals are exactly the sum of the shard entries.
  MetricsResponse metrics;
  std::string metrics_error;
  if (router.metrics(metrics, metrics_error) == RpcStatus::Ok) {
    std::cout << "\nfinal state: " << metrics.completions
              << " jobs completed across " << metrics.shards.size()
              << " shards";
    RouterStats stats = router.stats();
    std::cout << " (" << stats.spillovers << " spillovers, "
              << stats.remapped_keys << " remapped keys)\n";
    for (const ShardMetricsEntry& entry : metrics.shards)
      std::cout << "  shard " << entry.shard_id << ": " << entry.completions
                << " completed, " << entry.replans << " replans, clock "
                << TextTable::fmt(entry.virtual_now, 2) << "\n";
  }
  server.stop();
  if (!profile_out.empty() && Profiler::global().write_collapsed(profile_out))
    std::cout << "wrote " << profile_out << "\n";
  return 0;
}
