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
#include <sstream>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "obs/profiler.hpp"
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
  read_trace_flags(args);

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
  std::string out_dir = args.get_string("out", "results/rpc_server");
  // --profile-out FILE drops the lifetime collapsed-stack profile (the same
  // text /debug/profile serves live) for flamegraph.pl / speedscope.
  std::string profile_out = args.get_string("profile-out", "");
  args.reject_unread();

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

  std::string final_state;
  bool have_final_state = server.service().call(
      [](OnlineScheduler& scheduler) {
        const SchedulerMetrics& m = scheduler.metrics();
        std::ostringstream line;
        line << "final state: " << m.completions() << " jobs completed, "
             << m.replans() << " replans, virtual time "
             << TextTable::fmt(scheduler.now(), 2);
        return line.str();
      },
      final_state, 5.0);
  server.stop();

  if (have_final_state) std::cout << "\n" << final_state << "\n";
  for (const std::string& path :
       server.service().write_metrics_csvs(out_dir, "service"))
    std::cout << "wrote " << path << "\n";

  if (!profile_out.empty() && Profiler::global().write_collapsed(profile_out))
    std::cout << "wrote " << profile_out << "\n";
  return 0;
}
