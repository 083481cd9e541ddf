// rpc_client: drive a running rpc_server from the command line.
//
//   ./rpc_client --port 7717 --jobs 20          # submit a generated mix
//   ./rpc_client --port 7717 --status 3         # query one job
//   ./rpc_client --port 7717 --timeline 3       # explain job 3's placement
//   ./rpc_client --port 7717 --snapshot 1       # fleet placement view
//   ./rpc_client --port 7717 --metrics 1        # scheduler counters
//   ./rpc_client --port 7717 --drain 1          # stop admissions, finish all
//   ./rpc_client --port 7717 --shutdown 1       # stop the server
//   ./rpc_client --port 7717 --trace-dump t.json  # Chrome trace to a file
//
// Submissions use the same seeded generator as the benchmarks (--seed), so
// a job mix is reproducible; each submission prints the placement and the
// predicted Eq. 1/9 degradation the scheduler answered with. --trace-id N
// stamps every request with that trace id (against a router, the id is
// forwarded to the shards — the handle for a stitched fabric timeline);
// --trace-dump pulls the server's trace as Chrome JSON (merged and
// shard-namespaced when the server is a router) and prints how many of
// the oldest records were left out to fit the frame cap.
#include <fstream>
#include <iostream>

#include "harness/experiment.hpp"
#include "rpc/client.hpp"

namespace {

bool spill_to_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (out) out << content;
  if (!out) {
    std::cerr << "rpc_client: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cosched;
  ArgParser args(argc, argv);

  ClientOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port =
      static_cast<std::uint16_t>(args.get_int("port", 7717, 0, kMaxPort));
  options.request_timeout_seconds = args.get_real("timeout", 5.0);
  options.max_attempts = static_cast<int>(args.get_int("attempts", 3));
  CoschedClient client(options);
  if (args.has("trace-id"))
    client.set_trace_id(static_cast<std::uint64_t>(args.get_int("trace-id", 0)));

  auto fail = [](const char* what, const RpcError& error) {
    std::cerr << "rpc_client: " << what << ": " << error.describe() << "\n";
    return 1;
  };

  // Each mode reads its own flags, then rejects any the run did not read
  // (a flag belonging to another mode included).
  if (args.has("trace-dump")) {
    std::string json_path = args.get_string("trace-dump", "");
    args.reject_unread();
    TraceDumpResponse reply;
    RpcError error = client.trace_dump(reply);
    if (!error.ok()) return fail("trace-dump", error);
    std::cout << "trace dump: " << reply.event_count << " events, tracing "
              << (reply.enabled ? "enabled" : "disabled") << ", "
              << reply.omitted_events << " oldest records omitted\n";
    if (!json_path.empty() && !spill_to_file(json_path, reply.chrome_json))
      return 1;
    return 0;
  }

  if (args.has("status")) {
    std::int64_t id = args.get_int("status", 0);
    args.reject_unread();
    JobStatusResponse reply;
    RpcError error = client.query_job_status(id, reply);
    if (!error.ok()) return fail("status", error);
    const JobStatusView& s = reply.status;
    std::cout << "job " << s.id << " (" << s.name << "): " << to_string(s.phase)
              << ", arrived " << TextTable::fmt(s.arrival_time, 2);
    if (s.admit_time >= 0.0)
      std::cout << ", admitted " << TextTable::fmt(s.admit_time, 2);
    if (s.finish_time >= 0.0)
      std::cout << ", finished " << TextTable::fmt(s.finish_time, 2);
    std::cout << "\n";
    for (const JobProcView& p : s.procs)
      std::cout << "  proc " << p.gid << " on machine " << p.machine
                << ", degradation " << TextTable::fmt(p.degradation, 3)
                << ", remaining " << TextTable::fmt(p.remaining_work, 2)
                << "\n";
    return 0;
  }

  if (args.has("timeline")) {
    // "Explain this placement": the decision journal's events of one job —
    // admission trigger, placement (policy, machine, co-runners, predicted
    // degradation delta), migrations, completion — each with the trace id
    // that resolves into the replan span of a --trace-dump.
    std::int64_t id = args.get_int("timeline", 0);
    args.reject_unread();
    JobTimelineResponse reply;
    RpcError error = client.query_job_timeline(id, reply);
    if (!error.ok()) return fail("timeline", error);
    std::cout << "job " << reply.job_id << ": " << reply.events.size()
              << " events at t=" << TextTable::fmt(reply.virtual_now, 2)
              << (reply.truncated ? " (truncated: older events evicted)" : "")
              << "\n";
    for (const JournalEvent& event : reply.events)
      std::cout << "  " << render_journal_event(event) << "\n";
    return 0;
  }

  if (args.has("snapshot")) {
    args.reject_unread();
    ServiceSnapshot snap;
    RpcError error = client.query_snapshot(snap);
    if (!error.ok()) return fail("snapshot", error);
    std::cout << "t=" << TextTable::fmt(snap.now, 2) << ": "
              << snap.pending_jobs << " pending, " << snap.free_slots
              << " free slots, " << snap.completions
              << " completed, mean live degradation "
              << TextTable::fmt(snap.mean_live_degradation, 3) << "\n";
    for (std::size_t m = 0; m < snap.machines.size(); ++m) {
      std::cout << "  machine " << m << ":";
      for (const auto& proc : snap.machines[m])
        std::cout << " j" << proc.job << "/p" << proc.gid << "(d="
                  << TextTable::fmt(proc.degradation, 2) << ")";
      std::cout << "\n";
    }
    return 0;
  }

  if (args.has("metrics")) {
    args.reject_unread();
    MetricsResponse reply;
    RpcError error = client.get_metrics(reply);
    if (!error.ok()) return fail("metrics", error);
    std::cout << "t=" << TextTable::fmt(reply.virtual_now, 2) << ": "
              << reply.arrivals << " arrivals, " << reply.admissions
              << " admissions, " << reply.completions << " completions, "
              << reply.replans << " replans, " << reply.migrations
              << " migrations\n"
              << "oracle cache: retired (replans evaluate the model "
                 "directly; counters kept for the wire: "
              << reply.cache.hits << " hits, " << reply.cache.entries
              << " entries)\n";
    return 0;
  }

  if (args.has("drain")) {
    args.reject_unread();
    DrainResponse reply;
    RpcError error = client.drain(reply);
    if (!error.ok()) return fail("drain", error);
    std::cout << "drained: " << reply.completions
              << " jobs completed, virtual time "
              << TextTable::fmt(reply.virtual_now, 2) << "\n";
    return 0;
  }

  if (args.has("shutdown")) {
    args.reject_unread();
    ShutdownResponse reply;
    RpcError error = client.shutdown_server(reply);
    if (!error.ok()) return fail("shutdown", error);
    std::cout << "server shutting down at virtual time "
              << TextTable::fmt(reply.virtual_now, 2) << "\n";
    return 0;
  }

  // Default: submit a generated mix. --name-prefix tags every job name —
  // against a shard_router, "tenantA/" makes the whole batch one tenant key
  // so the router keeps it on one shard.
  TraceSpec spec;
  spec.job_count = static_cast<std::int32_t>(args.get_int("jobs", 10));
  spec.parallel_fraction = args.get_real("parallel", 0.2);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  std::string name_prefix = args.get_string("name-prefix", "");
  args.reject_unread();
  WorkloadTrace trace = generate_trace(spec);
  if (!name_prefix.empty())
    for (TraceJob& job : trace.jobs) job.name = name_prefix + job.name;

  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse reply;
    RpcError error = client.submit_job(job, reply);
    if (!error.ok()) return fail("submit", error);
    std::cout << "job " << reply.job_id << " (" << job.name << ", "
              << job.processes << " proc): " << to_string(reply.status.phase);
    if (!reply.status.procs.empty()) {
      std::cout << " on";
      for (const JobProcView& p : reply.status.procs)
        std::cout << " m" << p.machine << "(d="
                  << TextTable::fmt(p.degradation, 2) << ")";
    }
    std::cout << " at t=" << TextTable::fmt(reply.virtual_now, 2) << "\n";
  }
  std::cout << "submitted " << trace.job_count() << " jobs\n";
  return 0;
}
