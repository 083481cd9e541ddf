// Tests for the sharded deployment (src/shard): consistent-hash routing
// through ShardRouter, the deterministic-replay Σ invariant (fan-in totals
// exactly equal the sum of per-shard values, per-shard CSVs byte-identical
// to isolated replays of the routed partitions), load-aware spillover with
// remap stickiness, global job-id resolution, the RouterServer TCP front
// (same wire contract as CoschedServer, other versions refused), the
// combined /metrics fleet page, and the observability fan-in: trace-id
// propagation across the router -> RemoteShard -> shard-server hops with
// merged TraceDump output, the /healthz liveness fold, and the per-kind
// RPC failure counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "online/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"
#include "rpc_test_helpers.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

OnlineSchedulerOptions shard_fleet() {
  OnlineSchedulerOptions options;
  options.cores = 2;
  options.machines = 2;
  options.admission.every_k = 2;
  return options;
}

LiveServiceOptions shard_service() {
  LiveServiceOptions options;
  options.wall_clock = false;
  options.scheduler = shard_fleet();
  return options;
}

/// Multi-tenant mix: job names carry a tenant prefix so the router has
/// something to hash; arrival times ascend globally (hence per shard).
WorkloadTrace tenant_trace(std::uint64_t seed, std::int32_t jobs = 24,
                           int tenants = 6) {
  TraceSpec spec;
  spec.job_count = jobs;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = seed;
  WorkloadTrace trace = generate_trace(spec);
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    trace.jobs[i].name = "tenant" + std::to_string(i % tenants) + "/" +
                         trace.jobs[i].name;
  }
  return trace;
}

RouterOptions ring_only_router() {
  RouterOptions options;
  options.spill_queue_depth = 0;  // spillover off: pure consistent hashing
  return options;
}

void build_fleet(ShardRouter& router, int shards) {
  for (int i = 0; i < shards; ++i) router.add_local_shard(shard_service());
}

// ------------------------------------------------------- command budget

// A command whose caller's budget runs out before it gets the scheduler
// never runs. A helper thread holds the scheduler with a call() that waits
// on a future the test owns; a submit with a 0.05 s budget is answered
// DeadlineExpired, and once the hold is released the job count has not
// moved: a client told its submit expired can resubmit without getting
// the job twice.
TEST(LocalShard, TimedOutCommandNeverRuns) {
  LocalShard shard(0, shard_service(), /*command_timeout_seconds=*/0.05);
  auto job_count = [](OnlineScheduler& scheduler) {
    return scheduler.job_count();
  };
  std::int64_t before = -1;
  ASSERT_TRUE(shard.service().call(job_count, before, 30.0));

  std::promise<void> holding;
  std::promise<void> release;
  std::future<void> released = release.get_future();
  bool held = false;
  std::thread holder([&] {
    bool unused = false;
    held = shard.service().call(
        [&](OnlineScheduler&) {
          holding.set_value();
          released.wait();
          return true;
        },
        unused, 30.0);
  });
  holding.get_future().wait();

  TraceJob job = tenant_trace(1, 1).jobs.front();
  SubmitJobResponse ack;
  std::string error;
  EXPECT_EQ(shard.submit(job, ack, error), RpcStatus::DeadlineExpired);
  EXPECT_EQ(error, "scheduler did not answer within the budget");

  release.set_value();
  holder.join();
  EXPECT_TRUE(held);
  std::int64_t after = -1;
  ASSERT_TRUE(shard.service().call(job_count, after, 30.0));
  EXPECT_EQ(after, before);
}

// The spillover signal: queue_depth counts the callers waiting for the
// scheduler, not the one holding it, and reads 0 again once they ran.
TEST(LocalShard, QueueDepthCountsWaitingCallers) {
  LocalShard shard(0, shard_service());
  std::promise<void> holding;
  std::promise<void> release;
  std::future<void> released = release.get_future();
  std::thread holder([&] {
    bool unused = false;
    shard.service().call(
        [&](OnlineScheduler&) {
          holding.set_value();
          released.wait();
          return true;
        },
        unused, 30.0);
  });
  holding.get_future().wait();
  EXPECT_EQ(shard.load().queue_depth, 0u);

  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      std::int64_t count = -1;
      shard.service().call(
          [](OnlineScheduler& scheduler) { return scheduler.job_count(); },
          count, 30.0);
    });
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (shard.load().queue_depth < 2 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(shard.load().queue_depth, 2u);

  release.set_value();
  holder.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(shard.load().queue_depth, 0u);
}

// ------------------------------------------------------------- routing

TEST(ShardRouter, TenantKeyIsThePrefix) {
  EXPECT_EQ(ShardRouter::tenant_key("tenantA/lu.C.4"), "tenantA");
  EXPECT_EQ(ShardRouter::tenant_key("solo-job"), "solo-job");
  EXPECT_EQ(ShardRouter::tenant_key("a/b/c"), "a");
}

TEST(ShardRouter, GlobalJobIdsEncodeTheShard) {
  ShardRouter router(ring_only_router());
  build_fleet(router, 3);
  WorkloadTrace trace = tenant_trace(11);
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    std::string error;
    ASSERT_EQ(router.submit(job, ack, error), RpcStatus::Ok) << error;
    ASSERT_GE(ack.shard_id, 0);
    // global = local * N + shard: the ack's shard is recoverable from the
    // id alone, and status queries route without a lookup table.
    EXPECT_EQ(ack.job_id % 3, ack.shard_id);
    EXPECT_EQ(ack.shard_id, router.ring_shard(job.name));

    JobStatusResponse status;
    ASSERT_EQ(router.job_status(ack.job_id, status, error), RpcStatus::Ok)
        << error;
    EXPECT_TRUE(status.found);
    EXPECT_EQ(status.status.name, job.name);
    EXPECT_EQ(status.status.id, ack.job_id);
  }
  std::string error;
  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, error), RpcStatus::Ok) << error;
  EXPECT_EQ(drained.completions,
            static_cast<std::uint64_t>(trace.job_count()));
}

// THE acceptance criterion of the sharded deployment: after a deterministic
// replay, every fan-in total equals the sum of its per-shard entries, and
// each shard's deterministic CSV is byte-identical to an isolated
// OnlineScheduler replay of exactly the jobs the ring routed there.
TEST(ShardRouter, FanInTotalsEqualSumOfShardsByteForByte) {
  const int kShards = 3;
  WorkloadTrace trace = tenant_trace(21, 30);

  ShardRouter router(ring_only_router());
  build_fleet(router, kShards);

  // Reference: partition the trace by the ring (pure hashing — spillover is
  // off) and replay each partition on an identical isolated fleet.
  std::vector<WorkloadTrace> partitions(kShards);
  for (const TraceJob& job : trace.jobs)
    partitions[static_cast<std::size_t>(router.ring_shard(job.name))]
        .jobs.push_back(job);
  std::ostringstream expected_csv;
  std::vector<std::uint64_t> expected_replans(kShards);
  for (int s = 0; s < kShards; ++s) {
    OnlineScheduler reference(shard_fleet());
    reference.run(partitions[static_cast<std::size_t>(s)]);
    expected_csv << "# shard " << s << "\n"
                 << reference.metrics().render_deterministic_csv();
    expected_replans[static_cast<std::size_t>(s)] =
        reference.metrics().replans();
  }

  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    std::string error;
    ASSERT_EQ(router.submit(job, ack, error), RpcStatus::Ok) << error;
  }
  std::string error;
  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, error), RpcStatus::Ok) << error;

  MetricsResponse fleet;
  ASSERT_EQ(router.metrics(fleet, error), RpcStatus::Ok) << error;
  ASSERT_EQ(fleet.shards.size(), static_cast<std::size_t>(kShards));

  // Σ invariant: totals are exactly the sums of the entries they ship with.
  std::uint64_t arrivals = 0, admissions = 0, completions = 0, replans = 0,
                migrations = 0, requests = 0;
  for (const ShardMetricsEntry& entry : fleet.shards) {
    arrivals += entry.arrivals;
    admissions += entry.admissions;
    completions += entry.completions;
    replans += entry.replans;
    migrations += entry.migrations;
    requests += entry.requests;
  }
  EXPECT_EQ(fleet.arrivals, arrivals);
  EXPECT_EQ(fleet.admissions, admissions);
  EXPECT_EQ(fleet.completions, completions);
  EXPECT_EQ(fleet.replans, replans);
  EXPECT_EQ(fleet.migrations, migrations);
  EXPECT_EQ(fleet.completions, static_cast<std::uint64_t>(trace.job_count()));
  EXPECT_EQ(requests, router.stats().requests);
  EXPECT_EQ(requests, static_cast<std::uint64_t>(trace.job_count()));

  // Byte-identical to the isolated replays: sharding changed *where* jobs
  // ran, not *what* each shard computed.
  EXPECT_EQ(fleet.deterministic_csv, expected_csv.str());
  for (int s = 0; s < kShards; ++s)
    EXPECT_EQ(fleet.shards[static_cast<std::size_t>(s)].replans,
              expected_replans[static_cast<std::size_t>(s)]);

  // No spillover happened (it was off): the router accounting says so.
  EXPECT_EQ(fleet.router_spillovers, 0u);
  EXPECT_EQ(fleet.router_remapped_keys, 0u);
}

// ------------------------------------------------------------ spillover

TEST(ShardRouter, SpilloverReroutesHotShardAndSticks) {
  RouterOptions options;
  options.spill_queue_depth = 4;
  ShardRouter router(options);
  build_fleet(router, 3);

  // A tenant whose ring home is shard 0 (scan until found — placement is
  // deterministic, so this terminates at the same name every run).
  std::string tenant;
  for (int i = 0;; ++i) {
    tenant = "hot-tenant-" + std::to_string(i);
    if (router.ring_shard(tenant + "/job") == 0) break;
  }

  // Pretend shard 0 is buried: queue depth over the threshold.
  LoadProbe hot;
  hot.queue_depth = 32;
  router.set_load_probe_override(0, hot);

  TraceJob job;
  job.name = tenant + "/job-a";
  job.work = 4.0;
  SubmitJobResponse ack;
  std::string error;
  ASSERT_EQ(router.submit(job, ack, error), RpcStatus::Ok) << error;
  EXPECT_NE(ack.shard_id, 0);  // spilled off the hot ring shard
  std::int32_t new_home = ack.shard_id;

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.spillovers, 1u);
  EXPECT_EQ(stats.remapped_keys, 1u);

  // The remap sticks: even after shard 0 cools down, the tenant stays on
  // its new home (QueryJobStatus keeps resolving, placements stay stable).
  router.set_load_probe_override(0, LoadProbe{}, /*enabled=*/false);
  TraceJob second;
  second.name = tenant + "/job-b";
  second.work = 4.0;
  second.arrival_time = 1.0;
  SubmitJobResponse ack2;
  ASSERT_EQ(router.submit(second, ack2, error), RpcStatus::Ok) << error;
  EXPECT_EQ(ack2.shard_id, new_home);
  EXPECT_EQ(router.stats().spillovers, 1u);  // no second spill

  // Other tenants still follow the ring.
  std::string cold;
  for (int i = 0;; ++i) {
    cold = "cold-tenant-" + std::to_string(i);
    if (router.ring_shard(cold + "/job") != 0) break;
  }
  TraceJob third;
  third.name = cold + "/job";
  third.work = 4.0;
  third.arrival_time = 2.0;
  SubmitJobResponse ack3;
  ASSERT_EQ(router.submit(third, ack3, error), RpcStatus::Ok) << error;
  EXPECT_EQ(ack3.shard_id, router.ring_shard(third.name));

  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, error), RpcStatus::Ok) << error;
  // The fan-in reports the spillover accounting.
  MetricsResponse fleet;
  ASSERT_EQ(router.metrics(fleet, error), RpcStatus::Ok) << error;
  EXPECT_EQ(fleet.router_spillovers, 1u);
  EXPECT_EQ(fleet.router_remapped_keys, 1u);
}

// Explainability through the front door: the router resolves the owning
// shard from the global id, rewrites the shard's journal events into the
// global id domain, and prepends its own spillover attribution at time 0.
TEST(ShardRouter, JobTimelineRewritesIdsAndMergesSpillover) {
  RouterOptions options;
  options.spill_queue_depth = 4;
  ShardRouter router(options);
  build_fleet(router, 3);

  // A tenant homed on shard 0, then shard 0 buried: the submit spills.
  std::string tenant;
  for (int i = 0;; ++i) {
    tenant = "spilled-tenant-" + std::to_string(i);
    if (router.ring_shard(tenant + "/job") == 0) break;
  }
  LoadProbe hot;
  hot.queue_depth = 32;
  router.set_load_probe_override(0, hot);

  TraceJob job;
  job.name = tenant + "/job";
  job.work = 4.0;
  SubmitJobResponse ack;
  std::string error;
  ASSERT_EQ(router.submit(job, ack, error), RpcStatus::Ok) << error;
  ASSERT_NE(ack.shard_id, 0);

  // A second, ring-homed tenant submitted before the drain (drained shards
  // refuse admissions): its timeline must carry no spillover event.
  router.set_load_probe_override(0, LoadProbe{}, /*enabled=*/false);
  std::string cold;
  for (int i = 0;; ++i) {
    cold = "ring-tenant-" + std::to_string(i);
    if (router.ring_shard(cold + "/job") != 0) break;
  }
  TraceJob ringed;
  ringed.name = cold + "/job";
  ringed.work = 4.0;
  ringed.arrival_time = 1.0;
  SubmitJobResponse ack2;
  ASSERT_EQ(router.submit(ringed, ack2, error), RpcStatus::Ok) << error;

  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, error), RpcStatus::Ok) << error;

  JobTimelineResponse reply;
  ASSERT_EQ(router.job_timeline(ack.job_id, reply, error), RpcStatus::Ok)
      << error;
  EXPECT_EQ(reply.job_id, ack.job_id);
  ASSERT_GE(reply.events.size(), 4u);  // spillover + admission + ...

  // The router's spillover event leads the merged timeline, timestamped
  // 0.0 so the ordering invariant holds across clock domains.
  const JournalEvent& spill = reply.events.front();
  EXPECT_EQ(spill.kind, JournalEventKind::Spillover);
  EXPECT_EQ(spill.time, 0.0);
  EXPECT_EQ(spill.job_id, ack.job_id);
  EXPECT_EQ(spill.machine, ack.shard_id);  // machine = chosen shard
  EXPECT_EQ(spill.candidates, 3);
  EXPECT_EQ(spill.policy, "least_loaded");
  EXPECT_NE(spill.detail.find("ring_shard=0"), std::string::npos)
      << spill.detail;

  // Every shard-side event was rewritten into the global id domain: ids
  // ≡ shard (mod N), times ascending after the router's epoch-0 events.
  for (std::size_t i = 1; i < reply.events.size(); ++i) {
    const JournalEvent& event = reply.events[i];
    if (event.job_id >= 0) {
      EXPECT_EQ(event.job_id % 3, ack.shard_id);
    }
    for (std::int64_t co : event.co_runners)
      EXPECT_EQ(co % 3, ack.shard_id);
    EXPECT_GE(event.time, reply.events[i - 1].time);
  }

  // Unknown ids answer UnknownJob; the ring-homed tenant's timeline
  // carries no spillover event.
  EXPECT_EQ(router.job_timeline(-1, reply, error), RpcStatus::UnknownJob);
  JobTimelineResponse ring_reply;
  ASSERT_EQ(router.job_timeline(ack2.job_id, ring_reply, error),
            RpcStatus::Ok)
      << error;
  for (const JournalEvent& event : ring_reply.events)
    EXPECT_NE(event.kind, JournalEventKind::Spillover);
}

TEST(ShardRouter, RemapTableIsBounded) {
  RouterOptions options;
  options.spill_queue_depth = 1;
  options.max_remap_entries = 2;
  ShardRouter router(options);
  build_fleet(router, 2);

  // Both shards' ring homes run hot; every new tenant wants to spill, but
  // only two remaps fit.
  LoadProbe hot;
  hot.queue_depth = 16;
  router.set_load_probe_override(0, hot);
  LoadProbe cool;  // shard 1 looks idle -> it is always the spill target
  router.set_load_probe_override(1, cool);

  int spilled = 0, refused = 0;
  for (int i = 0; i < 8; ++i) {
    std::string name = "bounded-" + std::to_string(i) + "/j";
    if (router.ring_shard(name) != 0) continue;  // only shard-0 tenants spill
    TraceJob job;
    job.name = name;
    job.work = 2.0;
    job.arrival_time = static_cast<Real>(i);
    SubmitJobResponse ack;
    std::string error;
    ASSERT_EQ(router.submit(job, ack, error), RpcStatus::Ok) << error;
    if (ack.shard_id == 1)
      ++spilled;
    else
      ++refused;  // at the cap the key stays on its ring shard
  }
  RouterStats stats = router.stats();
  EXPECT_LE(stats.remapped_keys, 2u);
  EXPECT_EQ(stats.spillovers, stats.remapped_keys);
  if (spilled > 2) {
    // More than the cap reached shard 1 only if several tenants shared a
    // remap entry; the table itself must still be bounded.
    EXPECT_LE(stats.remapped_keys, 2u);
  }
  if (refused > 0) {
    EXPECT_GT(stats.remap_refused, 0u);
  }

  std::string error;
  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, error), RpcStatus::Ok) << error;
}

// ------------------------------------------------------- TCP front door

TEST(RouterServer, ServesShardedFleetOverTcp) {
  ShardRouter router(ring_only_router());
  build_fleet(router, 2);
  RouterServerOptions options;
  options.enable_http = true;
  RouterServer server(router, options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ASSERT_NE(server.port(), 0);
  ASSERT_NE(server.http_port(), 0);

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);

  WorkloadTrace trace = tenant_trace(31, 16);
  std::map<std::int64_t, std::string> submitted;
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    RpcError rpc = client.submit_job(job, ack);
    ASSERT_TRUE(rpc.ok()) << rpc.describe();
    ASSERT_GE(ack.shard_id, 0);  // the ack carries the routed shard
    EXPECT_LT(ack.shard_id, 2);
    EXPECT_EQ(ack.job_id % 2, ack.shard_id);
    submitted[ack.job_id] = job.name;
  }

  // Global ids resolve through the front door.
  for (const auto& [job_id, name] : submitted) {
    JobStatusResponse status;
    RpcError rpc = client.query_job_status(job_id, status);
    ASSERT_TRUE(rpc.ok()) << rpc.describe();
    EXPECT_EQ(status.status.name, name);
  }
  JobStatusResponse missing;
  RpcError unknown = client.query_job_status(99991, missing);
  EXPECT_EQ(unknown.app, RpcStatus::UnknownJob);

  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions,
            static_cast<std::uint64_t>(trace.job_count()));

  // Fan-in over the wire: entries for both shards, Σ invariant holds, and
  // the aggregated request count equals the sum of per-shard counts.
  MetricsResponse fleet;
  ASSERT_TRUE(client.get_metrics(fleet).ok());
  ASSERT_EQ(fleet.shards.size(), 2u);
  std::uint64_t completions = 0, requests = 0;
  for (const ShardMetricsEntry& entry : fleet.shards) {
    completions += entry.completions;
    requests += entry.requests;
  }
  EXPECT_EQ(fleet.completions, completions);
  EXPECT_EQ(requests, static_cast<std::uint64_t>(trace.job_count()));

  // Merged snapshot: both shards' machines, global ids only.
  ServiceSnapshot snapshot;
  ASSERT_TRUE(client.query_snapshot(snapshot).ok());
  EXPECT_EQ(snapshot.machines.size(), 4u);  // 2 shards x 2 machines

  server.stop();
}

TEST(RouterServer, FleetMetricsPageMergesShards) {
  ShardRouter router(ring_only_router());
  build_fleet(router, 2);
  RouterServer server(router, RouterServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  client.set_trace_id(0xABCD);  // lands as the latency exemplar's trace
  WorkloadTrace trace = tenant_trace(41, 12);
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    ASSERT_TRUE(client.submit_job(job, ack).ok());
  }

  // Fetch the fleet page over HTTP.
  NetStatus net = NetStatus::Ok;
  Deadline deadline = Deadline::after(5.0);
  Socket http = Socket::connect_to("127.0.0.1", server.http_port(), deadline,
                                   net);
  ASSERT_EQ(net, NetStatus::Ok);
  std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(http.send_all(request.data(), request.size(), deadline),
            NetStatus::Ok);
  http.shutdown_send();
  std::string page;
  char chunk[4096];
  while (true) {
    std::size_t got = 0;
    NetStatus rs = http.recv_some(chunk, sizeof(chunk), got, deadline);
    if (rs == NetStatus::Closed) break;
    ASSERT_EQ(rs, NetStatus::Ok);
    page.append(chunk, got);
  }
  EXPECT_EQ(page.rfind("HTTP/1.0 200", 0), 0u) << page;

  // Router counters, per-shard gauges, and the merged latency histogram.
  EXPECT_NE(page.find("cosched_router_requests_total 12"), std::string::npos)
      << page;
  EXPECT_NE(page.find("cosched_router_shard_requests_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(page.find("cosched_router_shard_requests_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(page.find("cosched_router_shard_queue_depth{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(page.find("cosched_router_request_seconds_count 12"),
            std::string::npos)
      << page;
  // Exemplars survive the per-shard merge onto the fleet page.
  EXPECT_NE(page.find("trace_id=\"000000000000abcd\""), std::string::npos)
      << page;

  std::string err;
  DrainResponse drained;
  ASSERT_EQ(router.drain(drained, err), RpcStatus::Ok) << err;
  server.stop();
}

// The router refuses other protocol versions exactly as a CoschedServer
// does: VersionMismatch, session kept open.
TEST(RouterServer, OldVersionsGetVersionMismatch) {
  ShardRouter router(ring_only_router());
  build_fleet(router, 2);
  RouterServer server(router, RouterServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  testhelpers::expect_old_versions_refused(server.port());
  server.stop();
}

// Admission's domain check runs inside every shard: a job with a field
// outside the model's domain is answered InvalidJob through the router,
// and the fleet keeps serving.
TEST(RouterServer, OutOfDomainJobFieldsGetInvalidJob) {
  ShardRouter router(ring_only_router());
  build_fleet(router, 2);
  RouterServer server(router, RouterServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);

  for (const TraceJob& bad : testhelpers::out_of_domain_jobs()) {
    SubmitJobResponse rejected;
    RpcError invalid = client.submit_job(bad, rejected);
    EXPECT_EQ(invalid.kind, RpcErrorKind::Application) << bad.name;
    EXPECT_EQ(invalid.app, RpcStatus::InvalidJob) << bad.name;
  }
  TraceJob good;
  good.name = "tenantGood/job";
  good.work = 4.0;
  SubmitJobResponse admitted;
  ASSERT_TRUE(client.submit_job(good, admitted).ok());
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, 1u);
  server.stop();
}

// --------------------------------------------- observability fan-in

/// A shard CoschedServer the router can adopt with add_remote_shard:
/// RPC-addressable (shard_id set), virtual clock, no HTTP side door.
ServerOptions shard_server_options(std::int32_t shard_id) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.enable_http = false;
  options.shard_id = shard_id;
  options.service = shard_service();
  return options;
}

/// Minimal HTTP/1.0 GET; returns the whole response (status line included).
std::string http_get(std::uint16_t port, const std::string& path) {
  NetStatus net = NetStatus::Ok;
  Deadline deadline = Deadline::after(10.0);
  Socket socket = Socket::connect_to("127.0.0.1", port, deadline, net);
  if (net != NetStatus::Ok) return "";
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (socket.send_all(request.data(), request.size(), deadline) !=
      NetStatus::Ok)
    return "";
  socket.shutdown_send();
  std::string response;
  char chunk[4096];
  while (true) {
    std::size_t got = 0;
    NetStatus status = socket.recv_some(chunk, sizeof(chunk), got, deadline);
    if (status != NetStatus::Ok) break;
    response.append(chunk, got);
  }
  return response;
}

// THE tentpole acceptance criterion: a client-chosen trace id survives the
// client -> RouterServer -> RemoteShard -> shard CoschedServer hops (two
// wire crossings) and lands on the shard's replan spans; the router's
// TraceDump fan-in then pulls the shard's own dump, namespaces it
// "shard0/", and merges the Chrome exports with the flow events intact —
// one Perfetto load shows the router span and the shard replan span
// joined by the shared id.
TEST(RouterObservability, TraceIdStitchesRouterAndShardTimelines) {
  Tracer& tracer = Tracer::global();
  tracer.reset();
  tracer.set_enabled(true);

  CoschedServer shard_server(shard_server_options(0));
  std::string error;
  ASSERT_TRUE(shard_server.start(error)) << error;

  ShardRouter router(ring_only_router());
  ClientOptions remote;
  remote.port = shard_server.port();
  router.add_remote_shard(remote, /*total_cores=*/4);

  RouterServer front(router, RouterServerOptions{});
  ASSERT_TRUE(front.start(error)) << error;

  ClientOptions client_options;
  client_options.port = front.port();
  CoschedClient client(client_options);
  const std::uint64_t kTraceId = 0xBEEF;
  client.set_trace_id(kTraceId);

  WorkloadTrace trace = tenant_trace(61, 8);
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    RpcError rpc = client.submit_job(job, ack);
    ASSERT_TRUE(rpc.ok()) << rpc.describe();
    EXPECT_EQ(ack.shard_id, 0);  // the only shard
  }
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions,
            static_cast<std::uint64_t>(trace.job_count()));

  // GetMetrics carries the health block over the wire: the shard
  // answered every fan-in call, so it reports up with zero failures.
  MetricsResponse fleet;
  ASSERT_TRUE(client.get_metrics(fleet).ok());
  ASSERT_EQ(fleet.shard_health.size(), 1u);
  EXPECT_EQ(fleet.shard_health[0].shard_id, 0);
  EXPECT_TRUE(fleet.shard_health[0].up);
  EXPECT_EQ(fleet.shard_health[0].transport_errors, 0u);

  TraceDumpResponse dump;
  RpcError rpc = client.trace_dump(dump);
  tracer.set_enabled(false);
  ASSERT_TRUE(rpc.ok()) << rpc.describe();
  EXPECT_TRUE(dump.enabled);
  EXPECT_EQ(dump.omitted_events, 0u);

  // The router's own request span is in the local part of the merge...
  EXPECT_TRUE(
      testhelpers::span_carries_trace(dump.chrome_json, "router.request",
                                      kTraceId))
      << dump.chrome_json;
  // ...and the shard's replan span sits in the namespaced remote part AND
  // carries the client's id: the namespacing proves the fan-in pulled the
  // remote dump, the id proves it crossed both wire hops (the shard's
  // replan runs on the worker thread serving the forwarded RPC).
  EXPECT_TRUE(testhelpers::span_carries_trace(
      dump.chrome_json, "shard0/online.replan", kTraceId))
      << dump.chrome_json;
  // The shard's request spans are tagged with its shard id.
  EXPECT_NE(dump.chrome_json.find("\"name\":\"shard0/rpc.request\""),
            std::string::npos);
  EXPECT_NE(dump.chrome_json.find(" shard=0\"}"), std::string::npos);

  // Merged Chrome export: shard records moved to pid 2 with namespaced
  // names, flow events kept their (cat, name, id) so Perfetto draws the
  // router (pid 1) -> shard (pid 2) arrows for the shared trace id.
  EXPECT_NE(dump.chrome_json.find("\"name\":\"shard0/online.replan\""),
            std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"pid\":2,"), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
                                  std::to_string(kTraceId)),
            std::string::npos);
  EXPECT_EQ(dump.chrome_json.find("\"name\":\"shard0/trace\""),
            std::string::npos);

  front.stop();
  shard_server.stop();
}

TEST(RouterObservability, HealthFanInTracksShardLiveness) {
  CoschedServer shard_server(shard_server_options(1));
  std::string error;
  ASSERT_TRUE(shard_server.start(error)) << error;

  RouterOptions options = ring_only_router();
  // A huge staleness bound makes the cache behaviour deterministic: only
  // the explicit health(0.0) calls below re-probe.
  options.health_max_age_seconds = 600.0;
  ShardRouter router(options);
  router.add_local_shard(shard_service());  // shard 0: up by construction
  ClientOptions remote;
  remote.port = shard_server.port();
  remote.request_timeout_seconds = 5.0;
  router.add_remote_shard(remote, 4);  // shard 1

  FleetHealth healthy = router.health(0.0);  // force a probe of both
  EXPECT_EQ(healthy.state, FleetHealth::State::Ok);
  EXPECT_EQ(healthy.shards_up, 2u);
  ASSERT_EQ(healthy.shards.size(), 2u);
  EXPECT_TRUE(healthy.shards[0].local);
  EXPECT_FALSE(healthy.shards[1].local);
  EXPECT_TRUE(healthy.shards[1].up);
  EXPECT_TRUE(healthy.shards[1].error.empty());
  std::string json = ShardRouter::health_json(healthy);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_total\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\":\"remote\""), std::string::npos) << json;

  // The Prometheus page carries liveness gauges and per-kind counters.
  std::string page = router.render_prometheus();
  EXPECT_NE(page.find("cosched_shard_up{shard=\"0\"} 1"), std::string::npos)
      << page;
  EXPECT_NE(page.find("cosched_shard_up{shard=\"1\"} 1"), std::string::npos);
  EXPECT_NE(
      page.find(
          "cosched_shard_rpc_errors_total{shard=\"1\",kind=\"transport\"} 0"),
      std::string::npos)
      << page;

  // Kill the shard server. A fresh-enough verdict still answers from the
  // cache (bounded staleness: scrape storms cannot become probe storms)...
  shard_server.stop();
  FleetHealth cached = router.health(600.0);
  EXPECT_EQ(cached.state, FleetHealth::State::Ok);

  // ...but a forced re-probe sees it down and folds the fleet degraded.
  FleetHealth degraded = router.health(0.0);
  EXPECT_EQ(degraded.state, FleetHealth::State::Degraded);
  EXPECT_EQ(degraded.shards_up, 1u);
  EXPECT_TRUE(degraded.shards[0].up);
  EXPECT_FALSE(degraded.shards[1].up);
  EXPECT_FALSE(degraded.shards[1].error.empty());
  json = ShardRouter::health_json(degraded);
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"up\":false"), std::string::npos) << json;
  // The failed probe was counted under its error kind.
  EXPECT_GT(router.shard(1).rpc_errors().transport, 0u);
  page = router.render_prometheus();
  EXPECT_NE(page.find("cosched_shard_up{shard=\"1\"} 0"), std::string::npos)
      << page;
}

TEST(RouterObservability, HealthzAnswers503OnlyWhenTheFleetIsDown) {
  RouterServerOptions http_options;
  http_options.enable_http = true;

  // Live fleet: one local shard -> 200 with the ok verdict in the body.
  ShardRouter healthy_router(ring_only_router());
  healthy_router.add_local_shard(shard_service());
  RouterServer healthy_front(healthy_router, http_options);
  std::string error;
  ASSERT_TRUE(healthy_front.start(error)) << error;
  std::string response = http_get(healthy_front.http_port(), "/healthz");
  EXPECT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  // The profiler side door serves collapsed stacks on the same endpoint.
  std::string profile = http_get(healthy_front.http_port(), "/debug/profile");
  EXPECT_EQ(profile.rfind("HTTP/1.0 200", 0), 0u) << profile;
  healthy_front.stop();

  // Dead fleet: the only shard is a remote nobody listens on -> 503, so a
  // dumb LB probe fails over without parsing the JSON breakdown.
  CoschedServer ghost(shard_server_options(0));
  ASSERT_TRUE(ghost.start(error)) << error;
  std::uint16_t dead_port = ghost.port();
  ghost.stop();  // connections to the port are now refused

  ShardRouter down_router(ring_only_router());
  ClientOptions dead;
  dead.port = dead_port;
  dead.request_timeout_seconds = 2.0;
  down_router.add_remote_shard(dead, 4);
  RouterServer down_front(down_router, http_options);
  ASSERT_TRUE(down_front.start(error)) << error;
  response = http_get(down_front.http_port(), "/healthz");
  EXPECT_EQ(response.rfind("HTTP/1.0 503", 0), 0u) << response;
  EXPECT_NE(response.find("\"status\":\"down\""), std::string::npos)
      << response;
  down_front.stop();
}

}  // namespace
}  // namespace cosched
