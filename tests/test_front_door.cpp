// Tests for the one request dispatcher both front doors share
// (rpc/session_core): CoschedServer and RouterServer decode, budget-check
// and encode every message the same way, so a one-shard router answers
// byte for byte like a server, a malformed body is BadRequest on either
// door, the router's GetMetrics carries the session counters, and the
// side door's /debug/events?job= gives a defined body for any value. The
// router-path oracle drives a seeded stream over TCP through a RouterServer
// to one local and one remote shard and holds each shard's committed
// schedule to an in-process replay of the submissions routed to it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "online/live_service.hpp"
#include "online/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::reset_global_tracer;

LiveServiceOptions fleet_service() {
  LiveServiceOptions options;
  options.wall_clock = false;
  options.scheduler.cores = 2;
  options.scheduler.machines = 2;
  options.scheduler.admission.every_k = 2;
  return options;
}

/// Seeded multi-tenant stream: the tenant prefix gives the ring something
/// to hash; arrival times ascend.
std::vector<TraceJob> tenant_jobs(std::uint64_t seed, std::int32_t jobs) {
  TraceSpec spec;
  spec.job_count = jobs;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = seed;
  std::vector<TraceJob> stream = generate_trace(spec).jobs;
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].name = "tenant" + std::to_string(i % 5) + "/" + stream[i].name;
  return stream;
}

/// A shard-addressable server (shard id set, virtual clock).
ServerOptions server_options(std::int32_t shard_id, bool http) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.enable_http = http;
  options.shard_id = shard_id;
  options.service = fleet_service();
  return options;
}

RouterServerOptions router_options(bool http) {
  RouterServerOptions options;
  options.host = "127.0.0.1";
  options.enable_http = http;
  return options;
}

/// One current-version exchange on an open connection with a fixed trace
/// id, so both doors record the same ids in their journals.
ResponseEnvelope exchange(Socket& socket, MessageType type,
                          std::uint64_t request_id,
                          const std::vector<std::uint8_t>& body) {
  RequestEnvelope request;
  request.type = type;
  request.request_id = request_id;
  request.trace_id = 1000 + request_id;
  request.body = body;
  EXPECT_EQ(write_frame(socket, encode_request(request), Deadline::after(5.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame(socket, payload, Deadline::after(30.0)),
            FrameStatus::Ok);
  ResponseEnvelope response;
  EXPECT_TRUE(decode_response(payload, response));
  return response;
}

Socket connect(std::uint16_t port) {
  NetStatus net = NetStatus::Ok;
  Socket socket =
      Socket::connect_to("127.0.0.1", port, Deadline::after(5.0), net);
  EXPECT_EQ(net, NetStatus::Ok);
  return socket;
}

std::vector<std::uint8_t> job_body(const TraceJob& job) {
  WireWriter w;
  encode_trace_job(w, job);
  return w.take();
}

std::vector<std::uint8_t> id_body(std::int64_t job_id) {
  WireWriter w;
  w.i64(job_id);
  return w.take();
}

/// A CoschedServer and a one-shard RouterServer over identical fleets. With
/// one shard a global id is the local id and the routed shard is 0, so the
/// server is given shard id 0 too.
struct TwoDoors {
  explicit TwoDoors(bool http)
      : server(server_options(0, http)),
        front(add_shard(router), router_options(http)) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
    EXPECT_TRUE(front.start(error)) << error;
  }
  ~TwoDoors() {
    front.stop();
    server.stop();
  }
  static ShardRouter& add_shard(ShardRouter& router) {
    router.add_local_shard(fleet_service());
    return router;
  }

  CoschedServer server;
  ShardRouter router;
  RouterServer front;
};

// ------------------------------------------------------- router-path oracle

// The schedule produced through the RPC, router and shard path equals the
// one produced in-process: each shard's deterministic CSV matches a
// virtual-mode LiveSchedulerService fed exactly the submissions the router
// sent that shard, in order. Shard 0 is a LocalShard, shard 1 a RemoteShard
// in front of a CoschedServer on loopback.
TEST(RouterPathOracle, EachShardMatchesAnInProcessReplayOfItsStream) {
  for (std::uint64_t seed : {5u, 17u}) {
    CoschedServer remote_server(server_options(1, false));
    std::string error;
    ASSERT_TRUE(remote_server.start(error)) << error;
    ShardRouter router;
    router.add_local_shard(fleet_service());
    ClientOptions remote;
    remote.port = remote_server.port();
    router.add_remote_shard(remote, /*total_cores=*/4);
    RouterServer front(router, router_options(false));
    ASSERT_TRUE(front.start(error)) << error;

    ClientOptions client_options;
    client_options.port = front.port();
    CoschedClient client(client_options);
    std::vector<std::vector<TraceJob>> routed(2);
    for (const TraceJob& job : tenant_jobs(seed, 30)) {
      SubmitJobResponse ack;
      RpcError rpc = client.submit_job(job, ack);
      ASSERT_TRUE(rpc.ok()) << rpc.describe();
      ASSERT_TRUE(ack.shard_id == 0 || ack.shard_id == 1) << ack.shard_id;
      routed[static_cast<std::size_t>(ack.shard_id)].push_back(job);
    }
    ASSERT_FALSE(routed[0].empty());
    ASSERT_FALSE(routed[1].empty());
    DrainResponse drained;
    ASSERT_TRUE(client.drain(drained).ok());
    EXPECT_EQ(drained.completions, 30u);

    for (std::size_t s = 0; s < 2; ++s) {
      MetricsResponse shard;
      ASSERT_EQ(router.shard(s).metrics(shard, error), RpcStatus::Ok)
          << error;
      LiveSchedulerService reference(fleet_service());
      for (const TraceJob& job : routed[s]) {
        SubmitOutcome outcome;
        ASSERT_TRUE(reference.submit(job, outcome, 30.0));
        ASSERT_EQ(outcome.error, SubmitError::None);
      }
      DrainOutcome reference_drained;
      ASSERT_TRUE(reference.drain(reference_drained, 60.0));
      std::string expected;
      ASSERT_TRUE(reference.call(
          [](OnlineScheduler& scheduler) {
            return scheduler.metrics().render_deterministic_csv();
          },
          expected, 30.0));
      EXPECT_EQ(shard.deterministic_csv, expected)
          << "seed " << seed << " shard " << s;
      EXPECT_EQ(shard.completions, routed[s].size());
    }
    front.stop();
    remote_server.stop();
  }
}

// ------------------------------------------------------ front-door parity

// Same submissions, same trace ids: a one-shard router and a server send
// identical SubmitJob, QueryJobStatus, QueryJobTimeline,
// QueryScheduleSnapshot and Drain replies — status, error text and body.
TEST(FrontDoorParity, OneShardRouterAnswersLikeTheServer) {
  TwoDoors doors(false);
  Socket to_server = connect(doors.server.port());
  Socket to_router = connect(doors.front.port());
  std::uint64_t request_id = 0;
  auto expect_same = [&](MessageType type,
                         const std::vector<std::uint8_t>& body) {
    ++request_id;
    ResponseEnvelope a = exchange(to_server, type, request_id, body);
    ResponseEnvelope b = exchange(to_router, type, request_id, body);
    EXPECT_EQ(a.status, b.status) << to_string(type) << " #" << request_id;
    EXPECT_EQ(a.error, b.error) << to_string(type) << " #" << request_id;
    EXPECT_EQ(a.body, b.body) << to_string(type) << " #" << request_id;
    return a;
  };

  const std::vector<TraceJob> jobs = tenant_jobs(23, 12);
  for (const TraceJob& job : jobs) {
    ResponseEnvelope ack = expect_same(MessageType::SubmitJob, job_body(job));
    EXPECT_EQ(ack.status, RpcStatus::Ok) << ack.error;
  }
  TraceJob too_big;
  too_big.processes = 99;  // larger than the fleet: InvalidJob on both
  EXPECT_EQ(expect_same(MessageType::SubmitJob, job_body(too_big)).status,
            RpcStatus::InvalidJob);
  expect_same(MessageType::QueryScheduleSnapshot, {});
  for (std::int64_t id : {0, 3, 11, 12, -1, 99}) {
    expect_same(MessageType::QueryJobStatus, id_body(id));
    expect_same(MessageType::QueryJobTimeline, id_body(id));
  }
  EXPECT_EQ(expect_same(MessageType::Drain, {}).status, RpcStatus::Ok);
  expect_same(MessageType::QueryScheduleSnapshot, {});
  expect_same(MessageType::QueryJobTimeline, id_body(5));
  EXPECT_EQ(expect_same(MessageType::SubmitJob, job_body(jobs[0])).status,
            RpcStatus::Draining);
}

// Every message type with a trailing byte, and the ones that take a body
// with a truncated one, is BadRequest on both doors with the same text —
// and the sessions stay usable (a malformed Shutdown shuts nothing down).
TEST(FrontDoorParity, MalformedBodiesAreBadRequestOnBothDoors) {
  TwoDoors doors(false);
  Socket to_server = connect(doors.server.port());
  Socket to_router = connect(doors.front.port());
  const TraceJob job = tenant_jobs(3, 1).front();
  const std::vector<std::uint8_t> job_bytes = job_body(job);
  const std::vector<std::uint8_t> id_bytes = id_body(0);

  struct Case {
    MessageType type;
    std::vector<std::uint8_t> valid;
  };
  const std::vector<Case> cases = {
      {MessageType::SubmitJob, job_bytes},
      {MessageType::QueryJobStatus, id_bytes},
      {MessageType::QueryJobTimeline, id_bytes},
      {MessageType::QueryScheduleSnapshot, {}},
      {MessageType::GetMetrics, {}},
      {MessageType::Drain, {}},
      {MessageType::Shutdown, {}},
      {MessageType::TraceDump, {}},
  };
  std::uint64_t request_id = 0;
  for (const Case& c : cases) {
    std::vector<std::vector<std::uint8_t>> bad;
    bad.push_back(c.valid);
    bad.back().push_back(0x7F);  // trailing byte
    if (!c.valid.empty())
      bad.emplace_back(c.valid.begin(), c.valid.end() - 1);  // truncated
    for (const std::vector<std::uint8_t>& body : bad) {
      ++request_id;
      ResponseEnvelope a = exchange(to_server, c.type, request_id, body);
      ResponseEnvelope b = exchange(to_router, c.type, request_id, body);
      EXPECT_EQ(a.status, RpcStatus::BadRequest) << to_string(c.type);
      EXPECT_EQ(b.status, RpcStatus::BadRequest) << to_string(c.type);
      EXPECT_EQ(a.error, std::string("malformed ") + to_string(c.type) +
                             " body");
      EXPECT_EQ(a.error, b.error);
      EXPECT_TRUE(a.body.empty());
      EXPECT_TRUE(b.body.empty());
    }
  }
  EXPECT_FALSE(doors.server.shutdown_requested());
  EXPECT_FALSE(doors.front.shutdown_requested());
  ResponseEnvelope served = exchange(to_router, MessageType::SubmitJob,
                                     ++request_id, job_bytes);
  EXPECT_EQ(served.status, RpcStatus::Ok) << served.error;
}

// The session half of GetMetrics is the dispatcher's, so the router's reply
// carries the request counters and the tracer's ring drops like the
// server's does.
TEST(FrontDoorParity, RouterMetricsCarrySessionCounters) {
  reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_max_events_per_thread(16);  // small rings: drops guaranteed
  {
    TwoDoors doors(false);
    for (std::uint16_t port : {doors.server.port(), doors.front.port()}) {
      ClientOptions client_options;
      client_options.port = port;
      CoschedClient client(client_options);
      for (const TraceJob& job : tenant_jobs(44, 16)) {
        SubmitJobResponse ack;
        ASSERT_TRUE(client.submit_job(job, ack).ok());
      }
      JobStatusResponse missing;
      EXPECT_EQ(client.query_job_status(999, missing).app,
                RpcStatus::UnknownJob);
      MetricsResponse metrics;
      ASSERT_TRUE(client.get_metrics(metrics).ok());
      EXPECT_EQ(metrics.rpc_requests_ok, 16u) << "port " << port;
      EXPECT_EQ(metrics.rpc_requests_failed, 1u) << "port " << port;
      EXPECT_GT(metrics.tracer_dropped_events, 0u) << "port " << port;
      EXPECT_LE(metrics.tracer_dropped_events, tracer.dropped_events());
    }
  }
  reset_global_tracer();
}

// /debug/events?job= answers every value with a defined body on both
// doors: text that is not a whole int64 is a "bad job id", an unknown id
// names the status, an empty value reads as absent (the journal tail), and
// a known job's timeline is the same on both.
TEST(FrontDoorParity, DebugEventsJobParamHasADefinedBody) {
  TwoDoors doors(true);
  for (std::uint16_t port : {doors.server.port(), doors.front.port()}) {
    ClientOptions client_options;
    client_options.port = port;
    client_options.jitter_seed = 7;  // the same request trace ids
    CoschedClient client(client_options);
    for (const TraceJob& job : tenant_jobs(9, 4)) {
      SubmitJobResponse ack;
      ASSERT_TRUE(client.submit_job(job, ack).ok());
    }
  }
  std::vector<std::string> job0_bodies;
  for (std::uint16_t port :
       {doors.server.http_port(), doors.front.http_port()}) {
    auto events = [&](const std::string& query) {
      return http_get("127.0.0.1", port, "/debug/events" + query);
    };
    EXPECT_EQ(events("?job=5x"), "bad job id: 5x\n");
    EXPECT_EQ(events("?job=99999999999999999999"),
              "bad job id: 99999999999999999999\n");
    EXPECT_EQ(events("?job=-1"), "unknown job: no job with id -1\n");
    EXPECT_EQ(events("?job=77"), "unknown job: no job with id 77\n");
    EXPECT_EQ(events("?job="), events(""));
    std::string job0 = events("?job=0");
    EXPECT_EQ(job0.rfind("job=0 events=", 0), 0u) << job0;
    job0_bodies.push_back(job0);
  }
  EXPECT_EQ(job0_bodies[0], job0_bodies[1]);
}

}  // namespace
}  // namespace cosched
