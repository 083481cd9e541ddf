// Tests for the RPC front-end (src/rpc): protocol round-trips, the
// loopback end-to-end determinism criterion (a TCP-submitted job mix must
// match the trace-replay path byte for byte), and fault injection —
// truncated frames, mid-request disconnects, server-side deadline expiry,
// retry budgets, connection caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/alerts.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc_test_helpers.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::expect_old_versions_refused;
using testhelpers::out_of_domain_jobs;
using testhelpers::raw_exchange;

// ------------------------------------------------------------ protocol

TEST(Protocol, RequestEnvelopeRoundTrips) {
  RequestEnvelope request;
  request.type = MessageType::SubmitJob;
  request.request_id = 0xFEEDFACEDEADBEEFull;
  request.body = {1, 2, 3};
  RequestEnvelope got;
  ASSERT_TRUE(decode_request(encode_request(request), got));
  EXPECT_EQ(got.version, kProtocolVersion);
  EXPECT_EQ(got.type, request.type);
  EXPECT_EQ(got.request_id, request.request_id);
  EXPECT_EQ(got.body, request.body);
}

TEST(Protocol, EnvelopeTraceIdRoundTrips) {
  RequestEnvelope request;
  request.type = MessageType::SubmitJob;
  request.request_id = 5;
  request.trace_id = 0xABCDEF;
  RequestEnvelope decoded;
  ASSERT_TRUE(decode_request(encode_request(request), decoded));
  EXPECT_EQ(decoded.trace_id, 0xABCDEFu);

  ResponseEnvelope response;
  response.request_id = 5;
  response.trace_id = 0x1234;
  ResponseEnvelope out;
  ASSERT_TRUE(decode_response(encode_response(response), out));
  EXPECT_EQ(out.trace_id, 0x1234u);
}

TEST(Protocol, ResponseEnvelopeRoundTrips) {
  ResponseEnvelope response;
  response.type = MessageType::Drain;
  response.request_id = 42;
  response.status = RpcStatus::Draining;
  response.error = "service is draining";
  response.body = {9, 8};
  ResponseEnvelope got;
  ASSERT_TRUE(decode_response(encode_response(response), got));
  EXPECT_EQ(got.type, response.type);
  EXPECT_EQ(got.request_id, response.request_id);
  EXPECT_EQ(got.status, response.status);
  EXPECT_EQ(got.error, response.error);
  EXPECT_EQ(got.body, response.body);
}

TEST(Protocol, MalformedEnvelopesAreRejected) {
  RequestEnvelope request;
  std::vector<std::uint8_t> bytes = encode_request(request);
  bytes.resize(5);  // header cut short
  EXPECT_FALSE(decode_request(bytes, request));

  RequestEnvelope bad_type;
  bad_type.type = static_cast<MessageType>(200);
  EXPECT_FALSE(decode_request(encode_request(bad_type), request));

  ResponseEnvelope response;
  EXPECT_FALSE(decode_response({}, response));
}

TEST(Protocol, TraceJobRoundTripsBitForBit) {
  TraceJob job;
  job.arrival_time = 17.0 / 3.0;
  job.name = "mpi/lu.C.4";
  job.kind = JobKind::ParallelNoComm;
  job.processes = 4;
  job.work = 12.75;
  job.miss_rate = 0.62;
  job.sensitivity = 1.0 / 7.0;
  WireWriter w;
  encode_trace_job(w, job);
  WireReader r(w.bytes());
  TraceJob got;
  ASSERT_TRUE(decode(r, got));
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(got.arrival_time, job.arrival_time);
  EXPECT_EQ(got.name, job.name);
  EXPECT_EQ(got.kind, job.kind);
  EXPECT_EQ(got.processes, job.processes);
  EXPECT_EQ(got.work, job.work);
  EXPECT_EQ(got.miss_rate, job.miss_rate);
  EXPECT_EQ(got.sensitivity, job.sensitivity);
}

TEST(Protocol, SnapshotRoundTrips) {
  ServiceSnapshot snapshot;
  snapshot.now = 3.25;
  snapshot.pending_jobs = 2;
  snapshot.free_slots = 5;
  snapshot.completions = 11;
  snapshot.live_degradation_sum = 1.5;
  snapshot.mean_live_degradation = 0.5;
  snapshot.machines.resize(3);
  snapshot.machines[0].push_back({7, 3, 0.25});
  snapshot.machines[2].push_back({8, 3, 0.75});
  snapshot.machines[2].push_back({9, 4, 0.5});
  WireWriter w;
  encode(w, snapshot);
  WireReader r(w.bytes());
  ServiceSnapshot got;
  ASSERT_TRUE(decode(r, got));
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(got.now, snapshot.now);
  ASSERT_EQ(got.machines.size(), 3u);
  EXPECT_TRUE(got.machines[1].empty());
  ASSERT_EQ(got.machines[2].size(), 2u);
  EXPECT_EQ(got.machines[2][1].gid, 9);
  EXPECT_EQ(got.machines[2][1].job, 4);
  EXPECT_EQ(got.machines[2][1].degradation, 0.5);
}

TEST(Protocol, JobStatusViewRejectsLyingProcCount) {
  WireWriter w;
  JobStatusView view;
  view.id = 1;
  encode(w, view);
  std::vector<std::uint8_t> bytes = w.take();
  // Overwrite the proc-count field (last 4 bytes) with a huge claim.
  bytes[bytes.size() - 1] = 0xFF;
  bytes[bytes.size() - 2] = 0xFF;
  WireReader r(bytes);
  JobStatusView got;
  EXPECT_FALSE(decode(r, got));
}

// ------------------------------------------------------------ loopback

OnlineSchedulerOptions small_fleet() {
  OnlineSchedulerOptions options;
  options.cores = 2;
  options.machines = 3;
  options.admission.every_k = 2;
  return options;
}

WorkloadTrace small_trace(std::uint64_t seed, std::int32_t jobs = 16) {
  TraceSpec spec;
  spec.job_count = jobs;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = seed;
  return generate_trace(spec);
}

ServerOptions loopback_options() {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.service.wall_clock = false;
  options.service.scheduler = small_fleet();
  return options;
}

ClientOptions client_for(const CoschedServer& server) {
  ClientOptions options;
  options.port = server.port();
  options.backoff_base_seconds = 0.005;
  options.backoff_max_seconds = 0.02;
  return options;
}

// THE acceptance criterion of the RPC front-end: a job mix submitted over
// TCP in virtual-time mode produces byte-for-byte the metrics CSVs of the
// same mix replayed as a trace.
TEST(RpcLoopback, TcpSubmissionMatchesTraceReplayByteForByte) {
  WorkloadTrace trace = small_trace(21);

  OnlineScheduler reference(small_fleet());
  reference.run(trace);
  std::string expected = reference.metrics().render_deterministic_csv();

  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse reply;
    RpcError rpc_error = client.submit_job(job, reply);
    ASSERT_TRUE(rpc_error.ok()) << rpc_error.describe();
    EXPECT_GE(reply.job_id, 0);
  }
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, static_cast<std::uint64_t>(trace.job_count()));

  MetricsResponse metrics;
  ASSERT_TRUE(client.get_metrics(metrics).ok());
  EXPECT_EQ(metrics.deterministic_csv, expected);
  EXPECT_EQ(metrics.arrivals, reference.metrics().arrivals());
  EXPECT_EQ(metrics.replans, reference.metrics().replans());
  server.stop();
}

TEST(RpcLoopback, StatusSnapshotAndErrorsBehave) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  TraceJob job;
  job.name = "probe";
  job.work = 8.0;
  SubmitJobResponse submitted;
  ASSERT_TRUE(client.submit_job(job, submitted).ok());
  // Idle fleet + pending work admits immediately: placement and predicted
  // degradation come back in the submit response.
  EXPECT_EQ(submitted.status.phase, JobPhase::Running);
  ASSERT_EQ(submitted.status.procs.size(), 1u);
  EXPECT_GE(submitted.status.procs[0].machine, 0);

  JobStatusResponse status;
  ASSERT_TRUE(client.query_job_status(submitted.job_id, status).ok());
  EXPECT_EQ(status.status.name, "probe");

  RpcError unknown = client.query_job_status(999, status);
  EXPECT_EQ(unknown.kind, RpcErrorKind::Application);
  EXPECT_EQ(unknown.app, RpcStatus::UnknownJob);

  ServiceSnapshot snapshot;
  ASSERT_TRUE(client.query_snapshot(snapshot).ok());
  ASSERT_EQ(snapshot.machines.size(), 3u);
  EXPECT_EQ(snapshot.free_slots, 5);  // 6 cores, one running process

  TraceJob bad;
  bad.processes = 99;  // larger than the whole fleet
  SubmitJobResponse rejected;
  RpcError invalid = client.submit_job(bad, rejected);
  EXPECT_EQ(invalid.kind, RpcErrorKind::Application);
  EXPECT_EQ(invalid.app, RpcStatus::InvalidJob);

  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, 1u);

  // Drain mode: admissions stopped, queued work already finished.
  SubmitJobResponse refused;
  RpcError draining = client.submit_job(job, refused);
  EXPECT_EQ(draining.kind, RpcErrorKind::Application);
  EXPECT_EQ(draining.app, RpcStatus::Draining);
  server.stop();
}

// A well-formed SubmitJob whose fields leave the model's domain (miss rate
// outside [0, 1], negative or NaN sensitivity, non-finite arrival or work)
// is refused with InvalidJob; the server keeps serving and a drain after
// the refusals completes the valid work.
TEST(RpcLoopback, OutOfDomainJobFieldsGetInvalidJob) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  for (const TraceJob& bad : out_of_domain_jobs()) {
    SubmitJobResponse rejected;
    RpcError invalid = client.submit_job(bad, rejected);
    EXPECT_EQ(invalid.kind, RpcErrorKind::Application) << bad.name;
    EXPECT_EQ(invalid.app, RpcStatus::InvalidJob) << bad.name;
  }
  TraceJob good;
  good.work = 4.0;
  SubmitJobResponse admitted;
  ASSERT_TRUE(client.submit_job(good, admitted).ok());
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, 1u);
  server.stop();
}

TEST(RpcLoopback, ShutdownRequestStopsTheServer) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));
  ShutdownResponse reply;
  ASSERT_TRUE(client.shutdown_server(reply).ok());
  server.wait();  // returns because the RPC tripped the latch
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

// The admission max-wait backstop must fire off RPC submissions exactly as
// it does in trace replay: a job nothing else admits is force-admitted
// max_wait after its arrival.
TEST(RpcLoopback, MaxWaitBackstopFiresOverRpc) {
  ServerOptions options = loopback_options();
  options.service.scheduler.admission.every_k = 100;  // batch never fills
  options.service.scheduler.admission.max_wait = 5.0;
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  TraceJob hog;  // admitted instantly (idle fleet), keeps the fleet busy
  hog.name = "hog";
  hog.arrival_time = 0.0;
  hog.work = 100.0;
  SubmitJobResponse hog_reply;
  ASSERT_TRUE(client.submit_job(hog, hog_reply).ok());
  ASSERT_EQ(hog_reply.status.phase, JobPhase::Running);

  TraceJob waiter;  // fleet busy, batch of 1 < every_k: only the backstop
  waiter.name = "waiter";
  waiter.arrival_time = 1.0;
  waiter.work = 2.0;
  SubmitJobResponse waiter_reply;
  ASSERT_TRUE(client.submit_job(waiter, waiter_reply).ok());
  EXPECT_EQ(waiter_reply.status.phase, JobPhase::Pending);

  // A later submission pumps virtual time past the waiter's deadline.
  TraceJob probe;
  probe.name = "probe";
  probe.arrival_time = 10.0;
  probe.work = 1.0;
  SubmitJobResponse probe_reply;
  ASSERT_TRUE(client.submit_job(probe, probe_reply).ok());

  JobStatusResponse status;
  ASSERT_TRUE(client.query_job_status(waiter_reply.job_id, status).ok());
  // By t=10 the force-admitted waiter has already run to completion; the
  // backstop's signature is the admit time, not the phase.
  EXPECT_NE(status.status.phase, JobPhase::Pending);
  EXPECT_EQ(status.status.admit_time,
            waiter.arrival_time + options.service.scheduler.admission.max_wait);

  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, 3u);
  server.stop();
}

// ------------------------------------------------------------ faults

TEST(RpcFaults, TruncatedFrameDropsConnectionNotServer) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  NetStatus status = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                  Deadline::after(2.0), status);
  ASSERT_EQ(status, NetStatus::Ok);
  const std::uint8_t partial[] = {0x43, 0x53};  // half a magic word
  ASSERT_EQ(raw.send_all(partial, sizeof partial, Deadline::after(2.0)),
            NetStatus::Ok);
  raw.close();  // mid-frame disconnect

  // The server must shrug that off and keep serving.
  CoschedClient client(client_for(server));
  MetricsResponse metrics;
  ASSERT_TRUE(client.get_metrics(metrics).ok());
  // Stats are updated when the worker notices the dead connection; the
  // successful request above serializes behind it on busy servers, but
  // poll at most a moment for the counter.
  for (int i = 0; i < 100 && server.stats().malformed_frames == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(server.stats().malformed_frames, 1u);
  server.stop();
}

TEST(RpcFaults, GarbageMagicDropsConnectionNotServer) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  NetStatus status = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                  Deadline::after(2.0), status);
  ASSERT_EQ(status, NetStatus::Ok);
  WireWriter w;
  w.u32(0x47455420);  // "GET "
  w.u32(2);
  // Header only: the magic check rejects before the body is read, and with
  // an empty receive buffer the server's close is a clean FIN (sending the
  // body too would leave unread bytes and turn the close into an RST).
  ASSERT_EQ(raw.send_all(w.bytes().data(), w.bytes().size(),
                         Deadline::after(2.0)),
            NetStatus::Ok);
  std::vector<std::uint8_t> reply;
  // No response: the connection is dropped.
  EXPECT_EQ(read_frame(raw, reply, Deadline::after(2.0)), FrameStatus::Closed);

  CoschedClient client(client_for(server));
  MetricsResponse metrics;
  EXPECT_TRUE(client.get_metrics(metrics).ok());
  server.stop();
}

TEST(RpcFaults, MidRequestDisconnectLeavesServerServing) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  // A correctly-framed SubmitJob whose connection dies before the reply can
  // be read: the command still executes (at-most-once is the client's
  // problem, which is why SubmitJob is never blindly retried).
  {
    NetStatus status = NetStatus::Ok;
    Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                    Deadline::after(2.0), status);
    ASSERT_EQ(status, NetStatus::Ok);
    RequestEnvelope request;
    request.type = MessageType::SubmitJob;
    request.request_id = 1;
    WireWriter body;
    TraceJob job;
    job.name = "orphan";
    job.work = 1.0;
    encode_trace_job(body, job);
    request.body = body.take();
    ASSERT_EQ(write_frame(raw, encode_request(request), Deadline::after(2.0)),
              FrameStatus::Ok);
    raw.close();  // gone before the response
  }

  // The orphan's submission races this connection's requests (different
  // connection, different worker); wait until it has been counted before
  // draining.
  CoschedClient client(client_for(server));
  MetricsResponse metrics;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.get_metrics(metrics).ok());
    if (metrics.arrivals >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(metrics.arrivals, 1u);
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  EXPECT_EQ(drained.completions, 1u);  // the orphan ran to completion
  server.stop();
}

TEST(RpcFaults, ServerSideDeadlineExpiryIsReported) {
  ServerOptions options = loopback_options();
  options.request_deadline_seconds = 0.0;  // every budget is pre-expired
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));
  MetricsResponse metrics;
  RpcError rpc_error = client.get_metrics(metrics);
  EXPECT_EQ(rpc_error.kind, RpcErrorKind::Application);
  EXPECT_EQ(rpc_error.app, RpcStatus::DeadlineExpired);
  EXPECT_EQ(rpc_error.attempts, 1);  // application errors are never retried
  server.stop();
}

TEST(RpcFaults, RetryBackoffExhaustsBudgetAgainstDeadPort) {
  NetStatus status = NetStatus::Ok;
  Socket listener = Socket::listen_on("127.0.0.1", 0, 1, status);
  ASSERT_EQ(status, NetStatus::Ok);
  std::uint16_t dead_port = listener.local_port();
  listener.close();

  ClientOptions options;
  options.port = dead_port;
  options.max_attempts = 4;
  options.connect_timeout_seconds = 0.5;
  options.backoff_base_seconds = 0.005;
  options.backoff_max_seconds = 0.02;
  CoschedClient client(options);
  MetricsResponse metrics;
  RpcError error = client.get_metrics(metrics);
  EXPECT_EQ(error.kind, RpcErrorKind::Transport);
  EXPECT_EQ(error.net, NetStatus::Refused);
  EXPECT_EQ(error.attempts, 4);  // full budget consumed
}

TEST(RpcFaults, VersionMismatchIsAnsweredNotDropped) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  NetStatus status = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                  Deadline::after(2.0), status);
  ASSERT_EQ(status, NetStatus::Ok);
  RequestEnvelope request;
  request.version = 99;
  request.type = MessageType::GetMetrics;
  request.request_id = 7;
  ASSERT_EQ(write_frame(raw, encode_request(request), Deadline::after(2.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(raw, payload, Deadline::after(2.0)), FrameStatus::Ok);
  ResponseEnvelope response;
  ASSERT_TRUE(decode_response(payload, response));
  EXPECT_EQ(response.status, RpcStatus::VersionMismatch);
  EXPECT_EQ(response.request_id, 7u);
  server.stop();
}

TEST(RpcFaults, ConnectionCapRefusesTheOverflow) {
  ServerOptions options = loopback_options();
  options.max_connections = 1;
  options.worker_threads = 2;
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  // First client occupies the only slot.
  CoschedClient first(client_for(server));
  MetricsResponse metrics;
  ASSERT_TRUE(first.get_metrics(metrics).ok());

  // Second client is accepted at TCP level, then refused by the cap.
  ClientOptions second_options = client_for(server);
  second_options.max_attempts = 1;
  CoschedClient second(second_options);
  RpcError refused = second.get_metrics(metrics);
  EXPECT_EQ(refused.kind, RpcErrorKind::Transport);

  for (int i = 0; i < 100 && server.stats().rejected_connections == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(server.stats().rejected_connections, 1u);

  // Releasing the slot lets the next client in — once the worker notices
  // the EOF (bounded by its idle-poll slice), so give the retry budget
  // room to cover that window.
  first.disconnect();
  ClientOptions third_options = client_for(server);
  third_options.max_attempts = 20;
  third_options.backoff_base_seconds = 0.02;
  third_options.backoff_max_seconds = 0.1;
  CoschedClient third(third_options);
  RpcError ok = third.get_metrics(metrics);
  EXPECT_TRUE(ok.ok()) << ok.describe();
  server.stop();
}

// A reply the client's read_frame would refuse (past kDefaultMaxFrameBytes)
// is answered ServerError naming its size, and the session stays usable:
// the next request on the same connection is served.
TEST(RpcFaults, OverCapReplyIsAServerErrorAndTheSessionStays) {
  testhelpers::reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  // 2,048 spans with 600-byte details: the dump's text and Chrome JSON
  // together carry about 2.5 MB.
  const std::string detail(600, 'x');
  for (int i = 0; i < 2048; ++i) {
    tracer.begin_span("test.padding", -1.0, detail);
    tracer.end_span();
  }
  tracer.set_enabled(false);

  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));
  TraceDumpResponse dump;
  RpcError refused = client.trace_dump(dump);
  EXPECT_EQ(refused.kind, RpcErrorKind::Application) << refused.describe();
  EXPECT_EQ(refused.app, RpcStatus::ServerError);
  EXPECT_EQ(refused.message.rfind("reply of ", 0), 0u) << refused.message;
  std::string cap_text = " bytes exceeds the ";
  cap_text += std::to_string(kDefaultMaxFrameBytes);
  cap_text += "-byte frame cap";
  ASSERT_GE(refused.message.size(), cap_text.size());
  EXPECT_EQ(refused.message.substr(refused.message.size() - cap_text.size()),
            cap_text);

  MetricsResponse metrics;
  RpcError served = client.get_metrics(metrics);
  EXPECT_TRUE(served.ok()) << served.describe();
  EXPECT_EQ(metrics.rpc_requests_failed, 1u);
  EXPECT_EQ(server.stats().accepted_connections, 1u);
  server.stop();
  testhelpers::reset_global_tracer();
}

// GetMetrics' deterministic CSV carries the newest kCsvReplanRows replans,
// so a long-lived server's reply stays under the frame cap; the summary
// still counts every replan.
TEST(RpcLoopback, MetricsCsvCarriesTheNewestReplans) {
  OnlineSchedulerOptions fleet = small_fleet();
  fleet.admission.every_k = 1;
  ServerOptions options = loopback_options();
  options.service.scheduler = fleet;
  WorkloadTrace trace = small_trace(23, 1100);
  OnlineScheduler reference(fleet);
  reference.run(trace);
  ASSERT_GT(reference.metrics().replans(), SchedulerMetrics::kCsvReplanRows);

  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse reply;
    RpcError rpc_error = client.submit_job(job, reply);
    ASSERT_TRUE(rpc_error.ok()) << rpc_error.describe();
  }
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());
  MetricsResponse metrics;
  RpcError rpc_error = client.get_metrics(metrics);
  ASSERT_TRUE(rpc_error.ok()) << rpc_error.describe();
  server.stop();

  EXPECT_EQ(metrics.replans, reference.metrics().replans());
  EXPECT_EQ(metrics.deterministic_csv,
            reference.metrics().render_deterministic_csv());
  // The replans table is the last CSV: its header, then one line per row.
  const std::string header = "time,admitted,migrations,";
  std::size_t at = metrics.deterministic_csv.rfind(header);
  ASSERT_NE(at, std::string::npos);
  std::string rows = metrics.deterministic_csv.substr(at);
  rows.erase(0, rows.find('\n') + 1);
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'),
            static_cast<std::ptrdiff_t>(SchedulerMetrics::kCsvReplanRows));
  // Those rows are the tail of the full table; the summary counts all.
  std::string full = reference.metrics().replans_table().render_csv();
  ASSERT_LT(rows.size(), full.size());
  EXPECT_EQ(full.substr(full.size() - rows.size()), rows);
  std::string summary_row = "replans,";
  summary_row += std::to_string(metrics.replans);
  EXPECT_NE(metrics.deterministic_csv.find(summary_row + "\n"),
            std::string::npos);
}

// ------------------------------------------------ one wire version

// Any version other than kProtocolVersion is refused with VersionMismatch
// — the oldest wire and the last one before the current alike — and the
// session survives the refusal.
TEST(ProtocolStrict, OldVersionsGetVersionMismatch) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  expect_old_versions_refused(server.port());
  server.stop();
}

// Every body decoder reads the full current layout or fails: a GetMetrics
// body cut where an older version's body used to end is rejected, not
// decoded with the missing fields zeroed.
TEST(ProtocolStrict, MetricsBodyCutAtAnOldBlockEndIsRejected) {
  MetricsResponse response;
  response.arrivals = 3;
  response.shard_id = 2;
  WireWriter w;
  encode(w, response);
  std::vector<std::uint8_t> bytes = w.take();
  ASSERT_EQ(bytes.size(), 256u);  // empty CSV, no shard entries
  {
    WireReader r(bytes);
    MetricsResponse got;
    ASSERT_TRUE(decode(r, got));
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(got.shard_id, 2);
  }
  // Where older bodies ended: after deterministic_csv, the A*/RPC block,
  // the queue-wait/tracer block, the latency-exemplar block and the
  // shard/fan-in block.
  for (std::size_t end : {92u, 164u, 196u, 212u, 252u}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + end);
    WireReader r(cut);
    MetricsResponse got;
    EXPECT_FALSE(decode(r, got)) << "cut at " << end;
  }
}

// Message type 8 (a retired server-push stream) lies inside the
// SubmitJob..GetAlerts range but names no request: a current-version peer
// sending it gets BadRequest instead of a cast to a missing enumerator, and
// the session survives to serve the next request.
TEST(ProtocolStrict, RetiredMessageTypeIsBadRequest) {
  EXPECT_TRUE(valid_message_type(7));
  EXPECT_FALSE(valid_message_type(8));
  EXPECT_TRUE(valid_message_type(9));

  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  NetStatus net = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                  Deadline::after(2.0), net);
  ASSERT_EQ(net, NetStatus::Ok);

  ResponseEnvelope refused = raw_exchange(
      raw, kProtocolVersion, static_cast<MessageType>(8), 81);
  EXPECT_EQ(refused.status, RpcStatus::BadRequest);
  EXPECT_EQ(refused.error, "malformed request envelope");
  EXPECT_TRUE(refused.body.empty());

  ResponseEnvelope served =
      raw_exchange(raw, kProtocolVersion, MessageType::GetMetrics, 82);
  EXPECT_EQ(served.status, RpcStatus::Ok) << served.error;
  EXPECT_EQ(served.request_id, 82u);
  WireReader r(served.body);
  MetricsResponse metrics;
  EXPECT_TRUE(decode(r, metrics) && r.complete());
  server.stop();
}

// The same for the SubmitJob ack: shard_id is part of the layout, not an
// optional tail.
TEST(ProtocolStrict, SubmitAckWithoutShardIdIsRejected) {
  SubmitJobResponse ack;
  ack.job_id = 4;
  ack.shard_id = 1;
  ack.status.procs.push_back({});
  WireWriter w;
  encode(w, ack);
  std::vector<std::uint8_t> bytes = w.take();
  {
    WireReader r(bytes);
    SubmitJobResponse got;
    ASSERT_TRUE(decode(r, got));
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(got.shard_id, 1);
  }
  bytes.resize(bytes.size() - 4);
  WireReader r(bytes);
  SubmitJobResponse got;
  EXPECT_FALSE(decode(r, got));
}

// A shard-deployed server carries its shard identity in both the SubmitJob
// ack and the GetMetrics shard block (fan-in list empty: a single server
// fronts no shards).
TEST(ShardWire, ShardIdentityInAckAndMetrics) {
  ServerOptions options = loopback_options();
  options.shard_id = 5;
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  TraceJob job;
  job.name = "shard-aware";
  job.work = 4.0;
  SubmitJobResponse ack;
  ASSERT_TRUE(client.submit_job(job, ack).ok());
  EXPECT_EQ(ack.shard_id, 5);

  MetricsResponse metrics;
  ASSERT_TRUE(client.get_metrics(metrics).ok());
  EXPECT_EQ(metrics.shard_id, 5);
  EXPECT_TRUE(metrics.shards.empty());
  EXPECT_EQ(metrics.router_spillovers, 0u);
  server.stop();
}

// Round-trip of the fan-in block itself, shard entries included — the
// encoder/decoder pair a router and its clients exercise.
TEST(ShardWire, MetricsFanInBlockRoundTrips) {
  MetricsResponse response;
  response.virtual_now = 12.5;
  response.arrivals = 30;
  response.completions = 28;
  response.shard_id = -1;
  response.command_queue_depth = 7;
  response.replan_p95_seconds = 0.25;
  response.router_spillovers = 3;
  response.router_remapped_keys = 2;
  ShardMetricsEntry a;
  a.shard_id = 0;
  a.requests = 18;
  a.arrivals = 18;
  a.completions = 17;
  a.replans = 9;
  a.virtual_now = 12.5;
  a.queue_depth = 4;
  a.replan_p95_seconds = 0.25;
  ShardMetricsEntry b;
  b.shard_id = 1;
  b.requests = 12;
  b.arrivals = 12;
  b.completions = 11;
  b.virtual_now = 11.0;
  response.shards = {a, b};

  WireWriter w;
  encode(w, response);
  WireReader r(w.bytes());
  MetricsResponse got;
  ASSERT_TRUE(decode(r, got));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(got.command_queue_depth, 7u);
  EXPECT_EQ(got.replan_p95_seconds, 0.25);
  EXPECT_EQ(got.router_spillovers, 3u);
  EXPECT_EQ(got.router_remapped_keys, 2u);
  ASSERT_EQ(got.shards.size(), 2u);
  EXPECT_EQ(got.shards[0].requests, 18u);
  EXPECT_EQ(got.shards[0].queue_depth, 4u);
  EXPECT_EQ(got.shards[1].shard_id, 1);
  EXPECT_EQ(got.shards[1].virtual_now, 11.0);

  // A truncated shard list (count promising more entries than bytes) is
  // rejected, not misread.
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 8);
  WireReader truncated(bytes);
  MetricsResponse bad;
  EXPECT_FALSE(decode(truncated, bad));
}

// Round-trip of the health block — per-shard liveness and the per-kind
// RPC failure counters a router answers with.
TEST(ShardWire, HealthBlockRoundTrips) {
  MetricsResponse response;
  response.virtual_now = 8.0;
  response.arrivals = 4;
  ShardHealthEntry a;
  a.shard_id = 0;
  a.up = true;
  ShardHealthEntry b;
  b.shard_id = 1;
  b.up = false;
  b.transport_errors = 7;
  b.protocol_errors = 1;
  b.application_errors = 2;
  response.shard_health = {a, b};

  WireWriter w;
  encode(w, response);
  WireReader r(w.bytes());
  MetricsResponse got;
  ASSERT_TRUE(decode(r, got));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(got.shard_health.size(), 2u);
  EXPECT_EQ(got.shard_health[0].shard_id, 0);
  EXPECT_TRUE(got.shard_health[0].up);
  EXPECT_EQ(got.shard_health[0].transport_errors, 0u);
  EXPECT_EQ(got.shard_health[1].shard_id, 1);
  EXPECT_FALSE(got.shard_health[1].up);
  EXPECT_EQ(got.shard_health[1].transport_errors, 7u);
  EXPECT_EQ(got.shard_health[1].protocol_errors, 1u);
  EXPECT_EQ(got.shard_health[1].application_errors, 2u);

  // A truncated health list is rejected, not misread.
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 4);
  WireReader truncated(bytes);
  MetricsResponse bad;
  EXPECT_FALSE(decode(truncated, bad));
}

// ------------------------------------------------ decision-journal wire

TEST(TimelineWire, JournalEventAndResponseRoundTrip) {
  JournalEvent event;
  event.job_id = 17;
  event.kind = JournalEventKind::Placement;
  event.time = 4.25;
  event.trace_id = 0xBEEF;
  event.seq = 9;
  event.policy = "solver";
  event.machine = 3;
  event.candidates = 6;
  event.degradation_delta = -0.5;
  event.co_runners = {2, 11};
  event.detail = "batch=4";

  WireWriter w;
  encode(w, event);
  WireReader r(w.bytes());
  JournalEvent got;
  got.co_runners = {99};  // decoder must reset, not append
  ASSERT_TRUE(decode(r, got));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(got.job_id, 17);
  EXPECT_EQ(got.kind, JournalEventKind::Placement);
  EXPECT_EQ(got.time, 4.25);
  EXPECT_EQ(got.trace_id, 0xBEEFu);
  EXPECT_EQ(got.seq, 9u);
  EXPECT_EQ(got.policy, "solver");
  EXPECT_EQ(got.machine, 3);
  EXPECT_EQ(got.candidates, 6);
  EXPECT_EQ(got.degradation_delta, -0.5);
  EXPECT_EQ(got.co_runners, (std::vector<std::int64_t>{2, 11}));
  EXPECT_EQ(got.detail, "batch=4");

  JobTimelineResponse reply;
  reply.job_id = 17;
  reply.found = true;
  reply.truncated = true;
  reply.virtual_now = 30.0;
  reply.events = {event, event};
  WireWriter rw;
  encode(rw, reply);
  WireReader rr(rw.bytes());
  JobTimelineResponse round;
  ASSERT_TRUE(decode(rr, round));
  EXPECT_EQ(rr.remaining(), 0u);
  EXPECT_EQ(round.job_id, 17);
  EXPECT_TRUE(round.truncated);
  EXPECT_EQ(round.virtual_now, 30.0);
  ASSERT_EQ(round.events.size(), 2u);
  EXPECT_EQ(round.events[1].policy, "solver");

  // A truncated body (event count promising more than the bytes hold) is
  // rejected, not misread.
  std::vector<std::uint8_t> bytes = rw.bytes();
  bytes.resize(bytes.size() - 6);
  WireReader truncated(bytes);
  JobTimelineResponse bad;
  EXPECT_FALSE(decode(truncated, bad));

  // An undecodable event kind is rejected too.
  JournalEventKind kind;
  EXPECT_FALSE(journal_event_kind_from(200, kind));
}

// The end-to-end explainability loop: a job submitted over TCP answers a
// timeline that starts at its admission, places it somewhere concrete, and
// stays internally ordered.
TEST(TimelineLoopback, SubmittedJobExplainsItself) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  WorkloadTrace trace = small_trace(7, 6);
  std::int64_t first_id = -1;
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    ASSERT_TRUE(client.submit_job(job, ack).ok());
    if (first_id < 0) first_id = ack.job_id;
  }
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());

  JobTimelineResponse reply;
  ASSERT_TRUE(client.query_job_timeline(first_id, reply).ok());
  EXPECT_EQ(reply.job_id, first_id);
  EXPECT_FALSE(reply.truncated);
  ASSERT_GE(reply.events.size(), 3u);  // admission, placement, completion
  EXPECT_EQ(reply.events.front().kind, JournalEventKind::Admission);
  bool placed = false, completed = false;
  for (std::size_t i = 0; i < reply.events.size(); ++i) {
    const JournalEvent& event = reply.events[i];
    EXPECT_EQ(event.job_id, first_id);
    if (i > 0) {
      EXPECT_GT(event.seq, reply.events[i - 1].seq);
      EXPECT_GE(event.time, reply.events[i - 1].time);
    }
    if (event.kind == JournalEventKind::Placement) {
      placed = true;
      EXPECT_GE(event.machine, 0);
      EXPECT_GT(event.candidates, 0);
      EXPECT_FALSE(event.policy.empty());  // the solver that placed it
    }
    if (event.kind == JournalEventKind::Completion) completed = true;
  }
  EXPECT_TRUE(placed);
  EXPECT_TRUE(completed);

  // Unknown job: an application error, not a mangled body.
  RpcError unknown = client.query_job_timeline(999, reply);
  EXPECT_EQ(unknown.kind, RpcErrorKind::Application);
  EXPECT_EQ(unknown.app, RpcStatus::UnknownJob);
  server.stop();
}

// Journal overflow over RPC: with a tiny ring the oldest job's early events
// are evicted, and QueryJobTimeline answers the well-formed truncated
// marker — status Ok, truncated flag set — never an error.
TEST(TimelineLoopback, OverflowAnswersTruncatedMarkerNotError) {
  ServerOptions options = loopback_options();
  options.service.scheduler.journal_capacity = 6;
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  WorkloadTrace trace = small_trace(11, 12);
  std::int64_t first_id = -1;
  for (const TraceJob& job : trace.jobs) {
    SubmitJobResponse ack;
    ASSERT_TRUE(client.submit_job(job, ack).ok());
    if (first_id < 0) first_id = ack.job_id;
  }
  DrainResponse drained;
  ASSERT_TRUE(client.drain(drained).ok());

  // 12 jobs × (admission + placement + completion) plus batch triggers in
  // a 6-slot ring: job 0's admission is long gone.
  JobTimelineResponse reply;
  RpcError rolled = client.query_job_timeline(first_id, reply);
  ASSERT_TRUE(rolled.ok()) << rolled.describe();
  EXPECT_TRUE(reply.truncated);
  for (const JournalEvent& event : reply.events)
    EXPECT_EQ(event.job_id, first_id);
  server.stop();
}

// ------------------------------------------------------ alert fan-in wire

TEST(AlertWire, AlertsResponseRoundTripsAndRejectsCorruption) {
  AlertsResponse reply;
  reply.engine_enabled = true;
  reply.firing = 1;
  AlertEntry fast;
  fast.shard_id = -1;
  fast.rule = "rpc_latency_burn_fast";
  fast.state = 2;     // firing
  fast.severity = 2;  // critical
  fast.value = 9.5;
  fast.threshold = 8.0;
  fast.since_seconds = 12.5;
  fast.detail = "fast=9.5 slow=8.2";
  AlertEntry quiet;
  quiet.shard_id = 3;
  quiet.rule = "deep_queue";
  quiet.state = 0;
  quiet.severity = 1;
  reply.alerts = {fast, quiet};

  WireWriter w;
  encode(w, reply);
  WireReader r(w.bytes());
  AlertsResponse got;
  got.alerts.push_back({});  // decoder must reset, not append
  ASSERT_TRUE(decode(r, got));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(got.engine_enabled);
  EXPECT_EQ(got.firing, 1u);
  ASSERT_EQ(got.alerts.size(), 2u);
  EXPECT_EQ(got.alerts[0].shard_id, -1);
  EXPECT_EQ(got.alerts[0].rule, "rpc_latency_burn_fast");
  EXPECT_EQ(got.alerts[0].state, 2);
  EXPECT_EQ(got.alerts[0].severity, 2);
  EXPECT_EQ(got.alerts[0].value, 9.5);
  EXPECT_EQ(got.alerts[0].threshold, 8.0);
  EXPECT_EQ(got.alerts[0].since_seconds, 12.5);
  EXPECT_EQ(got.alerts[0].detail, "fast=9.5 slow=8.2");
  EXPECT_EQ(got.alerts[1].shard_id, 3);
  EXPECT_EQ(got.alerts[1].rule, "deep_queue");

  // A truncated body is rejected, not misread.
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 4);
  WireReader truncated(bytes);
  EXPECT_FALSE(decode(truncated, got));

  // Out-of-range state / severity bytes are corruption, not extensions.
  AlertsResponse bad_state = reply;
  bad_state.alerts[0].state = 9;
  WireWriter ws;
  encode(ws, bad_state);
  WireReader rs(ws.bytes());
  EXPECT_FALSE(decode(rs, got));

  AlertsResponse bad_severity = reply;
  bad_severity.alerts[1].severity = 7;
  WireWriter wv;
  encode(wv, bad_severity);
  WireReader rv(wv.bytes());
  EXPECT_FALSE(decode(rv, got));
}

// GetAlerts takes no body: trailing bytes are a malformed request, answered
// BadRequest rather than ignored.
TEST(AlertWire, GetAlertsWithBodyIsBadRequest) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ResponseEnvelope trailing = raw_exchange(
      server.port(), kProtocolVersion, MessageType::GetAlerts, 82, {1});
  EXPECT_EQ(trailing.status, RpcStatus::BadRequest);
  server.stop();
}

// GetAlerts against a live server: the default watchdog rules answer with
// their states (idle server: everything inactive, nothing firing), and
// switching the engine off answers engine_enabled=false rather than an
// error — a fleet dashboard can always ask.
TEST(AlertLoopback, GetAlertsReportsRuleStates) {
  CoschedServer server(loopback_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  CoschedClient client(client_for(server));

  AlertsResponse reply;
  RpcError status = client.get_alerts(reply);
  ASSERT_TRUE(status.ok()) << status.describe();
  if (kAlertsDisabled) {
    EXPECT_FALSE(reply.engine_enabled);
    server.stop();
    return;
  }
  EXPECT_TRUE(reply.engine_enabled);
  EXPECT_EQ(reply.firing, 0u);
  ASSERT_EQ(reply.alerts.size(), 2u);  // the default burn-rate pair
  EXPECT_EQ(reply.alerts[0].rule, "rpc_latency_burn_fast");
  EXPECT_EQ(reply.alerts[1].rule, "rpc_latency_burn_slow");
  for (const AlertEntry& entry : reply.alerts) {
    EXPECT_EQ(entry.shard_id, -1);  // the answering instance itself
    EXPECT_EQ(entry.state, 0);      // inactive on an idle server
  }
  server.stop();

  ServerOptions off = loopback_options();
  off.enable_alerts = false;
  CoschedServer dark(off);
  ASSERT_TRUE(dark.start(error)) << error;
  CoschedClient dark_client(client_for(dark));
  AlertsResponse none;
  ASSERT_TRUE(dark_client.get_alerts(none).ok());
  EXPECT_FALSE(none.engine_enabled);
  EXPECT_TRUE(none.alerts.empty());
  dark.stop();
}

}  // namespace
}  // namespace cosched
