// Seeded mutations of the RPC wire: every prefix and 500 seeded byte-level
// variants of a valid encoded request and response of every MessageType.
// Each case is decoded the way its reader decodes it — requests as the
// servers' dispatch does, responses as CoschedClient does — and must come
// out as a value or as false, never terminate. A decoded TraceDump also
// goes through the router's merge helpers, which take remote shards' dumps
// as outside input.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "rpc/protocol.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::for_each_mutation;
using Bytes = std::vector<std::uint8_t>;

constexpr MessageType kEveryType[] = {
    MessageType::SubmitJob,
    MessageType::QueryJobStatus,
    MessageType::QueryScheduleSnapshot,
    MessageType::GetMetrics,
    MessageType::Drain,
    MessageType::Shutdown,
    MessageType::TraceDump,
    MessageType::QueryJobTimeline,
    MessageType::GetAlerts,
};

// ---- valid messages --------------------------------------------------------

/// The request body CoschedClient sends for `type`.
Bytes request_body(MessageType type) {
  WireWriter w;
  if (type == MessageType::SubmitJob) {
    TraceJob job;
    job.arrival_time = 2.5;
    job.name = "tenantA/lu.C.4";
    job.kind = JobKind::ParallelNoComm;
    job.processes = 4;
    job.work = 12.0;
    job.miss_rate = 0.4;
    job.sensitivity = 0.7;
    encode_trace_job(w, job);
  } else if (type == MessageType::QueryJobStatus ||
             type == MessageType::QueryJobTimeline) {
    w.i64(7);
  }
  return w.take();
}

JobStatusView running_job() {
  JobStatusView view;
  view.id = 7;
  view.name = "tenantA/lu.C.4";
  view.phase = JobPhase::Running;
  view.arrival_time = 2.5;
  view.admit_time = 3.0;
  view.work = 12.0;
  view.procs = {{14, 0, 0.25, 9.5}, {15, 1, 0.5, 9.0}};
  return view;
}

/// A TraceDump as a shard answers it: the text and Chrome JSON of two
/// correlated spans and a counter, in the exporters' exact shapes (fixed
/// timestamps, so every run mutates the same bytes).
TraceDumpResponse trace_dump() {
  TraceDumpResponse dump;
  dump.enabled = true;
  dump.event_count = 5;
  dump.text =
      "thread 0\n"
      "span rpc.request trace=81 [type=SubmitJob]\n"
      "  span online.replan @vt=4.000 trace=81\n"
      "    count astar.expansions = 12.000 trace=81\n";
  dump.chrome_json =
      "[{\"name\":\"rpc.request\",\"cat\":\"cosched\",\"ph\":\"X\","
      "\"ts\":1.000,\"pid\":1,\"tid\":0,\"dur\":9.000,\"args\":{"
      "\"trace_id\":81,\"detail\":\"type=SubmitJob\"}},\n"
      "{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":81,"
      "\"ts\":1.000,\"pid\":1,\"tid\":0},\n"
      "{\"name\":\"online.replan\",\"cat\":\"cosched\",\"ph\":\"X\","
      "\"ts\":2.000,\"pid\":1,\"tid\":0,\"dur\":5.000,\"args\":{"
      "\"virtual_time\":4.000,\"trace_id\":81}},\n"
      "{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":81,"
      "\"ts\":2.000,\"pid\":1,\"tid\":0,\"bp\":\"e\"},\n"
      "{\"name\":\"astar.expansions\",\"cat\":\"cosched\",\"ph\":\"C\","
      "\"ts\":3.000,\"pid\":1,\"tid\":0,\"args\":{\"value\":12.000}}]\n";
  return dump;
}

/// The response body a server answers `type` with.
Bytes response_body(MessageType type) {
  WireWriter w;
  switch (type) {
    case MessageType::SubmitJob: {
      SubmitJobResponse reply;
      reply.job_id = 7;
      reply.virtual_now = 3.0;
      reply.status = running_job();
      reply.shard_id = 1;
      encode(w, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      JobStatusResponse reply;
      reply.found = true;
      reply.virtual_now = 3.0;
      reply.status = running_job();
      encode(w, reply);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      ServiceSnapshot snapshot;
      snapshot.now = 3.0;
      snapshot.pending_jobs = 1;
      snapshot.free_slots = 2;
      snapshot.machines = {
          {{14, 7, 0.25}}, {}, {{15, 7, 0.5}, {16, 8, 0.1}}};
      encode(w, snapshot);
      break;
    }
    case MessageType::GetMetrics: {
      MetricsResponse reply;
      reply.virtual_now = 3.0;
      reply.arrivals = 9;
      reply.replans = 4;
      reply.deterministic_csv = "replan,time\n0,1.5\n";
      reply.shard_id = 0;
      reply.shards = {{0, 5, 5, 4, 2, 2, 1, 3.0, 0, 0.01},
                      {1, 4, 4, 4, 1, 2, 0, 2.0, 1, 0.02}};
      reply.shard_health = {{0, true, 0, 0, 0}, {1, false, 3, 1, 0}};
      encode(w, reply);
      break;
    }
    case MessageType::Drain:
      encode(w, DrainResponse{9, 40.0});
      break;
    case MessageType::Shutdown:
      w.real(40.0);
      break;
    case MessageType::TraceDump:
      encode(w, trace_dump());
      break;
    case MessageType::QueryJobTimeline: {
      JournalEvent placed;
      placed.job_id = 7;
      placed.kind = JournalEventKind::Placement;
      placed.time = 3.0;
      placed.trace_id = 81;
      placed.seq = 2;
      placed.policy = "repair";
      placed.machine = 1;
      placed.candidates = 3;
      placed.degradation_delta = -0.25;
      placed.co_runners = {8};
      placed.detail = "batch=2";
      JobTimelineResponse reply;
      reply.job_id = 7;
      reply.found = true;
      reply.virtual_now = 3.0;
      reply.events = {placed, placed};
      reply.events[0].kind = JournalEventKind::Admission;
      reply.events[0].co_runners.clear();
      encode(w, reply);
      break;
    }
    case MessageType::GetAlerts: {
      AlertsResponse reply;
      reply.engine_enabled = true;
      reply.firing = 1;
      reply.alerts = {
          {-1, "latency_burn", 2, 2, 14.5, 4.0, 3.0, "fast=14.5"},
          {0, "latency_burn", 0, 2, 0.0, 4.0, 60.0, ""}};
      encode(w, reply);
      break;
    }
  }
  return w.take();
}

// ---- decoding as the readers do --------------------------------------------

void expect_valid_status(const JobStatusView& view) {
  EXPECT_LE(static_cast<int>(view.phase),
            static_cast<int>(JobPhase::Finished));
}

/// The servers' dispatch: the envelope, then (at the current version) the
/// body its type expects, with nothing left over.
bool decode_whole_request(const Bytes& bytes) {
  RequestEnvelope request;
  if (!decode_request(bytes, request)) return false;
  if (request.version != kProtocolVersion) return false;  // VersionMismatch
  WireReader r(request.body);
  if (request.type == MessageType::SubmitJob) {
    TraceJob job;
    if (!decode(r, job)) return false;
    EXPECT_LE(static_cast<int>(job.kind),
              static_cast<int>(JobKind::Imaginary));
  } else if (request.type == MessageType::QueryJobStatus ||
             request.type == MessageType::QueryJobTimeline) {
    r.i64();
  }
  return r.complete();
}

/// CoschedClient: the envelope, then (for an Ok answer at the current
/// version) the body of the response's type. A decoded TraceDump is merged
/// the way the router merges a remote shard's dump.
bool decode_whole_response(const Bytes& bytes) {
  ResponseEnvelope response;
  if (!decode_response(bytes, response)) return false;
  if (response.version != kProtocolVersion) return false;
  if (response.status != RpcStatus::Ok) return true;  // an application error
  WireReader r(response.body);
  switch (response.type) {
    case MessageType::SubmitJob: {
      SubmitJobResponse reply;
      if (!decode(r, reply)) return false;
      expect_valid_status(reply.status);
      break;
    }
    case MessageType::QueryJobStatus: {
      JobStatusResponse reply;
      if (!decode(r, reply)) return false;
      expect_valid_status(reply.status);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      ServiceSnapshot snapshot;
      if (!decode(r, snapshot)) return false;
      break;
    }
    case MessageType::GetMetrics: {
      MetricsResponse reply;
      if (!decode(r, reply)) return false;
      break;
    }
    case MessageType::Drain: {
      DrainResponse reply;
      if (!decode(r, reply)) return false;
      break;
    }
    case MessageType::Shutdown:
      r.real();
      break;
    case MessageType::TraceDump: {
      TraceDumpResponse dump;
      if (!decode(r, dump)) return false;
      std::string text = namespace_trace_text(dump.text, "shard0/");
      EXPECT_GE(text.size(), dump.text.size());
      std::string merged = merge_chrome_traces(
          {dump.chrome_json, namespace_chrome_trace(dump.chrome_json, 2,
                                                    "shard0/")});
      EXPECT_EQ(merged.front(), '[');
      EXPECT_EQ(merged.substr(merged.size() - 2), "]\n");
      break;
    }
    case MessageType::QueryJobTimeline: {
      JobTimelineResponse reply;
      if (!decode(r, reply)) return false;
      for (const JournalEvent& event : reply.events)
        EXPECT_LT(static_cast<std::size_t>(event.kind), kJournalEventKinds);
      break;
    }
    case MessageType::GetAlerts: {
      AlertsResponse reply;
      if (!decode(r, reply)) return false;
      break;
    }
  }
  return r.complete();
}

// ---- the mutation runs ------------------------------------------------------

TEST(ProtocolMutation, EveryRequestType) {
  std::uint64_t seed = 0x9e0100;
  for (MessageType type : kEveryType) {
    SCOPED_TRACE(to_string(type));
    RequestEnvelope request;
    request.type = type;
    request.request_id = 41;
    request.trace_id = 81;
    request.body = request_body(type);
    Bytes bytes = encode_request(request);
    ASSERT_TRUE(decode_whole_request(bytes));
    for_each_mutation(bytes, ++seed, decode_whole_request);
  }
}

TEST(ProtocolMutation, EveryResponseType) {
  std::uint64_t seed = 0x9e0200;
  for (MessageType type : kEveryType) {
    SCOPED_TRACE(to_string(type));
    ResponseEnvelope response;
    response.type = type;
    response.request_id = 41;
    response.trace_id = 81;
    response.body = response_body(type);
    Bytes bytes = encode_response(response);
    ASSERT_TRUE(decode_whole_response(bytes));
    for_each_mutation(bytes, ++seed, decode_whole_response);
  }
}

// The error path: a non-Ok answer carries a message and an empty body.
TEST(ProtocolMutation, ErrorResponse) {
  ResponseEnvelope response;
  response.type = MessageType::SubmitJob;
  response.request_id = 41;
  response.status = RpcStatus::InvalidJob;
  response.error = "job size or field out of the model's domain";
  Bytes bytes = encode_response(response);
  ASSERT_TRUE(decode_whole_response(bytes));
  for_each_mutation(bytes, 0x9e0300, decode_whole_response);
}

}  // namespace
}  // namespace cosched
