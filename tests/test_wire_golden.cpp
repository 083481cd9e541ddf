// Golden bytes of every wire layout: one fully populated instance of each
// envelope and body type, encoded and compared with the exact length and
// FNV-1a 64 digest of the bytes the codec produced when these layouts were
// pinned. A round trip passes when encoder and decoder change together;
// this test fails on any change to a field's order, width or presence.
// Every field carries a distinct nonzero value, so a swap of two fields of
// the same width changes the digest too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rpc/protocol.hpp"

namespace cosched {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::uint64_t fnv1a64(const Bytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(const Bytes& bytes) {
  std::string out;
  char digits[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof digits, "%02x", b);
    out += digits;
  }
  return out;
}

TraceJob trace_job() {
  TraceJob job;
  job.arrival_time = 2.5;
  job.name = "tenantA/lu.C.4";
  job.kind = JobKind::ParallelComm;
  job.processes = 4;
  job.work = 12.25;
  job.miss_rate = 0.375;
  job.sensitivity = 0.625;
  return job;
}

JobStatusView job_status_view() {
  JobStatusView view;
  view.id = 7;
  view.name = "tenantA/lu.C.4";
  view.phase = JobPhase::Running;
  view.arrival_time = 2.5;
  view.admit_time = 3.0;
  view.finish_time = 41.75;
  view.work = 12.25;
  view.procs = {{14, 2, 0.25, 9.5}, {15, 3, 0.5, 9.0}};
  return view;
}

ServiceSnapshot service_snapshot() {
  ServiceSnapshot snapshot;
  snapshot.now = 3.5;
  snapshot.pending_jobs = 6;
  snapshot.free_slots = 5;
  snapshot.completions = 11;
  snapshot.live_degradation_sum = 1.125;
  snapshot.mean_live_degradation = 0.28125;
  snapshot.machines = {{{14, 7, 0.25}}, {{15, 7, 0.5}, {16, 8, 0.125}}};
  return snapshot;
}

SubmitJobResponse submit_response() {
  SubmitJobResponse reply;
  reply.job_id = 7;
  reply.virtual_now = 3.25;
  reply.status = job_status_view();
  reply.shard_id = 2;
  return reply;
}

JobStatusResponse status_response() {
  JobStatusResponse reply;
  reply.found = true;
  reply.virtual_now = 3.75;
  reply.status = job_status_view();
  return reply;
}

MetricsResponse metrics_response() {
  MetricsResponse reply;
  reply.virtual_now = 101.5;
  reply.arrivals = 2;
  reply.admissions = 3;
  reply.completions = 4;
  reply.replans = 5;
  reply.migrations = 6;
  reply.running_mean_degradation = 0.4375;
  reply.cache.hits = 7;
  reply.cache.misses = 8;
  reply.cache.entries = 9;
  reply.cache.evictions = 10;
  reply.cache.compactions = 11;
  reply.deterministic_csv = "metric,value\narrivals,2\n";
  reply.astar_searches = 12;
  reply.astar_expansions = 13;
  reply.astar_heuristic_evals = 14;
  reply.rpc_requests_ok = 15;
  reply.rpc_requests_failed = 16;
  reply.rpc_request_count = 17;
  reply.rpc_request_seconds_sum = 0.5;
  reply.rpc_request_seconds_p99 = 0.0625;
  reply.queue_wait_count = 18;
  reply.queue_wait_seconds_sum = 19.5;
  reply.queue_wait_seconds_p99 = 4.25;
  reply.tracer_dropped_events = 20;
  reply.latency_exemplar_trace_id = 0x1234567890abcdefull;
  reply.latency_exemplar_seconds = 0.03125;
  reply.shard_id = 1;
  reply.command_queue_depth = 21;
  reply.replan_p95_seconds = 0.015625;
  reply.router_spillovers = 22;
  reply.router_remapped_keys = 23;
  reply.shards = {{0, 31, 32, 33, 34, 35, 36, 37.5, 38, 0.75},
                  {1, 41, 42, 43, 44, 45, 46, 47.5, 48, 0.875}};
  reply.shard_health = {{0, true, 51, 52, 53}, {1, false, 54, 55, 56}};
  return reply;
}

TraceDumpResponse trace_dump_response() {
  TraceDumpResponse dump;
  dump.enabled = true;
  dump.event_count = 3;
  dump.text = "thread 0\nspan rpc.request trace=81\n";
  dump.chrome_json = "[{\"name\":\"rpc.request\",\"ph\":\"X\"}]\n";
  return dump;
}

JournalEvent journal_event() {
  JournalEvent event;
  event.job_id = 7;
  event.kind = JournalEventKind::Migration;
  event.time = 6.5;
  event.trace_id = 81;
  event.seq = 9;
  event.policy = "repair";
  event.machine = 3;
  event.candidates = 4;
  event.degradation_delta = -0.25;
  event.co_runners = {8, 12};
  event.detail = "batch=2";
  return event;
}

JobTimelineResponse timeline_response() {
  JobTimelineResponse reply;
  reply.job_id = 7;
  reply.found = true;
  reply.truncated = true;
  reply.virtual_now = 8.5;
  reply.events = {journal_event(), journal_event()};
  reply.events[0].kind = JournalEventKind::Placement;
  reply.events[0].seq = 4;
  reply.events[0].co_runners = {5};
  return reply;
}

AlertsResponse alerts_response() {
  AlertsResponse reply;
  reply.engine_enabled = true;
  reply.firing = 1;
  reply.alerts = {
      {-1, "latency_burn", 2, 2, 14.5, 4.0, 3.0, "fast=14.5"},
      {1, "queue_depth", 1, 1, 6.0, 5.0, 60.25, "depth=6"}};
  return reply;
}

template <class M>
Bytes bytes_of(const M& message) {
  WireWriter w;
  encode(w, message);
  return w.take();
}

/// The body each request type carries.
Bytes request_body(MessageType type) {
  if (type == MessageType::SubmitJob) return bytes_of(trace_job());
  WireWriter w;
  if (type == MessageType::QueryJobStatus ||
      type == MessageType::QueryJobTimeline)
    w.i64(7);
  return w.take();
}

/// The body each response type carries on an Ok answer.
Bytes response_body(MessageType type) {
  switch (type) {
    case MessageType::SubmitJob: return bytes_of(submit_response());
    case MessageType::QueryJobStatus: return bytes_of(status_response());
    case MessageType::QueryScheduleSnapshot:
      return bytes_of(service_snapshot());
    case MessageType::GetMetrics: return bytes_of(metrics_response());
    case MessageType::Drain: return bytes_of(DrainResponse{9, 40.5});
    case MessageType::Shutdown: return bytes_of(ShutdownResponse{42.5});
    case MessageType::TraceDump: return bytes_of(trace_dump_response());
    case MessageType::QueryJobTimeline: return bytes_of(timeline_response());
    case MessageType::GetAlerts: return bytes_of(alerts_response());
  }
  return {};
}

struct Golden {
  const char* name;
  std::size_t size;
  std::uint64_t fnv;
};

TEST(WireGolden, EveryMessageLayout) {
  constexpr MessageType kEveryType[] = {
      MessageType::SubmitJob,  MessageType::QueryJobStatus,
      MessageType::QueryScheduleSnapshot,
      MessageType::GetMetrics, MessageType::Drain,
      MessageType::Shutdown,   MessageType::TraceDump,
      MessageType::QueryJobTimeline, MessageType::GetAlerts,
  };
  std::vector<std::pair<std::string, Bytes>> cases = {
      {"TraceJob", bytes_of(trace_job())},
      {"JobStatusView", bytes_of(job_status_view())},
      {"ServiceSnapshot", bytes_of(service_snapshot())},
      {"SubmitJobResponse", bytes_of(submit_response())},
      {"JobStatusResponse", bytes_of(status_response())},
      {"MetricsResponse", bytes_of(metrics_response())},
      {"TraceDumpResponse", bytes_of(trace_dump_response())},
      {"DrainResponse", bytes_of(DrainResponse{9, 40.5})},
      {"ShutdownResponse", bytes_of(ShutdownResponse{42.5})},
      {"JournalEvent", bytes_of(journal_event())},
      {"JobTimelineResponse", bytes_of(timeline_response())},
      {"AlertsResponse", bytes_of(alerts_response())},
  };
  std::uint64_t id = 100;
  for (MessageType type : kEveryType) {
    RequestEnvelope request;
    request.type = type;
    request.request_id = ++id;
    request.trace_id = 0x8100000000000000ull + id;
    request.body = request_body(type);
    cases.emplace_back(std::string("request ") + to_string(type),
                       encode_request(request));
    ResponseEnvelope response;
    response.type = type;
    response.request_id = ++id;
    response.trace_id = 0x8200000000000000ull + id;
    response.body = response_body(type);
    cases.emplace_back(std::string("response ") + to_string(type),
                       encode_response(response));
  }
  ResponseEnvelope failure;
  failure.type = MessageType::SubmitJob;
  failure.request_id = 77;
  failure.trace_id = 78;
  failure.status = RpcStatus::InvalidJob;
  failure.error = "job size or field out of the model's domain";
  cases.emplace_back("response error", encode_response(failure));

  const Golden kGolden[] = {
      {"TraceJob", 55, 0x5027aabaf5521925ull},
      {"JobStatusView", 119, 0x38f230103138f406ull},
      {"ServiceSnapshot", 128, 0x066313024be8e3beull},
      {"SubmitJobResponse", 139, 0xcca8cf121ed0dac9ull},
      {"JobStatusResponse", 128, 0xf8af1057afcf4a93ull},
      {"MetricsResponse", 490, 0x85f44d3fe503c95dull},
      {"TraceDumpResponse", 86, 0x8902c69f9a2aab18ull},
      {"DrainResponse", 16, 0x68761f3ade42843eull},
      {"ShutdownResponse", 8, 0xbbe3269a434ccc3eull},
      {"JournalEvent", 90, 0x794b8e216dc4f63bull},
      {"JobTimelineResponse", 194, 0x88c43dabc6c0505eull},
      {"AlertsResponse", 128, 0xac160dec69225c90ull},
      {"request SubmitJob", 74, 0x00d8cf24400cc7faull},
      {"response SubmitJob", 163, 0x6a13544c06844c4dull},
      {"request QueryJobStatus", 27, 0x4d4ef381ecf780e4ull},
      {"response QueryJobStatus", 152, 0x72674d5bed1386d4ull},
      {"request QueryScheduleSnapshot", 19, 0x0ed1bf605f69601eull},
      {"response QueryScheduleSnapshot", 152, 0x705dcd209f087458ull},
      {"request GetMetrics", 19, 0x807aadc343057ddbull},
      {"response GetMetrics", 514, 0x5f477247343842d8ull},
      {"request Drain", 19, 0x5497a37bf83fb038ull},
      {"response Drain", 40, 0xd6eca8962cd10eaeull},
      {"request Shutdown", 19, 0x97f6dc9cb6d0280dull},
      {"response Shutdown", 32, 0x89b1a3afced29d19ull},
      {"request TraceDump", 19, 0xe581822eb7a1f81aull},
      {"response TraceDump", 110, 0xfbb94779e62d99b2ull},
      {"request QueryJobTimeline", 27, 0x2f7c52f7b6f8efc5ull},
      {"response QueryJobTimeline", 218, 0xb948ddfa8e925b8aull},
      {"request GetAlerts", 19, 0xe85dd4919b60ccd5ull},
      {"response GetAlerts", 152, 0xfe93fa3c171cf4b7ull},
      {"response error", 67, 0xb7aba0a8e0836f19ull},
  };
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, bytes] = cases[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, kGolden[i].name);
    EXPECT_EQ(bytes.size(), kGolden[i].size);
    EXPECT_EQ(fnv1a64(bytes), kGolden[i].fnv) << hex(bytes);
  }
}

}  // namespace
}  // namespace cosched
