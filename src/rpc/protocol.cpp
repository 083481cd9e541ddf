#include "rpc/protocol.hpp"

namespace cosched {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::SubmitJob: return "SubmitJob";
    case MessageType::QueryJobStatus: return "QueryJobStatus";
    case MessageType::QueryScheduleSnapshot: return "QueryScheduleSnapshot";
    case MessageType::GetMetrics: return "GetMetrics";
    case MessageType::Drain: return "Drain";
    case MessageType::Shutdown: return "Shutdown";
    case MessageType::TraceDump: return "TraceDump";
    case MessageType::QueryJobTimeline: return "QueryJobTimeline";
    case MessageType::GetAlerts: return "GetAlerts";
  }
  return "?";
}

bool valid_message_type(std::uint8_t raw) {
  constexpr std::uint8_t kRetired = 8;  // the deleted telemetry stream
  return raw >= static_cast<std::uint8_t>(MessageType::SubmitJob) &&
         raw <= static_cast<std::uint8_t>(MessageType::GetAlerts) &&
         raw != kRetired;
}

const char* to_string(RpcStatus status) {
  switch (status) {
    case RpcStatus::Ok: return "ok";
    case RpcStatus::VersionMismatch: return "version mismatch";
    case RpcStatus::BadRequest: return "bad request";
    case RpcStatus::Draining: return "draining";
    case RpcStatus::InvalidJob: return "invalid job";
    case RpcStatus::UnknownJob: return "unknown job";
    case RpcStatus::DeadlineExpired: return "deadline expired";
    case RpcStatus::ServerError: return "server error";
  }
  return "?";
}

std::vector<std::uint8_t> encode_request(const RequestEnvelope& request) {
  WireWriter w;
  w.u16(request.version);
  w.u8(static_cast<std::uint8_t>(request.type));
  w.u64(request.request_id);
  w.u64(request.trace_id);
  w.bytes_raw(request.body);
  return w.take();
}

bool decode_request(const std::vector<std::uint8_t>& bytes,
                    RequestEnvelope& request) {
  WireReader r(bytes);
  request.version = r.u16();
  std::uint8_t raw_type = r.u8();
  request.request_id = r.u64();
  // Past the request_id only the current layout is known: a request of any
  // other version keeps the rest as its body, so the server can answer
  // VersionMismatch instead of BadRequest.
  request.trace_id = request.version == kProtocolVersion ? r.u64() : 0;
  if (!r.ok() || !valid_message_type(raw_type)) return false;
  request.type = static_cast<MessageType>(raw_type);
  request.body.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                          bytes.size() - r.remaining()),
                      bytes.end());
  return true;
}

std::vector<std::uint8_t> encode_response(const ResponseEnvelope& response) {
  WireWriter w;
  w.u16(response.version);
  w.u8(static_cast<std::uint8_t>(response.type));
  w.u64(response.request_id);
  w.u64(response.trace_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.str(response.error);
  w.bytes_raw(response.body);
  return w.take();
}

bool decode_response(const std::vector<std::uint8_t>& bytes,
                     ResponseEnvelope& response) {
  WireReader r(bytes);
  response.version = r.u16();
  std::uint8_t raw_type = r.u8();
  response.request_id = r.u64();
  response.trace_id = response.version == kProtocolVersion ? r.u64() : 0;
  std::uint8_t raw_status = r.u8();
  response.error = r.str();
  if (!r.ok() || !valid_message_type(raw_type) ||
      raw_status > static_cast<std::uint8_t>(RpcStatus::ServerError))
    return false;
  response.type = static_cast<MessageType>(raw_type);
  response.status = static_cast<RpcStatus>(raw_status);
  response.body.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                           bytes.size() - r.remaining()),
                       bytes.end());
  return true;
}

// ---- message bodies ------------------------------------------------------

void encode_trace_job(WireWriter& w, const TraceJob& job) {
  w.real(job.arrival_time);
  w.str(job.name);
  w.u8(static_cast<std::uint8_t>(job.kind));
  w.i32(job.processes);
  w.real(job.work);
  w.real(job.miss_rate);
  w.real(job.sensitivity);
}

bool decode_trace_job(WireReader& r, TraceJob& job) {
  job.arrival_time = r.real();
  job.name = r.str();
  std::uint8_t kind = r.u8();
  job.processes = r.i32();
  job.work = r.real();
  job.miss_rate = r.real();
  job.sensitivity = r.real();
  if (!r.ok() || kind > static_cast<std::uint8_t>(JobKind::Imaginary))
    return false;
  job.kind = static_cast<JobKind>(kind);
  return true;
}

void encode_job_status_view(WireWriter& w, const JobStatusView& view) {
  w.i64(view.id);
  w.str(view.name);
  w.u8(static_cast<std::uint8_t>(view.phase));
  w.real(view.arrival_time);
  w.real(view.admit_time);
  w.real(view.finish_time);
  w.real(view.work);
  w.u32(static_cast<std::uint32_t>(view.procs.size()));
  for (const JobProcView& proc : view.procs) {
    w.i64(proc.gid);
    w.i32(proc.machine);
    w.real(proc.degradation);
    w.real(proc.remaining_work);
  }
}

bool decode_job_status_view(WireReader& r, JobStatusView& view) {
  view.id = r.i64();
  view.name = r.str();
  std::uint8_t phase = r.u8();
  view.arrival_time = r.real();
  view.admit_time = r.real();
  view.finish_time = r.real();
  view.work = r.real();
  std::uint32_t n = r.u32();
  if (!r.ok() || phase > static_cast<std::uint8_t>(JobPhase::Finished) ||
      n > r.remaining())
    return false;
  view.phase = static_cast<JobPhase>(phase);
  view.procs.clear();
  view.procs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    JobProcView proc;
    proc.gid = r.i64();
    proc.machine = r.i32();
    proc.degradation = r.real();
    proc.remaining_work = r.real();
    view.procs.push_back(proc);
  }
  return r.ok();
}

void encode_service_snapshot(WireWriter& w, const ServiceSnapshot& snapshot) {
  w.real(snapshot.now);
  w.i64(snapshot.pending_jobs);
  w.i32(snapshot.free_slots);
  w.u64(snapshot.completions);
  w.real(snapshot.live_degradation_sum);
  w.real(snapshot.mean_live_degradation);
  w.u32(static_cast<std::uint32_t>(snapshot.machines.size()));
  for (const auto& machine : snapshot.machines) {
    w.u32(static_cast<std::uint32_t>(machine.size()));
    for (const ServiceSnapshot::Proc& proc : machine) {
      w.i64(proc.gid);
      w.i64(proc.job);
      w.real(proc.degradation);
    }
  }
}

bool decode_service_snapshot(WireReader& r, ServiceSnapshot& snapshot) {
  snapshot.now = r.real();
  snapshot.pending_jobs = r.i64();
  snapshot.free_slots = r.i32();
  snapshot.completions = r.u64();
  snapshot.live_degradation_sum = r.real();
  snapshot.mean_live_degradation = r.real();
  std::uint32_t machines = r.u32();
  if (!r.ok() || machines > r.remaining()) return false;
  snapshot.machines.clear();
  snapshot.machines.resize(machines);
  for (std::uint32_t m = 0; m < machines; ++m) {
    std::uint32_t procs = r.u32();
    if (!r.ok() || procs > r.remaining()) return false;
    snapshot.machines[m].reserve(procs);
    for (std::uint32_t i = 0; i < procs; ++i) {
      ServiceSnapshot::Proc proc;
      proc.gid = r.i64();
      proc.job = r.i64();
      proc.degradation = r.real();
      snapshot.machines[m].push_back(proc);
    }
  }
  return r.ok();
}

void encode_submit_response(WireWriter& w, const SubmitJobResponse& response) {
  w.i64(response.job_id);
  w.real(response.virtual_now);
  encode_job_status_view(w, response.status);
  w.i32(response.shard_id);
}

bool decode_submit_response(WireReader& r, SubmitJobResponse& response) {
  response.job_id = r.i64();
  response.virtual_now = r.real();
  if (!decode_job_status_view(r, response.status)) return false;
  response.shard_id = r.i32();
  return r.ok();
}

void encode_status_response(WireWriter& w, const JobStatusResponse& response) {
  w.boolean(response.found);
  w.real(response.virtual_now);
  encode_job_status_view(w, response.status);
}

bool decode_status_response(WireReader& r, JobStatusResponse& response) {
  response.found = r.boolean();
  response.virtual_now = r.real();
  return decode_job_status_view(r, response.status);
}

void encode_metrics_response(WireWriter& w, const MetricsResponse& response) {
  w.real(response.virtual_now);
  w.u64(response.arrivals);
  w.u64(response.admissions);
  w.u64(response.completions);
  w.u64(response.replans);
  w.u64(response.migrations);
  w.real(response.running_mean_degradation);
  w.u64(response.cache.hits);
  w.u64(response.cache.misses);
  w.u64(response.cache.entries);
  w.u64(response.cache.evictions);
  w.str(response.deterministic_csv);
  w.u64(response.cache.compactions);
  w.u64(response.astar_searches);
  w.u64(response.astar_expansions);
  w.u64(response.astar_heuristic_evals);
  w.u64(response.rpc_requests_ok);
  w.u64(response.rpc_requests_failed);
  w.u64(response.rpc_request_count);
  w.real(response.rpc_request_seconds_sum);
  w.real(response.rpc_request_seconds_p99);
  w.u64(response.queue_wait_count);
  w.real(response.queue_wait_seconds_sum);
  w.real(response.queue_wait_seconds_p99);
  w.u64(response.tracer_dropped_events);
  w.u64(response.latency_exemplar_trace_id);
  w.real(response.latency_exemplar_seconds);
  w.i32(response.shard_id);
  w.u64(response.command_queue_depth);
  w.real(response.replan_p95_seconds);
  w.u64(response.router_spillovers);
  w.u64(response.router_remapped_keys);
  w.u32(static_cast<std::uint32_t>(response.shards.size()));
  for (const ShardMetricsEntry& shard : response.shards) {
    w.i32(shard.shard_id);
    w.u64(shard.requests);
    w.u64(shard.arrivals);
    w.u64(shard.admissions);
    w.u64(shard.completions);
    w.u64(shard.replans);
    w.u64(shard.migrations);
    w.real(shard.virtual_now);
    w.u64(shard.queue_depth);
    w.real(shard.replan_p95_seconds);
  }
  w.u32(static_cast<std::uint32_t>(response.shard_health.size()));
  for (const ShardHealthEntry& health : response.shard_health) {
    w.i32(health.shard_id);
    w.boolean(health.up);
    w.u64(health.transport_errors);
    w.u64(health.protocol_errors);
    w.u64(health.application_errors);
  }
}

bool decode_metrics_response(WireReader& r, MetricsResponse& response) {
  response.virtual_now = r.real();
  response.arrivals = r.u64();
  response.admissions = r.u64();
  response.completions = r.u64();
  response.replans = r.u64();
  response.migrations = r.u64();
  response.running_mean_degradation = r.real();
  response.cache.hits = r.u64();
  response.cache.misses = r.u64();
  response.cache.entries = r.u64();
  response.cache.evictions = r.u64();
  response.deterministic_csv = r.str();
  response.cache.compactions = r.u64();
  response.astar_searches = r.u64();
  response.astar_expansions = r.u64();
  response.astar_heuristic_evals = r.u64();
  response.rpc_requests_ok = r.u64();
  response.rpc_requests_failed = r.u64();
  response.rpc_request_count = r.u64();
  response.rpc_request_seconds_sum = r.real();
  response.rpc_request_seconds_p99 = r.real();
  response.queue_wait_count = r.u64();
  response.queue_wait_seconds_sum = r.real();
  response.queue_wait_seconds_p99 = r.real();
  response.tracer_dropped_events = r.u64();
  response.latency_exemplar_trace_id = r.u64();
  response.latency_exemplar_seconds = r.real();
  response.shard_id = r.i32();
  response.command_queue_depth = r.u64();
  response.replan_p95_seconds = r.real();
  response.router_spillovers = r.u64();
  response.router_remapped_keys = r.u64();
  std::uint32_t shard_count = r.u32();
  if (!r.ok() || shard_count > r.remaining()) return false;
  response.shards.clear();
  response.shards.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardMetricsEntry shard;
    shard.shard_id = r.i32();
    shard.requests = r.u64();
    shard.arrivals = r.u64();
    shard.admissions = r.u64();
    shard.completions = r.u64();
    shard.replans = r.u64();
    shard.migrations = r.u64();
    shard.virtual_now = r.real();
    shard.queue_depth = r.u64();
    shard.replan_p95_seconds = r.real();
    response.shards.push_back(shard);
  }
  std::uint32_t health_count = r.u32();
  if (!r.ok() || health_count > r.remaining()) return false;
  response.shard_health.clear();
  response.shard_health.reserve(health_count);
  for (std::uint32_t i = 0; i < health_count; ++i) {
    ShardHealthEntry health;
    health.shard_id = r.i32();
    health.up = r.boolean();
    health.transport_errors = r.u64();
    health.protocol_errors = r.u64();
    health.application_errors = r.u64();
    response.shard_health.push_back(health);
  }
  return r.ok();
}

void encode_trace_dump_response(WireWriter& w,
                                const TraceDumpResponse& response) {
  w.boolean(response.enabled);
  w.u64(response.event_count);
  w.str(response.text);
  w.str(response.chrome_json);
}

bool decode_trace_dump_response(WireReader& r, TraceDumpResponse& response) {
  response.enabled = r.boolean();
  response.event_count = r.u64();
  response.text = r.str();
  response.chrome_json = r.str();
  return r.ok();
}

void encode_drain_response(WireWriter& w, const DrainResponse& response) {
  w.u64(response.completions);
  w.real(response.virtual_now);
}

bool decode_drain_response(WireReader& r, DrainResponse& response) {
  response.completions = r.u64();
  response.virtual_now = r.real();
  return r.ok();
}

// ---- decision-journal timeline -------------------------------------------

void encode_journal_event(WireWriter& w, const JournalEvent& event) {
  w.i64(event.job_id);
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.real(event.time);
  w.u64(event.trace_id);
  w.u64(event.seq);
  w.str(event.policy);
  w.i32(event.machine);
  w.i32(event.candidates);
  w.real(event.degradation_delta);
  w.u32(static_cast<std::uint32_t>(event.co_runners.size()));
  for (std::int64_t co : event.co_runners) w.i64(co);
  w.str(event.detail);
}

bool decode_journal_event(WireReader& r, JournalEvent& event) {
  event.job_id = r.i64();
  std::uint8_t raw_kind = r.u8();
  event.time = r.real();
  event.trace_id = r.u64();
  event.seq = r.u64();
  event.policy = r.str();
  event.machine = r.i32();
  event.candidates = r.i32();
  event.degradation_delta = r.real();
  std::uint32_t co_count = r.u32();
  if (!r.ok() || !journal_event_kind_from(raw_kind, event.kind) ||
      co_count > r.remaining())
    return false;
  event.co_runners.clear();
  event.co_runners.reserve(co_count);
  for (std::uint32_t i = 0; i < co_count; ++i)
    event.co_runners.push_back(r.i64());
  event.detail = r.str();
  return r.ok();
}

void encode_timeline_response(WireWriter& w,
                              const JobTimelineResponse& response) {
  w.i64(response.job_id);
  w.boolean(response.found);
  w.boolean(response.truncated);
  w.real(response.virtual_now);
  w.u32(static_cast<std::uint32_t>(response.events.size()));
  for (const JournalEvent& event : response.events)
    encode_journal_event(w, event);
}

bool decode_timeline_response(WireReader& r, JobTimelineResponse& response) {
  response.job_id = r.i64();
  response.found = r.boolean();
  response.truncated = r.boolean();
  response.virtual_now = r.real();
  std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining()) return false;
  response.events.clear();
  response.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    JournalEvent event;
    if (!decode_journal_event(r, event)) return false;
    response.events.push_back(std::move(event));
  }
  return r.ok();
}

void encode_alerts_response(WireWriter& w, const AlertsResponse& response) {
  w.boolean(response.engine_enabled);
  w.u64(response.firing);
  w.u32(static_cast<std::uint32_t>(response.alerts.size()));
  for (const AlertEntry& entry : response.alerts) {
    w.i32(entry.shard_id);
    w.str(entry.rule);
    w.u8(entry.state);
    w.u8(entry.severity);
    w.real(entry.value);
    w.real(entry.threshold);
    w.real(entry.since_seconds);
    w.str(entry.detail);
  }
}

AlertsResponse local_alerts(const AlertEngine* engine, std::int32_t shard_id) {
  AlertsResponse response;
  response.engine_enabled = engine != nullptr;
  if (!engine) return response;
  for (const AlertView& view : engine->views()) {
    AlertEntry entry;
    entry.shard_id = shard_id;
    entry.rule = view.rule;
    entry.state = static_cast<std::uint8_t>(view.state);
    entry.severity = static_cast<std::uint8_t>(view.severity);
    entry.value = view.value;
    entry.threshold = view.threshold;
    entry.since_seconds = view.since_seconds;
    entry.detail = view.detail;
    if (view.state == AlertState::Firing) ++response.firing;
    response.alerts.push_back(std::move(entry));
  }
  return response;
}

bool decode_alerts_response(WireReader& r, AlertsResponse& response) {
  response.engine_enabled = r.boolean();
  response.firing = r.u64();
  std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining()) return false;
  response.alerts.clear();
  response.alerts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    AlertEntry entry;
    entry.shard_id = r.i32();
    entry.rule = r.str();
    entry.state = r.u8();
    entry.severity = r.u8();
    entry.value = r.real();
    entry.threshold = r.real();
    entry.since_seconds = r.real();
    entry.detail = r.str();
    // The state machine has 4 states and 3 severities; anything else is a
    // corrupted body, not a future extension (those append fields).
    if (!r.ok() || entry.state > 3 || entry.severity > 2) return false;
    response.alerts.push_back(std::move(entry));
  }
  return r.ok();
}

}  // namespace cosched
