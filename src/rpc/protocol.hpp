// Request/response protocol of the co-scheduling service.
//
// Every frame payload (see net/frame.hpp) is one envelope:
//
//   request:   version u16 | type u8 | request_id u64 | trace_id u64 |
//              body ...
//   response:  version u16 | type u8 | request_id u64 | trace_id u64 |
//              status u8 | error str | body ... (body only when status == Ok)
//
// The version is checked before anything else; a peer speaking any other
// version gets a VersionMismatch response carrying the server's version,
// never a silent misparse. The request_id is echoed verbatim so clients can
// detect desynchronized streams. Bodies reuse the bounds-checked big-endian
// wire encoding (net/wire.hpp); Reals travel as IEEE-754 bit patterns, which
// is what makes the RPC submission path byte-identical to trace replay.
// Each body type's layout is written once, as a field list both the
// encoder and the decoder run (see "layouts" below).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "net/wire.hpp"
#include "obs/alerts.hpp"
#include "online/live_service.hpp"
#include "online/scheduler.hpp"
#include "online/trace.hpp"

namespace cosched {

/// One wire version, no compatibility ladder: every peer (client, router,
/// RemoteShard, benches) is built from this tree, so all of them rebuild
/// together. Bump kProtocolVersion on any change to an envelope or body
/// layout; every decoder reads the full current layout or fails.
inline constexpr std::uint16_t kProtocolVersion = 9;

enum class MessageType : std::uint8_t {
  SubmitJob = 1,
  QueryJobStatus = 2,
  QueryScheduleSnapshot = 3,
  GetMetrics = 4,
  Drain = 5,
  Shutdown = 6,
  TraceDump = 7,  ///< the server's structured trace, text + Chrome JSON
  // 8 is retired (was a server-push telemetry stream); valid_message_type
  // rejects it.
  QueryJobTimeline = 9,  ///< decision-journal events of one job
  GetAlerts = 10,  ///< alert rule states (router: fleet fan-in)
};

const char* to_string(MessageType type);
bool valid_message_type(std::uint8_t raw);

/// Application-level outcome carried in every response envelope.
enum class RpcStatus : std::uint8_t {
  Ok = 0,
  VersionMismatch = 1,  ///< peer speaks a different kProtocolVersion
  BadRequest = 2,       ///< envelope or body failed to decode
  Draining = 3,         ///< drain mode: no further admissions
  InvalidJob = 4,       ///< job size or field out of the model's domain
  UnknownJob = 5,       ///< job id out of range
  DeadlineExpired = 6,  ///< server-side per-request deadline ran out
  ServerError = 7,      ///< internal failure (message has details)
};

const char* to_string(RpcStatus status);

struct RequestEnvelope {
  std::uint16_t version = kProtocolVersion;
  MessageType type = MessageType::GetMetrics;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< 0 = let the server assign one
  std::vector<std::uint8_t> body;
};

struct ResponseEnvelope {
  std::uint16_t version = kProtocolVersion;
  MessageType type = MessageType::GetMetrics;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< effective trace id, echoed
  RpcStatus status = RpcStatus::Ok;
  std::string error;  ///< human-readable detail for non-Ok statuses
  std::vector<std::uint8_t> body;
};

std::vector<std::uint8_t> encode_request(const RequestEnvelope& request);
/// False when the bytes are not a structurally valid request. A request of
/// another version decodes up to its request_id (trace_id stays 0, the rest
/// is body) so the server can answer VersionMismatch.
bool decode_request(const std::vector<std::uint8_t>& bytes,
                    RequestEnvelope& request);

std::vector<std::uint8_t> encode_response(const ResponseEnvelope& response);
bool decode_response(const std::vector<std::uint8_t>& bytes,
                     ResponseEnvelope& response);

// ---- message bodies ------------------------------------------------------

struct SubmitJobResponse {
  std::int64_t job_id = -1;
  Real virtual_now = 0.0;
  JobStatusView status;
  /// Shard that admitted the job: the router stamps the routed shard, a
  /// shard-deployed CoschedServer its configured id, a standalone server -1.
  std::int32_t shard_id = -1;
};

struct JobStatusResponse {
  bool found = false;
  Real virtual_now = 0.0;
  JobStatusView status;
};

/// Per-shard summary carried in the GetMetrics fan-in block. The
/// scheduler counters are the shard's own (its virtual clock advances
/// independently); `requests` counts what the router routed to it, so the
/// fleet invariant Σ shards[i].requests == router requests_ok is checkable
/// from one response.
struct ShardMetricsEntry {
  std::int32_t shard_id = -1;
  std::uint64_t requests = 0;  ///< router-routed requests (0 via fan-in RPC)
  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  std::uint64_t completions = 0;
  std::uint64_t replans = 0;
  std::uint64_t migrations = 0;
  Real virtual_now = 0.0;      ///< shard-local virtual clock
  std::uint64_t queue_depth = 0;
  Real replan_p95_seconds = 0.0;
};

/// Per-shard transport health carried in the GetMetrics health block:
/// the router's cached liveness verdict plus the RPC failures its
/// RemoteShard backend has folded, split by the client error taxonomy.
/// Local (in-process) shards are always up with zero counters.
struct ShardHealthEntry {
  std::int32_t shard_id = -1;
  bool up = true;
  std::uint64_t transport_errors = 0;    ///< bytes never made it
  std::uint64_t protocol_errors = 0;     ///< both ends disagree on the rules
  std::uint64_t application_errors = 0;  ///< shard understood and said no
};

struct MetricsResponse {
  Real virtual_now = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  std::uint64_t completions = 0;
  std::uint64_t replans = 0;
  std::uint64_t migrations = 0;
  Real running_mean_degradation = 0.0;
  DegradationCache::Stats cache;
  std::string deterministic_csv;
  // ---- observability -----------------------------------------------------
  std::uint64_t astar_searches = 0;
  std::uint64_t astar_expansions = 0;
  std::uint64_t astar_heuristic_evals = 0;
  std::uint64_t rpc_requests_ok = 0;
  std::uint64_t rpc_requests_failed = 0;
  std::uint64_t rpc_request_count = 0;    ///< latency histogram count
  Real rpc_request_seconds_sum = 0.0;     ///< latency histogram sum
  Real rpc_request_seconds_p99 = 0.0;     ///< interpolated from buckets
  std::uint64_t queue_wait_count = 0;     ///< admission queue-wait samples
  Real queue_wait_seconds_sum = 0.0;      ///< virtual seconds waited, total
  Real queue_wait_seconds_p99 = 0.0;      ///< interpolated from buckets
  std::uint64_t tracer_dropped_events = 0;  ///< ring overwrites since reset
  /// Newest request-latency exemplar: the trace behind a recent
  /// cosched_rpc_request_seconds observation (0 = none yet).
  std::uint64_t latency_exemplar_trace_id = 0;
  Real latency_exemplar_seconds = 0.0;
  // ---- shard / fan-in block ----------------------------------------------
  std::int32_t shard_id = -1;  ///< answering instance's shard id (-1 = none)
  /// Commands enqueued and not yet executed by the scheduler thread — the
  /// router's primary spillover signal.
  std::uint64_t command_queue_depth = 0;
  Real replan_p95_seconds = 0.0;  ///< wall-clock replan duration p95
  /// Router accounting (zero when a plain CoschedServer answers): keys
  /// routed off their ring shard by the load-aware spillover policy, and
  /// keys currently carrying a recorded remap.
  std::uint64_t router_spillovers = 0;
  std::uint64_t router_remapped_keys = 0;
  /// One entry per fronted shard — the fan-in block a router answers with.
  /// Empty for a single CoschedServer.
  std::vector<ShardMetricsEntry> shards;
  /// Health fan-in: liveness + per-kind RPC failure counters per fronted
  /// shard. Empty for a single CoschedServer.
  std::vector<ShardHealthEntry> shard_health;
};

struct TraceDumpResponse {
  bool enabled = false;          ///< tracer runtime switch at dump time
  std::uint64_t event_count = 0;
  std::string text;              ///< deterministic indented dump
  std::string chrome_json;       ///< Chrome trace-event JSON array
};

struct DrainResponse {
  std::uint64_t completions = 0;
  Real virtual_now = 0.0;
};

struct ShutdownResponse {
  Real virtual_now = 0.0;
};

// ---- decision-journal timeline -------------------------------------------
// QueryJobTimeline request body: one i64 job id (global when asked of a
// router, local when asked of a single shard). The response carries the
// journal events of that job in decision order; `truncated` says the
// journal's bounded ring has evicted events and the retained timeline may
// be missing its earliest decisions (a well-formed answer, not an error).

struct JobTimelineResponse {
  std::int64_t job_id = -1;
  bool found = false;      ///< false: the id was never submitted here
  bool truncated = false;  ///< ring evictions may have removed events
  Real virtual_now = 0.0;
  std::vector<JournalEvent> events;  ///< ascending seq
};

// ---- alert fan-in --------------------------------------------------------
// GetAlerts request body: empty. The response carries one entry per alert
// rule of the answering instance; a router additionally fans in every
// fronted shard's entries with their shard ids stamped (its own rules
// travel as shard_id == -1).

/// One alert rule's state, as served by /alerts and GetAlerts.
struct AlertEntry {
  std::int32_t shard_id = -1;  ///< -1 = the answering instance itself
  std::string rule;
  std::uint8_t state = 0;     ///< AlertState raw (inactive/pending/...)
  std::uint8_t severity = 0;  ///< AlertSeverity raw (info/warn/critical)
  Real value = 0.0;           ///< last evaluated value
  Real threshold = 0.0;       ///< bound (burn-rate rules: the burn factor)
  Real since_seconds = 0.0;   ///< time spent in the current state
  std::string detail;         ///< free-form "k=v ..." extras
};

struct AlertsResponse {
  bool engine_enabled = false;  ///< false: watchdog compiled out / disabled
  std::uint64_t firing = 0;     ///< firing entries across the response
  std::vector<AlertEntry> alerts;
};

/// The answering instance's own alert states, every entry stamped
/// `shard_id`; `engine` may be null (watchdog disabled or compiled out).
AlertsResponse local_alerts(const AlertEngine* engine, std::int32_t shard_id);

// ---- layouts ---------------------------------------------------------------
// Each body type's wire layout is one field list, `layout(io, message)`,
// run by WireWriter to encode and by WireReader to decode (net/wire.hpp),
// so the two directions cannot drift apart. `M` is the message type, const
// when encoding. Field order is the wire order; a reader enforces each
// enumeration's and bounded byte's maximum and each list's count.

template <class M, class T>
concept MessageOf = std::same_as<std::remove_const_t<M>, T>;

template <class Io, MessageOf<TraceJob> M>
void layout(Io& io, M& job) {
  io(job.arrival_time, job.name);
  io.enumeration(job.kind, JobKind::Imaginary);
  io(job.processes, job.work, job.miss_rate, job.sensitivity);
}

template <class Io, MessageOf<JobStatusView> M>
void layout(Io& io, M& view) {
  io(view.id, view.name);
  io.enumeration(view.phase, JobPhase::Finished);
  io(view.arrival_time, view.admit_time, view.finish_time, view.work);
  io.list(view.procs, [&](auto& proc) {
    io(proc.gid, proc.machine, proc.degradation, proc.remaining_work);
  });
}

template <class Io, MessageOf<ServiceSnapshot> M>
void layout(Io& io, M& snapshot) {
  io(snapshot.now, snapshot.pending_jobs, snapshot.free_slots,
     snapshot.completions, snapshot.live_degradation_sum,
     snapshot.mean_live_degradation);
  io.list(snapshot.machines, [&](auto& machine) {
    io.list(machine,
            [&](auto& proc) { io(proc.gid, proc.job, proc.degradation); });
  });
}

template <class Io, MessageOf<SubmitJobResponse> M>
void layout(Io& io, M& response) {
  io(response.job_id, response.virtual_now);
  layout(io, response.status);
  io(response.shard_id);
}

template <class Io, MessageOf<JobStatusResponse> M>
void layout(Io& io, M& response) {
  io(response.found, response.virtual_now);
  layout(io, response.status);
}

template <class Io, MessageOf<MetricsResponse> M>
void layout(Io& io, M& r) {
  // Wire order predates the struct's grouping: deterministic_csv sits
  // between cache.evictions and cache.compactions.
  io(r.virtual_now, r.arrivals, r.admissions, r.completions, r.replans,
     r.migrations, r.running_mean_degradation, r.cache.hits, r.cache.misses,
     r.cache.entries, r.cache.evictions, r.deterministic_csv,
     r.cache.compactions, r.astar_searches, r.astar_expansions,
     r.astar_heuristic_evals, r.rpc_requests_ok, r.rpc_requests_failed,
     r.rpc_request_count, r.rpc_request_seconds_sum,
     r.rpc_request_seconds_p99, r.queue_wait_count, r.queue_wait_seconds_sum,
     r.queue_wait_seconds_p99, r.tracer_dropped_events,
     r.latency_exemplar_trace_id, r.latency_exemplar_seconds, r.shard_id,
     r.command_queue_depth, r.replan_p95_seconds, r.router_spillovers,
     r.router_remapped_keys);
  io.list(r.shards, [&](auto& shard) {
    io(shard.shard_id, shard.requests, shard.arrivals, shard.admissions,
       shard.completions, shard.replans, shard.migrations, shard.virtual_now,
       shard.queue_depth, shard.replan_p95_seconds);
  });
  io.list(r.shard_health, [&](auto& health) {
    io(health.shard_id, health.up, health.transport_errors,
       health.protocol_errors, health.application_errors);
  });
}

template <class Io, MessageOf<TraceDumpResponse> M>
void layout(Io& io, M& response) {
  io(response.enabled, response.event_count, response.text,
     response.chrome_json);
}

template <class Io, MessageOf<DrainResponse> M>
void layout(Io& io, M& response) {
  io(response.completions, response.virtual_now);
}

template <class Io, MessageOf<ShutdownResponse> M>
void layout(Io& io, M& response) {
  io(response.virtual_now);
}

template <class Io, MessageOf<JournalEvent> M>
void layout(Io& io, M& event) {
  io(event.job_id);
  io.enumeration(event.kind,
                 static_cast<JournalEventKind>(kJournalEventKinds - 1));
  io(event.time, event.trace_id, event.seq, event.policy, event.machine,
     event.candidates, event.degradation_delta);
  io.list(event.co_runners, [&](auto& co) { io(co); });
  io(event.detail);
}

template <class Io, MessageOf<JobTimelineResponse> M>
void layout(Io& io, M& response) {
  io(response.job_id, response.found, response.truncated,
     response.virtual_now);
  io.list(response.events, [&](auto& event) { layout(io, event); });
}

template <class Io, MessageOf<AlertsResponse> M>
void layout(Io& io, M& response) {
  io(response.engine_enabled, response.firing);
  io.list(response.alerts, [&](auto& entry) {
    io(entry.shard_id, entry.rule);
    // The state machine has 4 states and 3 severities; anything else is a
    // corrupted body, not a future extension (those append fields).
    io.bounded(entry.state, static_cast<std::uint8_t>(AlertState::Resolved));
    io.bounded(entry.severity,
               static_cast<std::uint8_t>(AlertSeverity::Critical));
    io(entry.value, entry.threshold, entry.since_seconds, entry.detail);
  });
}

/// Appends `message`'s layout to `w`.
template <class M>
void encode(WireWriter& w, const M& message) {
  layout(w, message);
}

/// Reads `message`'s layout from `r`; false on malformed input, leaving
/// `message` unspecified. Callers check r.complete() for trailing bytes.
template <class M>
bool decode(WireReader& r, M& message) {
  layout(r, message);
  return r.ok();
}

/// The SubmitJob request body; perfbench calls it by this name.
inline void encode_trace_job(WireWriter& w, const TraceJob& job) {
  encode(w, job);
}

}  // namespace cosched
