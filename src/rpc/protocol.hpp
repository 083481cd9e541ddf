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
#pragma once

#include <cstdint>
#include <string>
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
inline constexpr std::uint16_t kProtocolVersion = 8;

enum class MessageType : std::uint8_t {
  SubmitJob = 1,
  QueryJobStatus = 2,
  QueryScheduleSnapshot = 3,
  GetMetrics = 4,
  Drain = 5,
  Shutdown = 6,
  TraceDump = 7,  ///< the server's structured trace, text + Chrome JSON
  SubscribeTelemetry = 8,  ///< server-push metrics + span stream
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
  std::uint64_t tail_considered = 0;   ///< root spans observed by the sampler
  std::uint64_t tail_kept = 0;         ///< spans retained (all reasons)
  std::uint64_t tail_dropped = 0;      ///< spans rejected by every policy
  std::uint64_t tail_pending = 0;      ///< spans parked awaiting a verdict
  std::uint64_t tail_retained_spans = 0;  ///< retained ring residency
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

// ---- streaming telemetry -------------------------------------------------
// SubscribeTelemetry turns the connection into a server-push stream: the
// server acks with a TelemetrySubscribeAck body, then sends one Ok response
// envelope per TelemetryFrame every interval until the subscriber
// disconnects, sends any frame back (polite unsubscribe — the server
// answers with one final frame marked `last`), max_frames is reached, or
// the server stops.

struct TelemetrySubscribeRequest {
  std::uint32_t interval_ms = 500;  ///< frame cadence; clamped to >= 10
  std::uint32_t max_frames = 0;     ///< 0 = stream until disconnect
  std::uint32_t max_spans_per_frame = 0;  ///< 0 = server default (512)
  std::string prefix;  ///< span/metric name prefix filter; empty = all
};

struct TelemetrySubscribeAck {
  std::uint32_t interval_ms = 0;          ///< effective, after clamping
  std::uint32_t max_spans_per_frame = 0;  ///< effective per-frame cap
};

/// One sampled span/instant/counter event, name materialised.
struct TelemetrySpanSample {
  std::string name;
  std::uint8_t phase = 0;  ///< Tracer::Phase raw value
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;
  std::int32_t tid = 0;
  std::int32_t depth = 0;
  Real wall_us = 0.0;
  Real virtual_time = -1.0;
  Real value = 0.0;
  std::string args;
};

/// One metric sample from the Prometheus exposition ("name{labels}").
struct TelemetryMetricSample {
  std::string name;
  Real value = 0.0;
};

struct TelemetryFrame {
  std::uint64_t frame_seq = 0;
  bool last = false;  ///< final frame of a clean unsubscribe / shutdown
  std::uint64_t dropped_spans = 0;  ///< shed by per-subscriber backpressure
  std::vector<TelemetryMetricSample> metrics;
  std::vector<TelemetrySpanSample> spans;
  /// Which sampling configuration produced the spans in this frame, so
  /// consumers can interpret gaps — e.g. "head:1-in-64" or
  /// "head:1-in-64,tail(slow-replans)".
  std::string sampling_mode;
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

// Field-level encoders shared by client and server. Decoders return false
// on malformed input and leave the output in an unspecified state.
void encode_trace_job(WireWriter& w, const TraceJob& job);
bool decode_trace_job(WireReader& r, TraceJob& job);

void encode_job_status_view(WireWriter& w, const JobStatusView& view);
bool decode_job_status_view(WireReader& r, JobStatusView& view);

void encode_service_snapshot(WireWriter& w, const ServiceSnapshot& snapshot);
bool decode_service_snapshot(WireReader& r, ServiceSnapshot& snapshot);

void encode_submit_response(WireWriter& w, const SubmitJobResponse& response);
bool decode_submit_response(WireReader& r, SubmitJobResponse& response);

void encode_status_response(WireWriter& w, const JobStatusResponse& response);
bool decode_status_response(WireReader& r, JobStatusResponse& response);

void encode_metrics_response(WireWriter& w, const MetricsResponse& response);
bool decode_metrics_response(WireReader& r, MetricsResponse& response);

void encode_trace_dump_response(WireWriter& w,
                                const TraceDumpResponse& response);
bool decode_trace_dump_response(WireReader& r, TraceDumpResponse& response);

void encode_drain_response(WireWriter& w, const DrainResponse& response);
bool decode_drain_response(WireReader& r, DrainResponse& response);

void encode_telemetry_subscribe_request(
    WireWriter& w, const TelemetrySubscribeRequest& request);
bool decode_telemetry_subscribe_request(WireReader& r,
                                        TelemetrySubscribeRequest& request);

void encode_telemetry_subscribe_ack(WireWriter& w,
                                    const TelemetrySubscribeAck& ack);
bool decode_telemetry_subscribe_ack(WireReader& r, TelemetrySubscribeAck& ack);

void encode_telemetry_frame(WireWriter& w, const TelemetryFrame& frame);
bool decode_telemetry_frame(WireReader& r, TelemetryFrame& frame);

void encode_journal_event(WireWriter& w, const JournalEvent& event);
bool decode_journal_event(WireReader& r, JournalEvent& event);

void encode_timeline_response(WireWriter& w,
                              const JobTimelineResponse& response);
bool decode_timeline_response(WireReader& r, JobTimelineResponse& response);

void encode_alerts_response(WireWriter& w, const AlertsResponse& response);
bool decode_alerts_response(WireReader& r, AlertsResponse& response);

}  // namespace cosched
