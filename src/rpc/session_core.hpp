// SessionCore — the TCP plumbing and the one request dispatcher shared by
// both RPC front doors (CoschedServer and RouterServer).
//
//   accept thread ──> connection queue ──> N session workers
//                                             │  (frame <-> envelope)
//                                             v
//                                     dispatch(): decode body, check the
//                                     budget, call a verb, encode the reply
//                                             │
//                                             v
//                                     the front door's verbs
//
// The accept loop enforces the connection cap: when `max_connections`
// sessions are queued or active, new connections are closed immediately
// (counted in stats().rejected_connections) instead of queueing unbounded
// work. Each worker owns one connection at a time and serves its requests
// sequentially: read a frame, decode the envelope, answer any version other
// than kProtocolVersion with VersionMismatch, adopt the client's trace id
// (or mint one), open the request span and profiler phase, dispatch, write
// the reply. A frame that is not a valid envelope is answered BadRequest;
// broken framing drops the connection (both counted as malformed). An
// encoded reply larger than kDefaultMaxFrameBytes, which the client's
// read_frame would refuse, is replaced by a ServerError naming its size;
// the connection stays open.
//
// dispatch() is the only place a request body is decoded and a reply body
// encoded, both through the message layouts of rpc/protocol.hpp. A request
// whose server-side budget (`request_deadline_seconds`) is already spent
// is answered DeadlineExpired; a body with missing or trailing bytes is
// answered BadRequest. The job-facing messages go to the
// front door's verbs (submit, job_status, job_timeline, snapshot, metrics,
// drain), whose RpcStatus and error text travel back unchanged. The
// process-level messages are answered here: TraceDump and GetAlerts from
// this process's tracer and watchdog plus every remote shard's
// (remote_shards()), and GetMetrics gets the session counters and tracer
// drops on top of the door's metrics verb. The HTTP side door's /alerts
// and /debug/events are registered here too, from the same verbs.
//
// Shutdown paths: an Ok reply to an RPC Shutdown request trips the latch
// wait() blocks on, as does stop().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/alerts.hpp"
#include "obs/http.hpp"
#include "rpc/protocol.hpp"
#include "util/timer.hpp"

namespace cosched {

class ShardBackend;

/// Knobs shared by both front doors.
struct SessionOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  std::size_t worker_threads = 2;
  /// Connection cap: sessions beyond this are refused at accept time.
  std::size_t max_connections = 32;
  /// Server-side budget per request, seconds. <= 0 expires immediately
  /// (useful only for testing the DeadlineExpired path).
  double request_deadline_seconds = 10.0;
  /// Observability side door: a second listening port serving GET /metrics
  /// (Prometheus text format), /healthz, /alerts and /debug/* over HTTP/1.0.
  bool enable_http = true;
  std::uint16_t http_port = 0;  ///< 0 = ephemeral; read back with http_port()
  /// SLO watchdog: evaluate burn-rate alert rules over the metrics on a
  /// background tick (obs/alerts.hpp). When `alerts.rules` is empty the
  /// default_alert_rules() against `alert_budget_ms` apply.
  /// Compiled out under COSCHED_OBS_DISABLED regardless of this switch.
  bool enable_alerts = true;
  AlertEngineOptions alerts;
  /// Latency budget (ms) behind the default burn-rate rules; slo.json's
  /// p95_ms is the natural source.
  double alert_budget_ms = 900.0;
};

struct ServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t rejected_connections = 0;  ///< closed at the cap
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;  ///< non-Ok responses sent
  std::uint64_t malformed_frames = 0;  ///< bad magic / oversized / truncated
};

/// A non-Ok reply; the session core fills in the envelope's echo fields.
ResponseEnvelope rpc_failure(RpcStatus status, std::string error);

class SessionCore {
 public:
  virtual ~SessionCore() = default;
  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Binds the listener, runs prepare() and launches the accept loop +
  /// workers. False (with `error` filled) when an address cannot be bound.
  bool start(std::string& error);
  /// Stops accepting, unblocks workers, joins all threads, stops the side
  /// door and the watchdog, then runs stopped(). Idempotent.
  void stop();
  /// Blocks until stop() is called or an RPC Shutdown arrives.
  void wait();
  /// True once a Shutdown request has been acknowledged.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Port actually bound (after start()).
  std::uint16_t port() const { return port_; }
  /// HTTP observability port actually bound (0 when enable_http is off).
  std::uint16_t http_port() const { return http_ ? http_->port() : 0; }
  /// The SLO watchdog (nullptr when disabled or compiled out).
  AlertEngine* alert_engine() { return alerts_.get(); }
  ServerStats stats() const;

 protected:
  /// `span_name` names the request span and profiler phase (a literal);
  /// `trace_seed` keeps minted trace ids distinct between front doors;
  /// `shard_id` (-1 = none) stamps the door's own alert entries and, when
  /// set, tags every request span " shard=<id>".
  SessionCore(const SessionOptions& options, const char* span_name,
              std::uint64_t trace_seed, std::int32_t shard_id);

  /// Front-door setup between bind and launch: the watchdog
  /// (start_alerts) and the door's own /metrics and /healthz routes on
  /// open_http(). False (with `error` filled) aborts start(), which then
  /// closes the side door and the watchdog.
  virtual bool prepare(std::string& error) = 0;
  /// Teardown after stop() has joined every session thread.
  virtual void stopped() {}
  /// Runs once each reply is encoded, before it is written (`timer`
  /// started on receipt), so the client never holds an unobserved reply.
  virtual void request_done(std::uint64_t trace_id, const WallTimer& timer) {
    (void)trace_id;
    (void)timer;
  }

  // ---- the verbs a front door serves -------------------------------------
  // Each answers Ok with `out` filled, or a status with `error` filled.
  // `trace_id` is the request's effective id (also the thread's context).
  virtual RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                           std::string& error, std::uint64_t trace_id) = 0;
  virtual RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                               std::string& error) = 0;
  virtual RpcStatus job_timeline(std::int64_t job_id,
                                 JobTimelineResponse& out,
                                 std::string& error) = 0;
  virtual RpcStatus snapshot(ServiceSnapshot& out, std::string& error) = 0;
  /// The door's half of GetMetrics; dispatch() adds the session half
  /// (rpc_requests_ok/failed, tracer_dropped_events).
  virtual RpcStatus metrics(MetricsResponse& out, std::string& error) = 0;
  virtual RpcStatus drain(DrainResponse& out, std::string& error) = 0;
  /// The shards behind this door that run in another process, whose trace
  /// dumps and alert states TraceDump, GetAlerts and /alerts fan in. A
  /// single server fronts none.
  virtual std::vector<ShardBackend*> remote_shards() { return {}; }

  /// Creates the HTTP side door (when enabled) with /debug/profile, /alerts
  /// and /debug/events routed (the bare /debug/events tail reads
  /// `journal`); prepare() adds its routes, then starts it.
  HttpEndpoint* open_http(const DecisionJournal& journal);
  /// Starts the watchdog (when enabled) over `alert_options`, defaulting
  /// its rules to default_alert_rules(alert_budget_ms) on
  /// cosched_rpc_request_seconds.
  void start_alerts(AlertEngineOptions alert_options, DecisionJournal& journal);
  /// The door's own alert states (stamped shard_id) plus every remote
  /// shard's, stamped with its shard id. A remote shard that cannot answer
  /// is skipped: a partial fan-in beats none, and the failure shows in
  /// cosched_shard_rpc_errors_total.
  AlertsResponse collect_alerts();

  std::size_t active_sessions() const;
  std::size_t queued_connections() const;

  const SessionOptions options_;
  std::unique_ptr<HttpEndpoint> http_;
  std::unique_ptr<AlertEngine> alerts_;

 private:
  bool stopping() const;
  /// Deterministic nonzero trace id for requests that did not bring one.
  std::uint64_t next_trace_id();
  /// Decodes, budget-checks and answers one current-version request. The
  /// caller stamps type, request_id and trace_id on the returned envelope.
  ResponseEnvelope dispatch(const RequestEnvelope& request,
                            std::uint64_t trace_id);
  /// This process's trace dump merged with every remote shard's,
  /// namespaced "shard<k>/" on its own Perfetto pid.
  TraceDumpResponse collect_trace_dump();
  void accept_main();
  void worker_main();
  void serve_connection(Socket socket);
  void close_side_doors();

  const char* span_name_;
  std::uint64_t trace_seed_;
  const std::int32_t shard_id_;
  /// Appended to the request span's "type=<message>" arguments.
  std::string span_suffix_;
  Socket listener_;
  std::uint16_t port_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable wake_;      ///< workers: connection queue
  std::condition_variable finished_;  ///< wait(): shutdown latch
  std::deque<Socket> pending_;
  std::size_t active_sessions_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> trace_id_counter_{0};
  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace cosched
