// SessionCore — the TCP plumbing shared by both RPC front doors
// (CoschedServer and RouterServer).
//
//   accept thread ──> connection queue ──> N session workers
//                                             │  (frame <-> envelope)
//                                             v
//                                     dispatch() of the front door
//
// The accept loop enforces the connection cap: when `max_connections`
// sessions are queued or active, new connections are closed immediately
// (counted in stats().rejected_connections) instead of queueing unbounded
// work. Each worker owns one connection at a time and serves its requests
// sequentially: read a frame, decode the envelope, answer any version other
// than kProtocolVersion with VersionMismatch, adopt the client's trace id
// (or mint one), open the request span and profiler phase, dispatch, write
// the reply. A frame that is not a valid envelope is answered BadRequest;
// broken framing drops the connection (both counted as malformed).
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

/// Knobs shared by both front doors.
struct SessionOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  int backlog = 16;
  std::size_t worker_threads = 2;
  /// Connection cap: sessions beyond this are refused at accept time.
  std::size_t max_connections = 32;
  /// Server-side budget per request, seconds. <= 0 expires immediately
  /// (useful only for testing the DeadlineExpired path).
  double request_deadline_seconds = 10.0;
  /// How long a worker blocks waiting for the next frame before re-checking
  /// the stop flag. Purely a responsiveness knob.
  double idle_poll_seconds = 0.2;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Observability side door: a second listening port serving GET /metrics
  /// (Prometheus text format), /healthz, /alerts and /debug/* over HTTP/1.0.
  bool enable_http = true;
  std::uint16_t http_port = 0;  ///< 0 = ephemeral; read back with http_port()
  /// SLO watchdog: scrape metrics into the embedded tsdb and evaluate alert
  /// rules on a background tick (obs/alerts.hpp). When `alerts.rules` is
  /// empty the default_alert_rules() against `alert_budget_ms` apply.
  /// Compiled out under COSCHED_ALERTS_DISABLED regardless of this switch.
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
  std::uint64_t telemetry_frames = 0;  ///< SubscribeTelemetry frames pushed
  std::uint64_t telemetry_dropped_spans = 0;  ///< shed by backpressure
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
  /// `trace_seed` keeps minted trace ids distinct between front doors.
  SessionCore(const SessionOptions& options, const char* span_name,
              std::uint64_t trace_seed);

  /// Front-door setup between bind and launch (watchdog, side door,
  /// metric callbacks). False (with `error` filled) aborts start(), which
  /// then closes the side door and the watchdog.
  virtual bool prepare(std::string& error) = 0;
  /// Teardown after stop() has joined every session thread.
  virtual void stopped() {}
  /// Answers one current-version request. The core stamps type,
  /// request_id and trace_id on the returned envelope.
  virtual ResponseEnvelope dispatch(const RequestEnvelope& request,
                                    std::uint64_t trace_id) = 0;
  /// Lets the front door take the connection over for `request` (a
  /// streaming exchange); true ends the session once it returns.
  virtual bool take_over(Socket& socket, const RequestEnvelope& request) {
    (void)socket;
    (void)request;
    return false;
  }
  /// Runs after each reply has been written (`timer` started on receipt).
  virtual void request_done(const ResponseEnvelope& response,
                            std::uint64_t trace_id, const WallTimer& timer) {
    (void)response;
    (void)trace_id;
    (void)timer;
  }

  /// Creates the HTTP side door (when enabled) with /debug/profile routed;
  /// prepare() adds its routes, then starts it.
  HttpEndpoint* open_http();
  /// Starts the watchdog (when enabled) over `alert_options`, defaulting
  /// its rules to default_alert_rules(alert_budget_ms).
  void start_alerts(AlertEngineOptions alert_options, DecisionJournal& journal);

  bool stopping() const;
  std::size_t active_sessions() const;
  std::size_t queued_connections() const;
  /// Deterministic nonzero trace id for requests that did not bring one.
  std::uint64_t next_trace_id();

  const SessionOptions options_;
  /// Appended to the request span's "type=<message>" arguments.
  std::string span_suffix_;
  std::unique_ptr<HttpEndpoint> http_;
  std::unique_ptr<AlertEngine> alerts_;
  mutable std::mutex stats_mutex_;
  ServerStats stats_;

 private:
  void accept_main();
  void worker_main();
  void serve_connection(Socket socket);
  void close_side_doors();

  const char* span_name_;
  std::uint64_t trace_seed_;
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

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace cosched
