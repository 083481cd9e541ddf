// CoschedClient — blocking RPC client with bounded retry.
//
// Error taxonomy, because "it failed" is useless to a caller:
//   * Transport — the bytes never made it (connect refused, timeout, peer
//     reset, truncated frame). Retryable; the client retries automatically
//     with exponential backoff + jitter, but only when it is safe: connect-
//     phase failures always, post-send failures only for idempotent
//     requests (a SubmitJob whose response was lost may have been applied).
//   * Protocol — the bytes arrived but are not a valid conversation (bad
//     magic, undecodable envelope, version or request-id mismatch). Never
//     retried: both ends disagree about the rules.
//   * Application — the server understood and said no (draining, invalid
//     job, unknown id, deadline expired). Never retried; the status tells
//     the caller what to do.
//
// One client = one connection = one outstanding request; the transport is
// reconnected lazily after any failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "rpc/protocol.hpp"
#include "util/rng.hpp"

namespace cosched {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double connect_timeout_seconds = 2.0;
  double request_timeout_seconds = 5.0;
  /// Total tries per call (first attempt included). 1 disables retry.
  int max_attempts = 3;
  double backoff_base_seconds = 0.02;
  double backoff_max_seconds = 0.5;
  /// Jitter draws are seeded, so a test's retry schedule is reproducible.
  std::uint64_t jitter_seed = 0x5EED;
};

enum class RpcErrorKind {
  None,
  Transport,
  Protocol,
  Application,
};

const char* to_string(RpcErrorKind kind);

struct RpcError {
  RpcErrorKind kind = RpcErrorKind::None;
  NetStatus net = NetStatus::Ok;        ///< transport detail
  FrameStatus frame = FrameStatus::Ok;  ///< transport/protocol detail
  RpcStatus app = RpcStatus::Ok;        ///< application detail
  int attempts = 1;                     ///< tries consumed by this call
  std::string message;

  bool ok() const { return kind == RpcErrorKind::None; }
  std::string describe() const;
};

class CoschedClient {
 public:
  explicit CoschedClient(ClientOptions options);

  CoschedClient(const CoschedClient&) = delete;
  CoschedClient& operator=(const CoschedClient&) = delete;

  RpcError submit_job(const TraceJob& job, SubmitJobResponse& out);
  RpcError query_job_status(std::int64_t job_id, JobStatusResponse& out);
  /// The decision journal's admission → placement → migration →
  /// completion timeline of one job.
  RpcError query_job_timeline(std::int64_t job_id, JobTimelineResponse& out);
  RpcError query_snapshot(ServiceSnapshot& out);
  RpcError get_metrics(MetricsResponse& out);
  /// The server's span trace as Chrome JSON, cut to fit the frame cap.
  RpcError trace_dump(TraceDumpResponse& out);
  RpcError drain(DrainResponse& out);
  RpcError shutdown_server(ShutdownResponse& out);

  // ---- end-to-end trace correlation ------------------------------------
  /// Trace id stamped on subsequent requests. 0 (the default) lets the
  /// client derive a deterministic per-request id from the jitter seed; a
  /// nonzero id is used as-is, so a caller can follow its own request
  /// through the server's spans.
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }
  /// Effective trace id of the last completed call, as echoed by the
  /// server.
  std::uint64_t last_trace_id() const { return last_trace_id_; }

  void disconnect() { socket_.close(); }

 private:
  /// One full call: connect if needed, send, receive, validate envelope.
  /// Retries per the taxonomy above until attempts run out.
  RpcError call(MessageType type, const std::vector<std::uint8_t>& body,
                bool idempotent, ResponseEnvelope& out);
  /// call(), then decode the Ok reply's body as `Response`; a body that
  /// does not decode exactly is a Protocol error.
  template <class Response>
  RpcError request(MessageType type, const std::vector<std::uint8_t>& body,
                   bool idempotent, Response& out);
  /// Single attempt. `sent` reports whether any request bytes may have
  /// reached the server (gates retry of non-idempotent calls).
  RpcError attempt(MessageType type, const std::vector<std::uint8_t>& body,
                   ResponseEnvelope& out, bool& sent);
  double backoff_seconds(int attempt);

  /// Connects socket_ if needed. Fills `error` and returns false on failure.
  bool ensure_connected(RpcError& error);

  ClientOptions options_;
  Socket socket_;
  Rng jitter_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t trace_id_ = 0;       ///< explicit id; 0 = derive per call
  std::uint64_t last_trace_id_ = 0;  ///< effective id of the last call
};

}  // namespace cosched
