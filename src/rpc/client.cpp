#include "rpc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cosched {
namespace {

std::vector<std::uint8_t> job_id_body(std::int64_t job_id) {
  WireWriter w;
  w(job_id);
  return w.take();
}

}  // namespace

const char* to_string(RpcErrorKind kind) {
  switch (kind) {
    case RpcErrorKind::None: return "none";
    case RpcErrorKind::Transport: return "transport";
    case RpcErrorKind::Protocol: return "protocol";
    case RpcErrorKind::Application: return "application";
  }
  return "?";
}

std::string RpcError::describe() const {
  if (ok()) return "ok";
  std::string out = to_string(kind);
  out += " error";
  if (kind == RpcErrorKind::Application) {
    out += " (";
    out += to_string(app);
    out += ")";
  }
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  out += " [attempts=" + std::to_string(attempts) + "]";
  return out;
}

CoschedClient::CoschedClient(ClientOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {
  COSCHED_EXPECTS(options_.max_attempts >= 1);
}

double CoschedClient::backoff_seconds(int attempt) {
  double exp = options_.backoff_base_seconds *
               static_cast<double>(1u << std::min(attempt, 20));
  double capped = std::min(exp, options_.backoff_max_seconds);
  // Jitter in [0.5, 1.0] de-synchronizes clients hammering one server.
  return capped * (0.5 + 0.5 * jitter_.uniform01());
}

bool CoschedClient::ensure_connected(RpcError& error) {
  if (socket_.valid()) return true;
  NetStatus status = NetStatus::Ok;
  socket_ = Socket::connect_to(
      options_.host, options_.port,
      Deadline::after(options_.connect_timeout_seconds), status);
  if (status != NetStatus::Ok) {
    error.kind = RpcErrorKind::Transport;
    error.net = status;
    error.message = std::string("connect to ") + options_.host + ":" +
                    std::to_string(options_.port) + " failed (" +
                    to_string(status) + ")";
    return false;
  }
  return true;
}

RpcError CoschedClient::attempt(MessageType type,
                                const std::vector<std::uint8_t>& body,
                                ResponseEnvelope& out, bool& sent) {
  RpcError error;
  sent = false;

  if (!ensure_connected(error)) return error;

  RequestEnvelope request;
  request.type = type;
  request.request_id = next_request_id_++;
  // Deterministic per-request trace id unless the caller pinned one; | 1
  // keeps it nonzero (0 would ask the server to mint its own).
  request.trace_id =
      trace_id_ != 0
          ? trace_id_
          : SplitMix64(options_.jitter_seed ^ request.request_id).next() | 1;
  request.body = body;
  std::vector<std::uint8_t> payload = encode_request(request);

  Deadline deadline = Deadline::after(options_.request_timeout_seconds);
  sent = true;  // from here on, bytes may have reached the server
  FrameStatus frame_status = write_frame(socket_, payload, deadline);
  if (frame_status != FrameStatus::Ok) {
    socket_.close();
    error.kind = RpcErrorKind::Transport;
    error.frame = frame_status;
    error.message =
        std::string("sending request failed (") + to_string(frame_status) + ")";
    return error;
  }

  std::vector<std::uint8_t> reply;
  frame_status = read_frame(socket_, reply, deadline);
  if (frame_status != FrameStatus::Ok) {
    socket_.close();
    // Undecodable framing is a protocol bug, not a flaky wire.
    bool is_protocol = frame_status == FrameStatus::BadMagic ||
                       frame_status == FrameStatus::Oversized;
    error.kind = is_protocol ? RpcErrorKind::Protocol : RpcErrorKind::Transport;
    error.frame = frame_status;
    error.message = std::string("reading response failed (") +
                    to_string(frame_status) + ")";
    return error;
  }

  if (!decode_response(reply, out)) {
    socket_.close();
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable response envelope";
    return error;
  }
  if (out.version != kProtocolVersion) {
    socket_.close();
    error.kind = RpcErrorKind::Protocol;
    error.message = "server protocol version " + std::to_string(out.version) +
                    ", client speaks " + std::to_string(kProtocolVersion);
    return error;
  }
  if (out.request_id != request.request_id || out.type != type) {
    socket_.close();
    error.kind = RpcErrorKind::Protocol;
    error.message = "response does not match request (stream desync)";
    return error;
  }
  // The server echoes the effective trace id; for a request that carried
  // one, anything else is a desynchronized stream.
  if (out.status == RpcStatus::Ok && out.trace_id != request.trace_id) {
    socket_.close();
    error.kind = RpcErrorKind::Protocol;
    error.message = "response trace_id does not echo the request";
    return error;
  }
  last_trace_id_ = out.trace_id;
  if (out.status != RpcStatus::Ok) {
    error.kind = RpcErrorKind::Application;
    error.app = out.status;
    error.message = out.error;
    return error;
  }
  return error;  // ok
}

RpcError CoschedClient::call(MessageType type,
                             const std::vector<std::uint8_t>& body,
                             bool idempotent, ResponseEnvelope& out) {
  RpcError error;
  for (int tried = 0; tried < options_.max_attempts; ++tried) {
    bool sent = false;
    error = attempt(type, body, out, sent);
    error.attempts = tried + 1;
    if (error.ok()) return error;
    if (error.kind != RpcErrorKind::Transport) return error;
    if (sent && !idempotent) return error;  // may already be applied
    if (tried + 1 >= options_.max_attempts) return error;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff_seconds(tried)));
  }
  return error;
}

template <class Response>
RpcError CoschedClient::request(MessageType type,
                                const std::vector<std::uint8_t>& body,
                                bool idempotent, Response& out) {
  ResponseEnvelope envelope;
  RpcError error = call(type, body, idempotent, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = std::string("undecodable ") + to_string(type) +
                    " response body";
  }
  return error;
}

RpcError CoschedClient::submit_job(const TraceJob& job,
                                   SubmitJobResponse& out) {
  WireWriter w;
  encode(w, job);
  return request(MessageType::SubmitJob, w.bytes(), false, out);
}

RpcError CoschedClient::query_job_status(std::int64_t job_id,
                                         JobStatusResponse& out) {
  return request(MessageType::QueryJobStatus, job_id_body(job_id), true, out);
}

RpcError CoschedClient::query_job_timeline(std::int64_t job_id,
                                           JobTimelineResponse& out) {
  return request(MessageType::QueryJobTimeline, job_id_body(job_id), true,
                 out);
}

RpcError CoschedClient::query_snapshot(ServiceSnapshot& out) {
  return request(MessageType::QueryScheduleSnapshot, {}, true, out);
}

RpcError CoschedClient::get_metrics(MetricsResponse& out) {
  return request(MessageType::GetMetrics, {}, true, out);
}

RpcError CoschedClient::trace_dump(TraceDumpResponse& out) {
  return request(MessageType::TraceDump, {}, true, out);
}

RpcError CoschedClient::drain(DrainResponse& out) {
  // Drain is idempotent: repeating it cannot admit or lose work.
  return request(MessageType::Drain, {}, true, out);
}

RpcError CoschedClient::shutdown_server(ShutdownResponse& out) {
  return request(MessageType::Shutdown, {}, false, out);
}

}  // namespace cosched
