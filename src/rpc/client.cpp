#include "rpc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cosched {

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

  // A live telemetry stream owns the connection; a unary call tears it
  // down and reconnects so the framing cannot desynchronize.
  if (streaming_) disconnect();
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
  frame_status = read_frame(socket_, reply, deadline, options_.max_frame_bytes);
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

RpcError CoschedClient::submit_job(const TraceJob& job,
                                   SubmitJobResponse& out) {
  WireWriter w;
  encode_trace_job(w, job);
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::SubmitJob, w.bytes(), false, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_submit_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable SubmitJob response body";
  }
  return error;
}

RpcError CoschedClient::query_job_status(std::int64_t job_id,
                                         JobStatusResponse& out) {
  WireWriter w;
  w.i64(job_id);
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::QueryJobStatus, w.bytes(), true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_status_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable QueryJobStatus response body";
  }
  return error;
}

RpcError CoschedClient::query_job_timeline(std::int64_t job_id,
                                           JobTimelineResponse& out) {
  WireWriter w;
  w.i64(job_id);
  ResponseEnvelope envelope;
  RpcError error =
      call(MessageType::QueryJobTimeline, w.bytes(), true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_timeline_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable QueryJobTimeline response body";
  }
  return error;
}

RpcError CoschedClient::query_snapshot(ServiceSnapshot& out) {
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::QueryScheduleSnapshot, {}, true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_service_snapshot(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable QueryScheduleSnapshot response body";
  }
  return error;
}

RpcError CoschedClient::get_metrics(MetricsResponse& out) {
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::GetMetrics, {}, true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_metrics_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable GetMetrics response body";
  }
  return error;
}

RpcError CoschedClient::get_alerts(AlertsResponse& out) {
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::GetAlerts, {}, true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_alerts_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable GetAlerts response body";
  }
  return error;
}

RpcError CoschedClient::trace_dump(TraceDumpResponse& out) {
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::TraceDump, {}, true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_trace_dump_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable TraceDump response body";
  }
  return error;
}

RpcError CoschedClient::drain(DrainResponse& out) {
  // Drain is idempotent: repeating it cannot admit or lose work.
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::Drain, {}, true, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  if (!decode_drain_response(r, out) || !r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable Drain response body";
  }
  return error;
}

RpcError CoschedClient::subscribe_telemetry(
    const TelemetrySubscribeRequest& request, TelemetrySubscribeAck& ack) {
  RpcError error;
  if (streaming_) disconnect();  // one stream per connection
  if (!ensure_connected(error)) return error;

  RequestEnvelope envelope;
  envelope.type = MessageType::SubscribeTelemetry;
  envelope.request_id = next_request_id_++;
  envelope.trace_id =
      trace_id_ != 0
          ? trace_id_
          : SplitMix64(options_.jitter_seed ^ envelope.request_id).next() | 1;
  WireWriter w;
  encode_telemetry_subscribe_request(w, request);
  envelope.body = w.take();

  Deadline deadline = Deadline::after(options_.request_timeout_seconds);
  FrameStatus frame_status =
      write_frame(socket_, encode_request(envelope), deadline);
  if (frame_status != FrameStatus::Ok) {
    disconnect();
    error.kind = RpcErrorKind::Transport;
    error.frame = frame_status;
    error.message = std::string("sending subscription failed (") +
                    to_string(frame_status) + ")";
    return error;
  }

  std::vector<std::uint8_t> reply;
  frame_status =
      read_frame(socket_, reply, deadline, options_.max_frame_bytes);
  if (frame_status != FrameStatus::Ok) {
    disconnect();
    error.kind = frame_status == FrameStatus::BadMagic ||
                         frame_status == FrameStatus::Oversized
                     ? RpcErrorKind::Protocol
                     : RpcErrorKind::Transport;
    error.frame = frame_status;
    error.message = std::string("reading subscription ack failed (") +
                    to_string(frame_status) + ")";
    return error;
  }

  ResponseEnvelope response;
  if (!decode_response(reply, response) ||
      response.type != MessageType::SubscribeTelemetry ||
      response.request_id != envelope.request_id) {
    disconnect();
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable subscription ack";
    return error;
  }
  if (response.status != RpcStatus::Ok) {
    error.kind = RpcErrorKind::Application;
    error.app = response.status;
    error.message = response.error;
    return error;
  }
  WireReader r(response.body);
  if (!decode_telemetry_subscribe_ack(r, ack) || !r.complete()) {
    disconnect();
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable subscription ack body";
    return error;
  }
  last_trace_id_ = response.trace_id;
  streaming_ = true;
  stream_request_id_ = envelope.request_id;
  return error;
}

RpcError CoschedClient::read_telemetry_frame(TelemetryFrame& out,
                                             double timeout_seconds) {
  RpcError error;
  if (!streaming_) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "no telemetry stream on this connection";
    return error;
  }
  std::vector<std::uint8_t> payload;
  FrameStatus frame_status =
      read_frame(socket_, payload, Deadline::after(timeout_seconds),
                 options_.max_frame_bytes);
  if (frame_status != FrameStatus::Ok) {
    if (frame_status != FrameStatus::Timeout) disconnect();
    error.kind = frame_status == FrameStatus::Timeout ||
                         frame_status == FrameStatus::Closed
                     ? RpcErrorKind::Transport
                     : RpcErrorKind::Protocol;
    error.frame = frame_status;
    error.message = std::string("reading telemetry frame failed (") +
                    to_string(frame_status) + ")";
    return error;
  }
  ResponseEnvelope envelope;
  if (!decode_response(payload, envelope) ||
      envelope.type != MessageType::SubscribeTelemetry ||
      envelope.request_id != stream_request_id_ ||
      envelope.status != RpcStatus::Ok) {
    disconnect();
    error.kind = RpcErrorKind::Protocol;
    error.message = "telemetry stream desynchronized";
    return error;
  }
  WireReader r(envelope.body);
  if (!decode_telemetry_frame(r, out) || !r.complete()) {
    disconnect();
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable telemetry frame";
    return error;
  }
  if (out.last) disconnect();  // server ends the stream after this frame
  return error;
}

RpcError CoschedClient::stop_telemetry() {
  RpcError error;
  if (!streaming_) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "no telemetry stream on this connection";
    return error;
  }
  // Any client frame asks the server to finish; an empty payload is the
  // conventional "unsubscribe".
  FrameStatus frame_status =
      write_frame(socket_, {},
                  Deadline::after(options_.request_timeout_seconds));
  if (frame_status != FrameStatus::Ok) {
    disconnect();
    error.kind = RpcErrorKind::Transport;
    error.frame = frame_status;
    error.message = std::string("sending unsubscribe failed (") +
                    to_string(frame_status) + ")";
  }
  return error;
}

RpcError CoschedClient::shutdown_server(ShutdownResponse& out) {
  ResponseEnvelope envelope;
  RpcError error = call(MessageType::Shutdown, {}, false, envelope);
  if (!error.ok()) return error;
  WireReader r(envelope.body);
  out.virtual_now = r.real();
  if (!r.complete()) {
    error.kind = RpcErrorKind::Protocol;
    error.message = "undecodable Shutdown response body";
  }
  return error;
}

}  // namespace cosched
