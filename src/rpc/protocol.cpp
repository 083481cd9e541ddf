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
  w(request.version, static_cast<std::uint8_t>(request.type),
    request.request_id, request.trace_id);
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
  w(response.version, static_cast<std::uint8_t>(response.type),
    response.request_id, response.trace_id,
    static_cast<std::uint8_t>(response.status), response.error);
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

}  // namespace cosched
