#include "shard/backend.hpp"

#include "obs/trace.hpp"

namespace cosched {

// ---- LocalShard -----------------------------------------------------------

LocalShard::LocalShard(std::int32_t shard_id, LiveServiceOptions options,
                       double command_timeout_seconds)
    : shard_id_(shard_id),
      timeout_(command_timeout_seconds),
      service_(std::move(options)) {}

RpcStatus LocalShard::submit(const TraceJob& job, SubmitJobResponse& out,
                             std::string& error) {
  SubmitOutcome outcome;
  if (!service_.submit(job, outcome, timeout_)) {
    error = "shard command queue timeout";
    return RpcStatus::DeadlineExpired;
  }
  switch (outcome.error) {
    case SubmitError::Draining:
      error = "shard is draining";
      return RpcStatus::Draining;
    case SubmitError::Invalid:
      error = "job rejected by shard";
      return RpcStatus::InvalidJob;
    case SubmitError::None:
      break;
  }
  out.job_id = outcome.job_id;
  out.virtual_now = outcome.virtual_now;
  out.status = outcome.status;
  out.shard_id = shard_id_;
  return RpcStatus::Ok;
}

RpcStatus LocalShard::job_status(std::int64_t job_id, JobStatusResponse& out,
                                 std::string& error) {
  StatusOutcome outcome;
  if (!service_.job_status(job_id, outcome, timeout_)) {
    error = "shard command queue timeout";
    return RpcStatus::DeadlineExpired;
  }
  out.found = outcome.found;
  out.virtual_now = outcome.virtual_now;
  out.status = outcome.status;
  return outcome.found ? RpcStatus::Ok : RpcStatus::UnknownJob;
}

RpcStatus LocalShard::job_timeline(std::int64_t job_id,
                                   JobTimelineResponse& out,
                                   std::string& error) {
  TimelineOutcome outcome;
  if (!service_.job_timeline(job_id, outcome, timeout_)) {
    error = "shard command queue timeout";
    return RpcStatus::DeadlineExpired;
  }
  out.job_id = job_id;
  out.found = outcome.found;
  out.truncated = outcome.timeline.truncated;
  out.virtual_now = outcome.virtual_now;
  out.events = std::move(outcome.timeline.events);
  if (!outcome.found) {
    error = "no job with id " + std::to_string(job_id);
    return RpcStatus::UnknownJob;
  }
  return RpcStatus::Ok;
}

RpcStatus LocalShard::snapshot(ServiceSnapshot& out, std::string& error) {
  if (!service_.snapshot(out, timeout_)) {
    error = "shard command queue timeout";
    return RpcStatus::DeadlineExpired;
  }
  return RpcStatus::Ok;
}

RpcStatus LocalShard::metrics(MetricsResponse& out, std::string& error) {
  MetricsOutcome outcome;
  if (!service_.metrics(outcome, timeout_)) {
    error = "shard command queue timeout";
    return RpcStatus::DeadlineExpired;
  }
  // Scheduler counters + the load fields. The observability fields (A*
  // counters, RPC latency) describe a CoschedServer process, which an
  // in-process shard does not run — they stay zero.
  out = MetricsResponse{};
  out.virtual_now = outcome.virtual_now;
  out.arrivals = outcome.arrivals;
  out.admissions = outcome.admissions;
  out.completions = outcome.completions;
  out.replans = outcome.replans;
  out.migrations = outcome.migrations;
  out.running_mean_degradation = outcome.running_mean_degradation;
  out.cache = outcome.cache;
  out.deterministic_csv = outcome.deterministic_csv;
  out.shard_id = shard_id_;
  LoadProbe probe = service_.load();
  out.command_queue_depth = probe.queue_depth;
  out.replan_p95_seconds = probe.replan_p95_seconds;
  return RpcStatus::Ok;
}

RpcStatus LocalShard::drain(DrainResponse& out, std::string& error) {
  DrainOutcome outcome;
  // Drain runs every queued job to completion — give it an order of
  // magnitude more budget than a unary command.
  if (!service_.drain(outcome, timeout_ * 10.0)) {
    error = "shard drain timeout";
    return RpcStatus::DeadlineExpired;
  }
  out.completions = outcome.completions;
  out.virtual_now = outcome.virtual_now;
  return RpcStatus::Ok;
}

// ---- RemoteShard ----------------------------------------------------------

RemoteShard::RemoteShard(std::int32_t shard_id, ClientOptions options,
                         std::int32_t total_cores)
    : shard_id_(shard_id),
      total_cores_(total_cores),
      client_(std::move(options)) {}

RpcStatus RemoteShard::fold(const RpcError& rpc, RpcStatus app_status,
                            std::string& error) {
  if (rpc.ok()) return RpcStatus::Ok;
  switch (rpc.kind) {
    case RpcErrorKind::Transport:
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RpcErrorKind::Protocol:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RpcErrorKind::Application:
      application_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RpcErrorKind::None:
      break;
  }
  error = rpc.describe();
  // Application verdicts pass through; transport/protocol failures become
  // ServerError — the shard is unreachable, not wrong.
  return rpc.kind == RpcErrorKind::Application ? app_status
                                               : RpcStatus::ServerError;
}

void RemoteShard::forward_trace_locked() {
  // 0 (no context on this thread — e.g. a background load refresh) lets
  // the client derive its own per-request id, as before.
  client_.set_trace_id(Tracer::current_context().trace_id);
}

RpcStatus RemoteShard::submit(const TraceJob& job, SubmitJobResponse& out,
                              std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.submit_job(job, out);
  RpcStatus status = fold(rpc, rpc.app, error);
  if (status == RpcStatus::Ok && out.shard_id < 0) out.shard_id = shard_id_;
  return status;
}

RpcStatus RemoteShard::job_status(std::int64_t job_id, JobStatusResponse& out,
                                  std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.query_job_status(job_id, out);
  return fold(rpc, rpc.app, error);
}

RpcStatus RemoteShard::job_timeline(std::int64_t job_id,
                                    JobTimelineResponse& out,
                                    std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.query_job_timeline(job_id, out);
  return fold(rpc, rpc.app, error);
}

RpcStatus RemoteShard::snapshot(ServiceSnapshot& out, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.query_snapshot(out);
  return fold(rpc, rpc.app, error);
}

RpcStatus RemoteShard::metrics(MetricsResponse& out, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.get_metrics(out);
  RpcStatus status = fold(rpc, rpc.app, error);
  if (status == RpcStatus::Ok) {
    if (out.shard_id < 0) out.shard_id = shard_id_;
    cached_load_.queue_depth =
        static_cast<std::size_t>(out.command_queue_depth);
    cached_load_.arrivals = out.arrivals;
    cached_load_.completions = out.completions;
    cached_load_.virtual_now = out.virtual_now;
    cached_load_.replan_p95_seconds = out.replan_p95_seconds;
  }
  return status;
}

RpcStatus RemoteShard::drain(DrainResponse& out, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.drain(out);
  return fold(rpc, rpc.app, error);
}

LoadProbe RemoteShard::load() {
  std::lock_guard<std::mutex> lock(mutex_);
  return cached_load_;
}

void RemoteShard::refresh_load() {
  MetricsResponse ignored;
  std::string error;
  metrics(ignored, error);  // side effect: cached_load_ update
}

bool RemoteShard::probe(std::string& error) {
  MetricsResponse ignored;
  return metrics(ignored, error) == RpcStatus::Ok;
}

RpcStatus RemoteShard::trace_dump(TraceDumpResponse& out, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.trace_dump(out);
  return fold(rpc, rpc.app, error);
}

RpcStatus RemoteShard::alerts(AlertsResponse& out, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  forward_trace_locked();
  RpcError rpc = client_.get_alerts(out);
  return fold(rpc, rpc.app, error);
}

ShardRpcErrors RemoteShard::rpc_errors() const {
  ShardRpcErrors errors;
  errors.transport = transport_errors_.load(std::memory_order_relaxed);
  errors.protocol = protocol_errors_.load(std::memory_order_relaxed);
  errors.application = application_errors_.load(std::memory_order_relaxed);
  return errors;
}

}  // namespace cosched
