#include "shard/backend.hpp"

#include "obs/trace.hpp"

namespace cosched {

// ---- LocalShard -----------------------------------------------------------

namespace {

constexpr const char* kNoAnswer = "scheduler did not answer within the budget";

std::string no_job(std::int64_t job_id) {
  return "no job with id " + std::to_string(job_id);
}

}  // namespace

LocalShard::LocalShard(std::int32_t shard_id, LiveServiceOptions options,
                       double command_timeout_seconds)
    : shard_id_(shard_id),
      timeout_(command_timeout_seconds),
      service_(std::move(options)) {}

RpcStatus LocalShard::submit(const TraceJob& job, SubmitJobResponse& out,
                             std::string& error) {
  SubmitOutcome outcome;
  if (!service_.submit(job, outcome, timeout_)) {
    error = kNoAnswer;
    return RpcStatus::DeadlineExpired;
  }
  switch (outcome.error) {
    case SubmitError::Draining:
      error = "service is draining; admissions stopped";
      return RpcStatus::Draining;
    case SubmitError::Invalid:
      error = "job rejected (processes in [1, " +
              std::to_string(service_.total_cores()) + "], " +
              kTraceJobDomain + ")";
      return RpcStatus::InvalidJob;
    case SubmitError::None:
      break;
  }
  out.job_id = outcome.job_id;
  out.virtual_now = outcome.virtual_now;
  out.status = std::move(outcome.status);
  out.shard_id = shard_id_;
  return RpcStatus::Ok;
}

RpcStatus LocalShard::job_status(std::int64_t job_id, JobStatusResponse& out,
                                 std::string& error) {
  auto read = [job_id](OnlineScheduler& scheduler) {
    JobStatusResponse response;
    response.virtual_now = scheduler.now();
    if (job_id >= 0 && job_id < scheduler.job_count()) {
      response.found = true;
      response.status = scheduler.job_status(job_id);
    }
    return response;
  };
  if (!service_.call(read, out, timeout_)) {
    error = kNoAnswer;
    return RpcStatus::DeadlineExpired;
  }
  if (!out.found) {
    error = no_job(job_id);
    return RpcStatus::UnknownJob;
  }
  return RpcStatus::Ok;
}

RpcStatus LocalShard::job_timeline(std::int64_t job_id,
                                   JobTimelineResponse& out,
                                   std::string& error) {
  auto read = [job_id](OnlineScheduler& scheduler) {
    JobTimelineResponse response;
    response.job_id = job_id;
    response.virtual_now = scheduler.now();
    if (job_id >= 0 && job_id < scheduler.job_count()) {
      JobTimeline timeline = scheduler.job_timeline(job_id);
      response.found = true;
      response.truncated = timeline.truncated;
      response.events = std::move(timeline.events);
    }
    return response;
  };
  if (!service_.call(read, out, timeout_)) {
    error = kNoAnswer;
    return RpcStatus::DeadlineExpired;
  }
  if (!out.found) {
    error = no_job(job_id);
    return RpcStatus::UnknownJob;
  }
  return RpcStatus::Ok;
}

RpcStatus LocalShard::snapshot(ServiceSnapshot& out, std::string& error) {
  auto read = [](OnlineScheduler& scheduler) {
    return scheduler.service_snapshot();
  };
  if (!service_.call(read, out, timeout_)) {
    error = kNoAnswer;
    return RpcStatus::DeadlineExpired;
  }
  return RpcStatus::Ok;
}

RpcStatus LocalShard::metrics(MetricsResponse& out, std::string& error) {
  // Scheduler counters + the load fields. The process-level fields (A*
  // counters, RPC latency, session counters) are the front door's to add.
  auto read = [](OnlineScheduler& scheduler) {
    const SchedulerMetrics& m = scheduler.metrics();
    MetricsResponse response;
    response.virtual_now = scheduler.now();
    response.arrivals = m.arrivals();
    response.admissions = m.admissions();
    response.completions = m.completions();
    response.replans = m.replans();
    response.migrations = m.migrations();
    response.running_mean_degradation = m.running_mean_degradation();
    response.cache = scheduler.oracle_cache().stats();
    response.deterministic_csv = m.render_deterministic_csv();
    return response;
  };
  if (!service_.call(read, out, timeout_)) {
    error = kNoAnswer;
    return RpcStatus::DeadlineExpired;
  }
  out.shard_id = shard_id_;
  LoadProbe probe = service_.load();
  out.command_queue_depth = probe.queue_depth;
  out.replan_p95_seconds = probe.replan_p95_seconds;
  return RpcStatus::Ok;
}

RpcStatus LocalShard::drain(DrainResponse& out, std::string& error) {
  DrainOutcome outcome;
  // The budget bounds only the wait for the scheduler, but a drain may
  // wait behind another drain, which runs every queued job to completion —
  // give it an order of magnitude more than a unary command.
  if (!service_.drain(outcome, timeout_ * 10.0)) {
    error = "drain did not get the scheduler within the budget";
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

template <typename Call>
RpcStatus RemoteShard::call(std::string& error, Call&& client_call) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Forward the calling thread's trace id; 0 (no context on this thread —
  // e.g. a background load refresh) lets the client derive its own.
  client_.set_trace_id(Tracer::current_context().trace_id);
  RpcError rpc = client_call();
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
  return rpc.kind == RpcErrorKind::Application ? rpc.app
                                               : RpcStatus::ServerError;
}

RpcStatus RemoteShard::submit(const TraceJob& job, SubmitJobResponse& out,
                              std::string& error) {
  RpcStatus status =
      call(error, [&] { return client_.submit_job(job, out); });
  if (status == RpcStatus::Ok && out.shard_id < 0) out.shard_id = shard_id_;
  return status;
}

RpcStatus RemoteShard::job_status(std::int64_t job_id, JobStatusResponse& out,
                                  std::string& error) {
  return call(error, [&] { return client_.query_job_status(job_id, out); });
}

RpcStatus RemoteShard::job_timeline(std::int64_t job_id,
                                    JobTimelineResponse& out,
                                    std::string& error) {
  return call(error,
              [&] { return client_.query_job_timeline(job_id, out); });
}

RpcStatus RemoteShard::snapshot(ServiceSnapshot& out, std::string& error) {
  return call(error, [&] { return client_.query_snapshot(out); });
}

RpcStatus RemoteShard::metrics(MetricsResponse& out, std::string& error) {
  return call(error, [&] {
    RpcError rpc = client_.get_metrics(out);
    if (rpc.ok()) {
      if (out.shard_id < 0) out.shard_id = shard_id_;
      cached_load_.queue_depth =
          static_cast<std::size_t>(out.command_queue_depth);
      cached_load_.arrivals = out.arrivals;
      cached_load_.completions = out.completions;
      cached_load_.virtual_now = out.virtual_now;
      cached_load_.replan_p95_seconds = out.replan_p95_seconds;
    }
    return rpc;
  });
}

RpcStatus RemoteShard::drain(DrainResponse& out, std::string& error) {
  return call(error, [&] { return client_.drain(out); });
}

LoadProbe RemoteShard::load() {
  std::lock_guard<std::mutex> lock(mutex_);
  return cached_load_;
}

bool RemoteShard::probe(std::string& error) {
  MetricsResponse ignored;
  return metrics(ignored, error) == RpcStatus::Ok;
}

RpcStatus RemoteShard::trace_dump(TraceDumpResponse& out, std::string& error) {
  return call(error, [&] { return client_.trace_dump(out); });
}

ShardRpcErrors RemoteShard::rpc_errors() const {
  ShardRpcErrors errors;
  errors.transport = transport_errors_.load(std::memory_order_relaxed);
  errors.protocol = protocol_errors_.load(std::memory_order_relaxed);
  errors.application = application_errors_.load(std::memory_order_relaxed);
  return errors;
}

}  // namespace cosched
