#include "rpc/session_core.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "shard/backend.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

constexpr int kBacklog = 16;
/// How long a worker blocks waiting for the next frame before re-checking
/// the stop flag. Purely a responsiveness knob.
constexpr double kIdlePollSeconds = 0.2;

/// A whole decimal int64: "5x", "" and out-of-range text are refused.
bool parse_job_id(const std::string& text, std::int64_t& id) {
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, id);
  return ec == std::errc() && stop == end;
}

/// The ServerError text for a reply of `bytes` past the frame cap.
std::string over_cap_error(std::size_t bytes) {
  std::string error = "reply of ";
  error += std::to_string(bytes);
  error += " bytes exceeds the ";
  error += std::to_string(kDefaultMaxFrameBytes);
  error += "-byte frame cap";
  return error;
}

/// Encoded size of the largest reply a SubmitJob of `job` can produce: its
/// name echoed and one proc entry for each of its processes. Every other
/// field of the reply and its envelope has a fixed width.
std::size_t largest_submit_reply(const TraceJob& job) {
  SubmitJobResponse reply;
  WireWriter bare;
  encode(bare, reply);
  reply.status.procs.resize(1);
  WireWriter one;
  encode(one, reply);
  const std::size_t per_proc = one.bytes().size() - bare.bytes().size();
  return encode_response(ResponseEnvelope{}).size() + bare.bytes().size() +
         job.name.size() +
         per_proc * static_cast<std::size_t>(std::max(job.processes, 0));
}

}  // namespace

ResponseEnvelope rpc_failure(RpcStatus status, std::string error) {
  ResponseEnvelope response;
  response.status = status;
  response.error = std::move(error);
  return response;
}

SessionCore::SessionCore(const SessionOptions& options, const char* span_name,
                         std::uint64_t trace_seed, std::int32_t shard_id)
    : options_(options),
      span_name_(span_name),
      trace_seed_(trace_seed) {
  COSCHED_EXPECTS(options_.worker_threads >= 1);
  COSCHED_EXPECTS(options_.max_connections >= 1);
  // Shard-addressable servers tag the request span with their shard id, so
  // a merged fleet dump attributes every span to its shard.
  if (shard_id >= 0) span_suffix_ = " shard=" + std::to_string(shard_id);
}

bool SessionCore::start(std::string& error) {
  NetStatus status = NetStatus::Ok;
  listener_ = Socket::listen_on(options_.host, options_.port,
                                kBacklog, status);
  if (status != NetStatus::Ok) {
    error = std::string("cannot listen on ") + options_.host + ": " +
            to_string(status);
    return false;
  }
  port_ = listener_.local_port();
  if (!prepare(error)) {
    close_side_door();
    listener_.close();
    return false;
  }
  // A serving front door profiles itself: the scoped phase timers cost two
  // clock reads per phase, and /debug/profile needs data behind it.
  Profiler::global().set_enabled(true);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread(&SessionCore::accept_main, this);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back(&SessionCore::worker_main, this);
  return true;
}

void SessionCore::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  finished_.wait(lock, [&] {
    return stopping_ || shutdown_requested_.load(std::memory_order_acquire);
  });
}

void SessionCore::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  finished_.notify_all();
  // The accept loop and the sessions poll with kIdlePollSeconds slices and
  // re-check the stop flag, so joining here is bounded; the listener is only
  // closed once no thread can be inside poll() on it.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  listener_.close();
  close_side_door();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.clear();
    started_ = false;
  }
  stopped();
}

ServerStats SessionCore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

HttpEndpoint* SessionCore::open_http(const DecisionJournal& journal) {
  if (!options_.enable_http) return nullptr;
  HttpOptions http_options;
  http_options.host = options_.host;
  http_options.port = options_.http_port;
  http_ = std::make_unique<HttpEndpoint>(http_options);
  http_->handle("/debug/profile", [](const std::string&, std::string& body,
                                     std::string&) {
    // Collapsed-stack ("folded") format: one "path self_us" line per
    // phase, ready for flamegraph.pl / speedscope.
    body = Profiler::global().render_collapsed();
    return true;
  });
  http_->handle("/debug/events", [this, &journal](const std::string& target,
                                                  std::string& body,
                                                  std::string&) {
    // ?job=<id> is that job's timeline from the job_timeline verb (a
    // router resolves the global id on its owning shard); absent or empty,
    // the newest 256 events of the door's own journal (the firehose).
    const std::string job_param = http_query_param(target, "job");
    if (job_param.empty()) {
      for (const JournalEvent& event : journal.tail(256))
        body += render_journal_event(event) + "\n";
      return true;
    }
    std::int64_t id = 0;
    if (!parse_job_id(job_param, id)) {
      body = "bad job id: " + job_param + "\n";
      return true;
    }
    JobTimelineResponse reply;
    std::string error;
    RpcStatus status = job_timeline(id, reply, error);
    if (status != RpcStatus::Ok) {
      body = std::string(to_string(status)) + ": " + error + "\n";
      return true;
    }
    body = "job=" + std::to_string(id) +
           " events=" + std::to_string(reply.events.size()) +
           " truncated=" + (reply.truncated ? "1" : "0") + "\n";
    for (const JournalEvent& event : reply.events)
      body += render_journal_event(event) + "\n";
    return true;
  });
  return http_.get();
}

TraceDumpResponse SessionCore::collect_trace_dump() {
  // Local shards share this process's tracer, so the local dump covers
  // them. Flow events keep their name/id so the shared trace ids draw the
  // router -> shard arrows. A remote shard that cannot answer is skipped:
  // a partial trace beats no trace.
  const Tracer& tracer = Tracer::global();
  TraceDumpResponse reply;
  reply.enabled = tracer.enabled();
  reply.event_count = tracer.event_count();
  std::vector<std::string> chrome_parts;
  chrome_parts.push_back(tracer.export_chrome_json());
  for (ShardBackend* shard : remote_shards()) {
    TraceDumpResponse remote;
    std::string shard_error;
    if (shard->trace_dump(remote, shard_error) != RpcStatus::Ok) continue;
    const std::string prefix = "shard" + std::to_string(shard->shard_id()) + "/";
    reply.event_count += remote.event_count;
    reply.omitted_events += remote.omitted_events;
    chrome_parts.push_back(
        namespace_chrome_trace(remote.chrome_json, shard->shard_id() + 2, prefix));
  }
  // The encoded reply must fit the frame cap: what the envelope and the
  // other fields take is left for the JSON, whose oldest records go first.
  ResponseEnvelope envelope;
  WireWriter fixed;
  encode(fixed, reply);
  const std::size_t budget = kDefaultMaxFrameBytes -
                             encode_response(envelope).size() -
                             fixed.take().size();
  std::uint64_t omitted = 0;
  reply.chrome_json = merge_chrome_traces(chrome_parts, budget, omitted);
  reply.omitted_events += omitted;
  return reply;
}

ResponseEnvelope SessionCore::dispatch(const RequestEnvelope& request,
                                       std::uint64_t trace_id) {
  // The per-request budget also bounds every scheduler command the verbs
  // issue; one already spent is reported, not worked through.
  if (Deadline::after(options_.request_deadline_seconds).expired())
    return rpc_failure(RpcStatus::DeadlineExpired,
                       "request budget exhausted before dispatch");
  WireReader reader(request.body);
  TraceJob job;
  std::int64_t job_id = 0;
  switch (request.type) {
    case MessageType::SubmitJob:
      decode(reader, job);
      break;
    case MessageType::QueryJobStatus:
    case MessageType::QueryJobTimeline:
      reader(job_id);
      break;
    default:
      break;  // every other request has an empty body
  }
  if (!reader.complete())
    return rpc_failure(RpcStatus::BadRequest,
                       std::string("malformed ") + to_string(request.type) +
                           " body");

  WireWriter body;
  std::string error;
  RpcStatus status = RpcStatus::Ok;
  switch (request.type) {
    case MessageType::SubmitJob: {
      // Refused before it is submitted: a job whose reply could not be
      // sent must not be admitted while its client is told it failed.
      const std::size_t largest = largest_submit_reply(job);
      if (largest > kDefaultMaxFrameBytes) {
        status = RpcStatus::ServerError;
        error = over_cap_error(largest);
        break;
      }
      SubmitJobResponse reply;
      status = submit(job, reply, error, trace_id);
      if (status == RpcStatus::Ok) encode(body, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      JobStatusResponse reply;
      status = job_status(job_id, reply, error);
      if (status == RpcStatus::Ok) encode(body, reply);
      break;
    }
    case MessageType::QueryJobTimeline: {
      JobTimelineResponse reply;
      status = job_timeline(job_id, reply, error);
      if (status == RpcStatus::Ok) encode(body, reply);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      ServiceSnapshot reply;
      status = snapshot(reply, error);
      if (status == RpcStatus::Ok) encode(body, reply);
      break;
    }
    case MessageType::GetMetrics: {
      MetricsResponse reply;
      status = metrics(reply, error);
      if (status != RpcStatus::Ok) break;
      ServerStats session = stats();
      reply.rpc_requests_ok = session.requests_ok;
      reply.rpc_requests_failed = session.requests_failed;
      reply.tracer_dropped_events = Tracer::global().dropped_events();
      encode(body, reply);
      break;
    }
    case MessageType::Drain: {
      DrainResponse reply;
      status = drain(reply, error);
      if (status == RpcStatus::Ok) encode(body, reply);
      break;
    }
    case MessageType::Shutdown: {
      // virtual_now; 0 when the door cannot answer its metrics in time.
      MetricsResponse metrics_reply;
      ShutdownResponse reply;
      if (metrics(metrics_reply, error) == RpcStatus::Ok)
        reply.virtual_now = metrics_reply.virtual_now;
      encode(body, reply);
      break;
    }
    case MessageType::TraceDump:
      encode(body, collect_trace_dump());
      break;
  }
  if (status != RpcStatus::Ok) return rpc_failure(status, std::move(error));
  ResponseEnvelope response;
  response.body = body.take();
  return response;
}

void SessionCore::close_side_door() {
  if (http_) {
    http_->stop();
    http_.reset();
  }
}

bool SessionCore::stopping() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

std::size_t SessionCore::active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_sessions_;
}

std::size_t SessionCore::queued_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::uint64_t SessionCore::next_trace_id() {
  // Deterministic per-server sequence, mixed so server-minted ids do not
  // collide with the small integers clients tend to pick; | 1 keeps them
  // nonzero (0 means "no trace" everywhere).
  std::uint64_t n = trace_id_counter_.fetch_add(1, std::memory_order_relaxed);
  return SplitMix64(trace_seed_ + n).next() | 1;
}

void SessionCore::accept_main() {
  while (true) {
    if (stopping()) return;
    NetStatus status = NetStatus::Ok;
    Socket conn = listener_.accept_connection(
        Deadline::after(kIdlePollSeconds), status);
    if (status == NetStatus::Timeout) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;       // listener closed by stop()
    if (status != NetStatus::Ok) continue;
    if (pending_.size() + active_sessions_ >= options_.max_connections) {
      // At the cap: refuse by closing. The client sees a clean EOF before
      // any response and reports a transport error it may retry later.
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.rejected_connections;
      continue;  // `conn` closes as it goes out of scope
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.accepted_connections;
    }
    pending_.push_back(std::move(conn));
    wake_.notify_one();
  }
}

void SessionCore::worker_main() {
  while (true) {
    Socket conn;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
      ++active_sessions_;
    }
    serve_connection(std::move(conn));
    std::lock_guard<std::mutex> lock(mutex_);
    --active_sessions_;
  }
}

void SessionCore::serve_connection(Socket socket) {
  std::vector<std::uint8_t> payload;
  while (!stopping()) {
    FrameStatus frame_status =
        read_frame(socket, payload, Deadline::after(kIdlePollSeconds));
    if (frame_status == FrameStatus::Timeout) continue;  // idle connection
    if (frame_status == FrameStatus::Closed) return;     // clean disconnect
    if (frame_status != FrameStatus::Ok) {
      // Truncated / BadMagic / Oversized: the stream is unusable; count it
      // and drop the connection.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
      return;
    }

    WallTimer request_timer;
    RequestEnvelope request;
    ResponseEnvelope response;
    std::uint64_t trace_id = 0;
    if (!decode_request(payload, request)) {
      response = rpc_failure(RpcStatus::BadRequest,
                             "malformed request envelope");
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    } else {
      // Correlation: adopt the client's trace_id or mint one, and keep the
      // context installed for the whole dispatch — scheduler commands run
      // on this thread, so replan and solver spans inherit it.
      trace_id = request.trace_id != 0 ? request.trace_id : next_trace_id();
      TraceContextScope trace_scope(TraceContext{trace_id});
      COSCHED_TRACE_SPAN(request_span, span_name_, -1.0,
                         std::string("type=") + to_string(request.type) +
                             span_suffix_);
      response = request.version == kProtocolVersion
                     ? dispatch(request, trace_id)
                     : rpc_failure(RpcStatus::VersionMismatch,
                                   "server speaks protocol version " +
                                       std::to_string(kProtocolVersion));
      response.type = request.type;
      response.request_id = request.request_id;
      response.trace_id = trace_id;
    }

    // Observed and counted before the reply leaves: a client holding the
    // reply then always finds its request in /metrics and the stats. The
    // service time so excludes the socket write.
    std::vector<std::uint8_t> reply = encode_response(response);
    if (reply.size() > kDefaultMaxFrameBytes) {
      // The client's read_frame refuses a frame past the cap and drops the
      // connection; an error it can read keeps the session usable.
      response.status = RpcStatus::ServerError;
      response.error = over_cap_error(reply.size());
      response.body.clear();
      reply = encode_response(response);
    }
    request_done(trace_id, request_timer);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (response.status == RpcStatus::Ok)
        ++stats_.requests_ok;
      else
        ++stats_.requests_failed;
    }
    FrameStatus write_status = write_frame(
        socket, reply,
        Deadline::after(options_.request_deadline_seconds +
                        kIdlePollSeconds));
    if (write_status != FrameStatus::Ok) return;  // peer went away mid-reply
    if (response.status == RpcStatus::Ok &&
        response.type == MessageType::Shutdown) {
      // Acknowledged; trip the latch after the reply is on the wire.
      shutdown_requested_.store(true, std::memory_order_release);
      finished_.notify_all();
      return;
    }
  }
}

}  // namespace cosched
