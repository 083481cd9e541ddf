#include "rpc/session_core.hpp"

#include <utility>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cosched {

ResponseEnvelope rpc_failure(RpcStatus status, std::string error) {
  ResponseEnvelope response;
  response.status = status;
  response.error = std::move(error);
  return response;
}

SessionCore::SessionCore(const SessionOptions& options, const char* span_name,
                         std::uint64_t trace_seed)
    : options_(options), span_name_(span_name), trace_seed_(trace_seed) {
  COSCHED_EXPECTS(options_.worker_threads >= 1);
  COSCHED_EXPECTS(options_.max_connections >= 1);
}

bool SessionCore::start(std::string& error) {
  NetStatus status = NetStatus::Ok;
  listener_ = Socket::listen_on(options_.host, options_.port,
                                options_.backlog, status);
  if (status != NetStatus::Ok) {
    error = std::string("cannot listen on ") + options_.host + ": " +
            to_string(status);
    return false;
  }
  port_ = listener_.local_port();
  if (!prepare(error)) {
    close_side_doors();
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
  // The accept loop and the sessions poll with idle_poll_seconds slices and
  // re-check the stop flag, so joining here is bounded; the listener is only
  // closed once no thread can be inside poll() on it.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  listener_.close();
  close_side_doors();
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

HttpEndpoint* SessionCore::open_http() {
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
  return http_.get();
}

void SessionCore::start_alerts(AlertEngineOptions alert_options,
                               DecisionJournal& journal) {
  if (!options_.enable_alerts || kAlertsDisabled) return;
  if (alert_options.rules.rules.empty())
    alert_options.rules = default_alert_rules(options_.alert_budget_ms,
                                              "cosched_rpc_request_seconds");
  alerts_ = std::make_unique<AlertEngine>(std::move(alert_options));
  alerts_->set_journal(&journal);
  if (!alerts_->start()) alerts_.reset();
}

void SessionCore::close_side_doors() {
  if (http_) {
    http_->stop();
    http_.reset();
  }
  if (alerts_) {
    alerts_->stop();
    alerts_.reset();
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
        Deadline::after(options_.idle_poll_seconds), status);
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
        read_frame(socket, payload, Deadline::after(options_.idle_poll_seconds),
                   options_.max_frame_bytes);
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
      // context installed for the whole dispatch — the scheduler command
      // queue re-installs it on the scheduler thread, so replan and solver
      // spans inherit it.
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
                        options_.idle_poll_seconds));
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
