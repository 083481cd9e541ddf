#include "rpc/server.hpp"

#include <cstdlib>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "online/metrics.hpp"
#include "util/timer.hpp"

namespace cosched {

CoschedServer::CoschedServer(ServerOptions options)
    : SessionCore(options, "rpc.request", 0xC05C4EDB00C5ULL),
      shard_id_(options.shard_id),
      service_(std::make_unique<LiveSchedulerService>(options.service)) {
  // Shard-addressable servers tag the request span with their shard id, so
  // a merged fleet dump attributes every span to its shard.
  if (shard_id_ >= 0) span_suffix_ = " shard=" + std::to_string(shard_id_);
}

CoschedServer::~CoschedServer() { stop(); }

bool CoschedServer::prepare(std::string& error) {
  // SLO watchdog: scrape-and-evaluate on a background tick. A standalone
  // server gets the default burn-rate rules against its latency budget
  // unless the caller supplied a rule file.
  start_alerts(options_.alerts, service_->journal());

  if (HttpEndpoint* http = open_http()) {
    http->handle("/metrics", [this](const std::string&, std::string& body,
                                    std::string& content_type) {
      // Exemplars ride on the side door: a Grafana heatmap cell links
      // straight to the trace behind it. The labeled log/journal families
      // are hand-rendered (the registry callbacks are label-free).
      body = MetricsRegistry::global().render_prometheus(true);
      body += render_log_metrics();
      body += render_journal_metrics(service_->journal());
      if (alerts_) body += render_alert_metrics(*alerts_);
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    http->handle("/healthz", [this](const std::string&, std::string& body,
                                    std::string&) {
      // Firing alerts degrade the verdict (still 200 — the process serves)
      // so a fleet prober sees the watchdog's judgement, not just liveness.
      std::vector<std::string> firing =
          alerts_ ? alerts_->firing_rules() : std::vector<std::string>{};
      if (firing.empty()) {
        body = "ok\n";
      } else {
        body = "degraded: firing";
        for (const std::string& rule : firing) body += " " + rule;
        body += "\n";
      }
      return true;
    });
    http->handle("/alerts", [this](const std::string& target,
                                   std::string& body,
                                   std::string& content_type) {
      std::vector<AlertView> views =
          alerts_ ? alerts_->views() : std::vector<AlertView>{};
      if (http_query_param(target, "format") == "json") {
        body = render_alerts_json(views, alerts_ != nullptr);
        content_type = "application/json";
      } else {
        body = render_alerts_text(views, alerts_ != nullptr);
      }
      return true;
    });
    http->handle("/debug/events", [this](const std::string& target,
                                         std::string& body, std::string&) {
      // ?job=<id> filters to one job's timeline; bare = the newest 256
      // decisions fleet-wide (the firehose view).
      const DecisionJournal& journal = service_->journal();
      const std::string job_param = http_query_param(target, "job");
      if (!job_param.empty()) {
        char* end = nullptr;
        long long id = std::strtoll(job_param.c_str(), &end, 10);
        if (end == job_param.c_str() || *end != '\0') {
          body = "bad job id: " + job_param + "\n";
          return true;
        }
        JobTimeline timeline = journal.query(static_cast<std::int64_t>(id));
        body = "job=" + std::to_string(id) +
               " events=" + std::to_string(timeline.events.size()) +
               " truncated=" + (timeline.truncated ? "1" : "0") + "\n";
        for (const JournalEvent& event : timeline.events)
          body += render_journal_event(event) + "\n";
        return true;
      }
      for (const JournalEvent& event : journal.tail(256))
        body += render_journal_event(event) + "\n";
      return true;
    });
    if (!http->start(error)) return false;
  }
  register_observability();
  return true;
}

void CoschedServer::stopped() {
  unregister_observability();
  service_->stop();
}

void CoschedServer::register_observability() {
  MetricsRegistry& reg = MetricsRegistry::global();
  request_latency_ = &reg.histogram(
      "cosched_rpc_request_seconds", "RPC request service time",
      {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
       1.0, 2.5});
  queue_wait_metric_ = &reg.histogram(kQueueWaitMetricName,
                                      kQueueWaitMetricHelp,
                                      queue_wait_metric_edges());
  auto cb = [&](const char* name, const char* help, const char* type,
                std::function<double()> sample) {
    reg.callback(name, help, type, std::move(sample));
    callback_names_.push_back(name);
  };
  // Retired oracle-cache counters: always zero (see oracle_cache.hpp).
  const DegradationCache& cache = service_->oracle_cache();
  cb("cosched_cache_hits_total", "oracle cache hits", "counter",
     [&cache] { return static_cast<double>(cache.stats().hits); });
  cb("cosched_cache_misses_total", "oracle cache misses", "counter",
     [&cache] { return static_cast<double>(cache.stats().misses); });
  cb("cosched_cache_entries", "oracle cache live entries", "gauge",
     [&cache] { return static_cast<double>(cache.stats().entries); });
  cb("cosched_cache_evictions_total",
     "oracle cache entries dropped by compaction", "counter",
     [&cache] { return static_cast<double>(cache.stats().evictions); });
  cb("cosched_cache_compactions_total", "oracle cache compaction passes",
     "counter",
     [&cache] { return static_cast<double>(cache.stats().compactions); });
  cb("cosched_rpc_connections_active", "sessions currently being served",
     "gauge", [this] { return static_cast<double>(active_sessions()); });
  cb("cosched_rpc_queue_depth", "accepted connections awaiting a worker",
     "gauge", [this] { return static_cast<double>(queued_connections()); });
  cb("cosched_rpc_connections_accepted_total", "connections accepted",
     "counter", [this] {
       return static_cast<double>(stats().accepted_connections);
     });
  cb("cosched_rpc_connections_rejected_total",
     "connections refused at the cap", "counter", [this] {
       return static_cast<double>(stats().rejected_connections);
     });
  cb("cosched_rpc_requests_ok_total", "requests answered Ok", "counter",
     [this] { return static_cast<double>(stats().requests_ok); });
  cb("cosched_rpc_requests_failed_total", "non-Ok responses sent", "counter",
     [this] { return static_cast<double>(stats().requests_failed); });
  cb("cosched_rpc_malformed_frames_total",
     "frames dropped as structurally invalid", "counter",
     [this] { return static_cast<double>(stats().malformed_frames); });
  cb("cosched_tracer_dropped_events_total",
     "trace events overwritten by the per-thread rings", "counter",
     [] { return static_cast<double>(Tracer::global().dropped_events()); });
  cb("cosched_tracer_buffered_events",
     "trace events currently resident across thread rings", "gauge",
     [] { return static_cast<double>(Tracer::global().event_count()); });
}

void CoschedServer::unregister_observability() {
  MetricsRegistry& reg = MetricsRegistry::global();
  for (const std::string& name : callback_names_)
    reg.unregister_callback(name);
  callback_names_.clear();
  // The latency histogram stays registered (its samples outlive the server;
  // nothing it references dies with us).
}

void CoschedServer::request_done(std::uint64_t trace_id,
                                 const WallTimer& timer) {
  if (request_latency_) request_latency_->observe(timer.seconds(), trace_id);
}

ResponseEnvelope CoschedServer::dispatch(const RequestEnvelope& request,
                                         std::uint64_t trace_id) {
  (void)trace_id;  // installed as the thread's trace context by the core
  // Per-request server-side budget. The same budget bounds the wait on the
  // scheduler thread; an expired deadline is reported, not worked through.
  Deadline deadline = Deadline::after(options_.request_deadline_seconds);
  auto remaining_seconds = [&]() -> double {
    int ms = deadline.remaining_ms();
    return ms < 0 ? -1.0 : static_cast<double>(ms) / 1000.0;
  };
  if (deadline.expired())
    return rpc_failure(RpcStatus::DeadlineExpired,
                       "request budget exhausted before dispatch");
  const char* kNoAnswer = "scheduler did not answer within the budget";

  WireWriter body;
  WireReader reader(request.body);
  switch (request.type) {
    case MessageType::SubmitJob: {
      TraceJob job;
      if (!decode_trace_job(reader, job) || !reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "malformed SubmitJob body");
      SubmitOutcome outcome;
      if (!service_->submit(job, outcome, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired, kNoAnswer);
      if (outcome.error == SubmitError::Draining)
        return rpc_failure(RpcStatus::Draining,
                           "service is draining; admissions stopped");
      if (outcome.error == SubmitError::Invalid)
        return rpc_failure(
            RpcStatus::InvalidJob,
            "job rejected (processes in [1, " +
                std::to_string(service_->total_cores()) + "], " +
                kTraceJobDomain + ")");
      SubmitJobResponse reply;
      reply.job_id = outcome.job_id;
      reply.virtual_now = outcome.virtual_now;
      reply.status = outcome.status;
      reply.shard_id = shard_id_;
      encode_submit_response(body, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "malformed QueryJobStatus body");
      StatusOutcome outcome;
      if (!service_->job_status(job_id, outcome, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired, kNoAnswer);
      if (!outcome.found)
        return rpc_failure(RpcStatus::UnknownJob,
                           "no job with id " + std::to_string(job_id));
      JobStatusResponse reply;
      reply.found = true;
      reply.virtual_now = outcome.virtual_now;
      reply.status = outcome.status;
      encode_status_response(body, reply);
      break;
    }
    case MessageType::QueryJobTimeline: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "malformed QueryJobTimeline body");
      TimelineOutcome outcome;
      if (!service_->job_timeline(job_id, outcome, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired, kNoAnswer);
      if (!outcome.found)
        return rpc_failure(RpcStatus::UnknownJob,
                           "no job with id " + std::to_string(job_id));
      JobTimelineResponse reply;
      reply.job_id = job_id;
      reply.found = true;
      reply.truncated = outcome.timeline.truncated;
      reply.virtual_now = outcome.virtual_now;
      reply.events = std::move(outcome.timeline.events);
      encode_timeline_response(body, reply);
      break;
    }
    case MessageType::GetAlerts: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected GetAlerts body");
      encode_alerts_response(body, local_alerts(alerts_.get(), shard_id_));
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "unexpected QueryScheduleSnapshot body");
      ServiceSnapshot snapshot;
      if (!service_->snapshot(snapshot, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired, kNoAnswer);
      encode_service_snapshot(body, snapshot);
      break;
    }
    case MessageType::GetMetrics: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "unexpected GetMetrics body");
      MetricsOutcome outcome;
      if (!service_->metrics(outcome, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired, kNoAnswer);
      MetricsResponse reply;
      reply.virtual_now = outcome.virtual_now;
      reply.arrivals = outcome.arrivals;
      reply.admissions = outcome.admissions;
      reply.completions = outcome.completions;
      reply.replans = outcome.replans;
      reply.migrations = outcome.migrations;
      reply.running_mean_degradation = outcome.running_mean_degradation;
      reply.cache = outcome.cache;
      reply.deterministic_csv = outcome.deterministic_csv;
      MetricsRegistry& reg = MetricsRegistry::global();
      reply.astar_searches =
          reg.counter("cosched_astar_searches_total", "graph searches run")
              .value();
      reply.astar_expansions =
          reg.counter("cosched_astar_expansions_total", "subpaths expanded")
              .value();
      reply.astar_heuristic_evals =
          reg.counter("cosched_astar_heuristic_evals_total",
                      "h(v) evaluations")
              .value();
      ServerStats snapshot = stats();
      reply.rpc_requests_ok = snapshot.requests_ok;
      reply.rpc_requests_failed = snapshot.requests_failed;
      if (request_latency_) {
        Histogram latency = request_latency_->snapshot();
        reply.rpc_request_count = latency.count();
        reply.rpc_request_seconds_sum = latency.sum();
        reply.rpc_request_seconds_p99 = latency.quantile(0.99);
        const Exemplar* newest = nullptr;
        for (const Exemplar& exemplar : latency.exemplars())
          if (exemplar.valid && (!newest || exemplar.seq > newest->seq))
            newest = &exemplar;
        if (newest) {
          reply.latency_exemplar_trace_id = newest->trace_id;
          reply.latency_exemplar_seconds = newest->value;
        }
      }
      if (queue_wait_metric_) {
        Histogram queue_wait = queue_wait_metric_->snapshot();
        reply.queue_wait_count = queue_wait.count();
        reply.queue_wait_seconds_sum = queue_wait.sum();
        reply.queue_wait_seconds_p99 = queue_wait.quantile(0.99);
      }
      reply.tracer_dropped_events = Tracer::global().dropped_events();
      // Shard/fan-in block of a single instance: its identity and its
      // spillover signals. A standalone server fronts no shards, so the
      // per-shard list stays empty and the router accounting zero.
      reply.shard_id = shard_id_;
      LoadProbe probe = service_->load();
      reply.command_queue_depth = probe.queue_depth;
      reply.replan_p95_seconds = probe.replan_p95_seconds;
      encode_metrics_response(body, reply);
      break;
    }
    case MessageType::TraceDump: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected TraceDump body");
      const Tracer& tracer = Tracer::global();
      TraceDumpResponse reply;
      reply.enabled = tracer.enabled();
      reply.event_count = tracer.event_count();
      reply.text = tracer.dump_text();
      reply.chrome_json = tracer.export_chrome_json();
      encode_trace_dump_response(body, reply);
      break;
    }
    case MessageType::Drain: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected Drain body");
      DrainOutcome outcome;
      if (!service_->drain(outcome, remaining_seconds()))
        return rpc_failure(RpcStatus::DeadlineExpired,
                           "drain did not finish within the budget");
      DrainResponse reply;
      reply.completions = outcome.completions;
      reply.virtual_now = outcome.virtual_now;
      encode_drain_response(body, reply);
      break;
    }
    case MessageType::Shutdown: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected Shutdown body");
      // virtual_now; 0 when the scheduler cannot answer in time.
      MetricsOutcome outcome;
      body.real(service_->metrics(outcome, remaining_seconds())
                    ? outcome.virtual_now
                    : 0.0);
      break;
    }
  }
  ResponseEnvelope response;
  response.body = body.take();
  return response;
}

}  // namespace cosched
