#include "rpc/server.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "online/metrics.hpp"
#include "util/timer.hpp"

namespace cosched {

CoschedServer::CoschedServer(ServerOptions options)
    : SessionCore(options, "rpc.request", 0xC05C4EDB00C5ULL,
                  options.shard_id),
      shard_(options.shard_id, std::move(options.service),
             options.request_deadline_seconds) {}

CoschedServer::~CoschedServer() { stop(); }

bool CoschedServer::prepare(std::string& error) {
  if (HttpEndpoint* http = open_http(service().journal())) {
    http->handle("/metrics", [this](const std::string&, std::string& body,
                                    std::string& content_type) {
      // Exemplars ride on the side door: a Grafana heatmap cell links
      // straight to the trace behind it. The labeled journal families are
      // hand-rendered (the registry callbacks are label-free).
      body = MetricsRegistry::global().render_prometheus(true);
      body += render_journal_metrics(service().journal());
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    // Liveness only: a door that answers is serving.
    http->handle("/healthz", [](const std::string&, std::string& body,
                                std::string&) {
      body = "ok\n";
      return true;
    });
    if (!http->start(error)) return false;
  }
  register_observability();
  return true;
}

void CoschedServer::stopped() {
  unregister_observability();
  service().stop();
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
  // Registered here, not on the first search, so /metrics exports them
  // from the start (online replans run no search).
  astar_searches_ =
      &reg.counter("cosched_astar_searches_total", "graph searches run");
  astar_expansions_ =
      &reg.counter("cosched_astar_expansions_total", "subpaths expanded");
  astar_heuristic_evals_ =
      &reg.counter("cosched_astar_heuristic_evals_total", "h(v) evaluations");
  auto cb = [&](const char* name, const char* help, const char* type,
                std::function<double()> sample) {
    reg.callback(name, help, type, std::move(sample));
    callback_names_.push_back(name);
  };
  // Retired oracle-cache counters: always zero (see oracle_cache.hpp).
  const DegradationCache& cache = service().oracle_cache();
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

RpcStatus CoschedServer::metrics(MetricsResponse& out, std::string& error) {
  RpcStatus status = shard_.metrics(out, error);
  if (status != RpcStatus::Ok) return status;
  out.astar_searches = astar_searches_->value();
  out.astar_expansions = astar_expansions_->value();
  out.astar_heuristic_evals = astar_heuristic_evals_->value();
  if (request_latency_) {
    Histogram latency = request_latency_->snapshot();
    out.rpc_request_count = latency.count();
    out.rpc_request_seconds_sum = latency.sum();
    out.rpc_request_seconds_p99 = latency.quantile(0.99);
    const Exemplar* newest = nullptr;
    for (const Exemplar& exemplar : latency.exemplars())
      if (exemplar.valid && (!newest || exemplar.seq > newest->seq))
        newest = &exemplar;
    if (newest) {
      out.latency_exemplar_trace_id = newest->trace_id;
      out.latency_exemplar_seconds = newest->value;
    }
  }
  if (queue_wait_metric_) {
    Histogram queue_wait = queue_wait_metric_->snapshot();
    out.queue_wait_count = queue_wait.count();
    out.queue_wait_seconds_sum = queue_wait.sum();
    out.queue_wait_seconds_p99 = queue_wait.quantile(0.99);
  }
  return RpcStatus::Ok;
}

}  // namespace cosched
