#include "shard/router_server.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/trace.hpp"

namespace cosched {

RouterServer::RouterServer(ShardRouter& router, RouterServerOptions options)
    // Distinct trace seed from CoschedServer's so router-minted ids do not
    // collide with shard-minted ones in a shared tracer.
    : SessionCore(options, "router.request", 0x40D7E45EEDULL),
      router_(router) {}

// Shards are the caller's: the router (and its scheduler threads) outlive
// this front door by design.
RouterServer::~RouterServer() { stop(); }

bool RouterServer::prepare(std::string& error) {
  // The router's own SLO watchdog. It scrapes the *fleet* page — router
  // counters, per-shard gauges and the merged latency histogram — so the
  // default burn-rate rules watch fleet-wide latency, not just this
  // process's registry. Remote shards run their own engines and are fanned
  // in by collect_alerts().
  AlertEngineOptions alert_options = options_.alerts;
  // The fleet page's latency histogram is the router-side submit latency;
  // cosched_rpc_request_seconds belongs to the shard processes.
  if (alert_options.rules.rules.empty())
    alert_options.rules = default_alert_rules(
        options_.alert_budget_ms, "cosched_router_request_seconds");
  ShardRouter* router = &router_;
  if (!alert_options.exposition_source)
    alert_options.exposition_source = [router] {
      return router->render_prometheus();
    };
  start_alerts(std::move(alert_options), router_.journal());

  if (HttpEndpoint* http = open_http()) {
    http->handle("/metrics", [this, router](const std::string&,
                                            std::string& body,
                                            std::string& content_type) {
      body = router->render_prometheus();
      if (alerts_) body += render_alert_metrics(*alerts_);
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    // Liveness fans in: ok / degraded answer 200 (the body carries the
    // verdict and the per-shard breakdown), a fully-down fleet answers 503
    // so dumb load-balancer probes fail over without parsing JSON. Firing
    // alerts — the router's own or any shard's — demote ok to degraded but
    // never change the status code: the process is still serving.
    http->handle_status(
        "/healthz", [this, router](const std::string&, std::string& body,
                                   std::string& content_type) {
          FleetHealth health = router->health();
          std::vector<std::string> firing;
          AlertsResponse fleet_alerts = collect_alerts();
          for (const AlertEntry& entry : fleet_alerts.alerts) {
            if (entry.state != static_cast<std::uint8_t>(AlertState::Firing))
              continue;
            firing.push_back(entry.shard_id < 0
                                 ? entry.rule
                                 : "shard" + std::to_string(entry.shard_id) +
                                       "/" + entry.rule);
          }
          body = ShardRouter::health_json(health, firing);
          content_type = "application/json";
          return health.state == FleetHealth::State::Down ? 503 : 200;
        });
    // Fleet alert fan-in: the router's own rules (shard=-1) plus every
    // remote shard's, shard-labelled. Text by default, ?format=json for
    // machines — same contract as the single-server /alerts.
    http->handle("/alerts", [this](const std::string& target,
                                   std::string& body,
                                   std::string& content_type) {
      AlertsResponse fleet_alerts = collect_alerts();
      std::vector<AlertView> views;
      views.reserve(fleet_alerts.alerts.size());
      for (const AlertEntry& entry : fleet_alerts.alerts) {
        AlertView view;
        view.shard_id = entry.shard_id;
        view.rule = entry.rule;
        alert_state_from(entry.state, view.state);
        view.severity = entry.severity <= 2
                            ? static_cast<AlertSeverity>(entry.severity)
                            : AlertSeverity::Warn;
        view.value = entry.value;
        view.threshold = entry.threshold;
        view.since_seconds = entry.since_seconds;
        view.detail = entry.detail;
        views.push_back(std::move(view));
      }
      if (http_query_param(target, "format") == "json") {
        body = render_alerts_json(views, fleet_alerts.engine_enabled);
        content_type = "application/json";
      } else {
        body = render_alerts_text(views, fleet_alerts.engine_enabled);
      }
      return true;
    });
    http->handle("/debug/events", [router](const std::string& target,
                                           std::string& body, std::string&) {
      // ?job=<global id> fans through to the owning shard's journal (ids
      // rewritten to the global domain); bare = the router's own spillover
      // journal tail.
      const std::string job_param = http_query_param(target, "job");
      if (!job_param.empty()) {
        char* end = nullptr;
        long long id = std::strtoll(job_param.c_str(), &end, 10);
        if (end == job_param.c_str() || *end != '\0') {
          body = "bad job id: " + job_param + "\n";
          return true;
        }
        JobTimelineResponse reply;
        std::string error;
        RpcStatus status = router->job_timeline(id, reply, error);
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
      }
      for (const JournalEvent& event : router->journal().tail(256))
        body += render_journal_event(event) + "\n";
      return true;
    });
    return http->start(error);
  }
  return true;
}

AlertsResponse RouterServer::collect_alerts() {
  AlertsResponse fleet = local_alerts(alerts_.get(), -1);
  // Remote shards run their own engines; local shards share this process's
  // registry (the router engine above already watches them), and their
  // backend answers BadRequest — skipped, not an error. A remote shard that
  // cannot answer is skipped too: a partial fan-in beats none, and the
  // failure shows in cosched_shard_rpc_errors_total.
  for (std::size_t i = 0; i < router_.shard_count(); ++i) {
    ShardBackend& shard = router_.shard(i);
    if (shard.is_local()) continue;
    AlertsResponse remote;
    std::string shard_error;
    if (shard.alerts(remote, shard_error) != RpcStatus::Ok) continue;
    for (AlertEntry& entry : remote.alerts) {
      entry.shard_id = static_cast<std::int32_t>(i);
      if (entry.state == static_cast<std::uint8_t>(AlertState::Firing))
        ++fleet.firing;
      fleet.alerts.push_back(std::move(entry));
    }
  }
  return fleet;
}

ResponseEnvelope RouterServer::dispatch(const RequestEnvelope& request,
                                        std::uint64_t trace_id) {
  WireWriter body;
  WireReader reader(request.body);
  std::string error;

  switch (request.type) {
    case MessageType::SubmitJob: {
      TraceJob job;
      if (!decode_trace_job(reader, job) || !reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "malformed SubmitJob body");
      SubmitJobResponse reply;
      RpcStatus status = router_.submit(job, reply, error, trace_id);
      if (status != RpcStatus::Ok) return rpc_failure(status, error);
      encode_submit_response(body, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "malformed QueryJobStatus body");
      JobStatusResponse reply;
      RpcStatus status = router_.job_status(job_id, reply, error);
      if (status != RpcStatus::Ok) {
        return rpc_failure(status,
                           error.empty()
                               ? "no job with id " + std::to_string(job_id)
                               : error);
      }
      encode_status_response(body, reply);
      break;
    }
    case MessageType::QueryJobTimeline: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "malformed QueryJobTimeline body");
      JobTimelineResponse reply;
      RpcStatus status = router_.job_timeline(job_id, reply, error);
      if (status != RpcStatus::Ok) {
        return rpc_failure(status,
                           error.empty()
                               ? "no job with id " + std::to_string(job_id)
                               : error);
      }
      encode_timeline_response(body, reply);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest,
                           "unexpected QueryScheduleSnapshot body");
      ServiceSnapshot snapshot;
      RpcStatus status = router_.snapshot(snapshot, error);
      if (status != RpcStatus::Ok) return rpc_failure(status, error);
      encode_service_snapshot(body, snapshot);
      break;
    }
    case MessageType::GetMetrics: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected GetMetrics body");
      MetricsResponse reply;
      RpcStatus status = router_.metrics(reply, error);
      if (status != RpcStatus::Ok) return rpc_failure(status, error);
      encode_metrics_response(body, reply);
      break;
    }
    case MessageType::TraceDump: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected TraceDump body");
      // Fan-in: the router's own dump (which covers local shards — they
      // share this process's tracer) merged with every remote shard's
      // dump, namespaced "shard<k>/" and moved to its own Perfetto pid.
      // Flow events keep their name/id so the shared trace ids draw the
      // router -> shard arrows. A shard that cannot answer is skipped: a
      // partial trace beats no trace, and the failure shows up in the
      // cosched_shard_rpc_errors_total counters.
      const Tracer& tracer = Tracer::global();
      TraceDumpResponse reply;
      reply.enabled = tracer.enabled();
      reply.event_count = tracer.event_count();
      reply.text = tracer.dump_text();
      std::vector<std::string> chrome_parts;
      chrome_parts.push_back(tracer.export_chrome_json());
      for (std::size_t i = 0; i < router_.shard_count(); ++i) {
        ShardBackend& shard = router_.shard(i);
        if (shard.is_local()) continue;
        TraceDumpResponse remote;
        std::string shard_error;
        if (shard.trace_dump(remote, shard_error) != RpcStatus::Ok) continue;
        const std::string prefix = "shard" + std::to_string(i) + "/";
        reply.event_count += remote.event_count;
        reply.text += namespace_trace_text(remote.text, prefix);
        chrome_parts.push_back(namespace_chrome_trace(
            remote.chrome_json, static_cast<int>(i) + 2, prefix));
      }
      reply.chrome_json = chrome_parts.size() == 1
                              ? std::move(chrome_parts.front())
                              : merge_chrome_traces(chrome_parts);
      encode_trace_dump_response(body, reply);
      break;
    }
    case MessageType::Drain: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected Drain body");
      DrainResponse reply;
      RpcStatus status = router_.drain(reply, error);
      if (status != RpcStatus::Ok) return rpc_failure(status, error);
      encode_drain_response(body, reply);
      break;
    }
    case MessageType::Shutdown: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected Shutdown body");
      MetricsResponse fleet;
      body.real(router_.metrics(fleet, error) == RpcStatus::Ok
                    ? fleet.virtual_now
                    : 0.0);
      break;
    }
    case MessageType::GetAlerts: {
      if (!reader.complete())
        return rpc_failure(RpcStatus::BadRequest, "unexpected GetAlerts body");
      encode_alerts_response(body, collect_alerts());
      break;
    }
  }
  ResponseEnvelope response;
  response.body = body.take();
  return response;
}

}  // namespace cosched
