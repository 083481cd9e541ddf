#include "shard/router_server.hpp"

#include <utility>

namespace cosched {

RouterServer::RouterServer(ShardRouter& router, RouterServerOptions options)
    // Distinct trace seed from CoschedServer's so router-minted ids do not
    // collide with shard-minted ones in a shared tracer.
    : SessionCore(options, "router.request", 0x40D7E45EEDULL, -1),
      router_(router) {}

// Shards are the caller's: the router and its shards outlive this front
// door by design.
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

  if (HttpEndpoint* http = open_http(router_.journal())) {
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
    return http->start(error);
  }
  return true;
}

std::vector<ShardBackend*> RouterServer::remote_shards() {
  std::vector<ShardBackend*> remote;
  for (std::size_t i = 0; i < router_.shard_count(); ++i)
    if (!router_.shard(i).is_local()) remote.push_back(&router_.shard(i));
  return remote;
}

}  // namespace cosched
