#include "shard/router_server.hpp"

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
  ShardRouter* router = &router_;
  if (HttpEndpoint* http = open_http(router_.journal())) {
    http->handle("/metrics", [router](const std::string&, std::string& body,
                                      std::string& content_type) {
      body = router->render_prometheus();
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    // Liveness fans in: ok / degraded answer 200 (the body carries the
    // verdict and the per-shard breakdown), a fully-down fleet answers 503
    // so dumb load-balancer probes fail over without parsing JSON.
    http->handle_status(
        "/healthz", [router](const std::string&, std::string& body,
                             std::string& content_type) {
          FleetHealth health = router->health();
          body = ShardRouter::health_json(health);
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
