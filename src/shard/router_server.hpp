// RouterServer — TCP front door of a sharded deployment.
//
// The same SessionCore as CoschedServer (CSC1 frames, one protocol
// version), so every client — CoschedClient, the loopback bench, the
// examples — talks to a sharded fleet unchanged. The difference is the
// dispatcher: requests go to a ShardRouter instead of one
// LiveSchedulerService, job ids are global (shard-encoded), SubmitJob acks
// carry the routed shard, and GetMetrics answers the fan-in block with the
// per-shard health entries.
//
// Deliberately simpler than CoschedServer: no telemetry streaming
// (SubscribeTelemetry answers BadRequest — subscribe to the shards' own
// servers in an RPC-addressable deployment) and no per-request tail
// sampling. The HTTP side door serves the *fleet* view:
// ShardRouter::render_prometheus() — router counters, per-shard gauges and
// the merged latency histogram — instead of the process registry, /healthz
// answers the health fan-in (JSON breakdown, 503 when every shard is down)
// and /debug/profile serves the process profiler's collapsed stacks.
//
// TraceDump fans in too: the reply merges the router's own dump with each
// remote shard's dump — span names namespaced "shard<k>/", pids separated,
// flow events left intact so Perfetto stitches a request's router span to
// the shard's replan span through the shared trace id.
//
// The router is borrowed, not owned: the caller builds the fleet (add
// shards), hands it in, and may keep using it directly (the router is
// thread-safe).
#pragma once

#include <cstdint>
#include <string>

#include "rpc/session_core.hpp"
#include "shard/router.hpp"

namespace cosched {

/// The watchdog runs over the router process's registry (which includes
/// every local shard — they share the process). Remote shards run their own
/// engines; GetAlerts and /alerts fan those in shard-labelled.
using RouterServerOptions = SessionOptions;

class RouterServer : public SessionCore {
 public:
  /// `router` must outlive the server and have its shards added already.
  RouterServer(ShardRouter& router, RouterServerOptions options);
  ~RouterServer() override;

  ShardRouter& router() { return router_; }

 private:
  bool prepare(std::string& error) override;
  ResponseEnvelope dispatch(const RequestEnvelope& request,
                            std::uint64_t trace_id) override;
  /// Fleet alert fan-in: the router's own rules (shard_id == -1) plus each
  /// remote shard's GetAlerts entries rewritten with its shard id. Local
  /// shards share the process registry the router engine already watches.
  AlertsResponse collect_alerts();

  ShardRouter& router_;
};

}  // namespace cosched
