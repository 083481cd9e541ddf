// RouterServer — TCP front door of a sharded deployment.
//
// The same SessionCore as CoschedServer (CSC1 frames, one protocol
// version, one request dispatcher), so every client — CoschedClient, the
// load driver, the examples — talks to a sharded fleet unchanged. Only the
// verbs differ: they go to a ShardRouter instead of one LocalShard, job ids
// are global (shard-encoded), SubmitJob acks carry the routed shard, and
// GetMetrics answers the fan-in block with the per-shard health entries.
// TraceDump fans in every remote shard (the core's remote_shards() hook):
// span names namespaced "shard<k>/", pids separated.
//
// The HTTP side door serves the *fleet* view on /metrics:
// ShardRouter::render_prometheus() — router counters, per-shard gauges and
// the merged latency histogram — instead of the process registry; /healthz
// answers the health fan-in (JSON breakdown, 503 when every shard is down).
//
// The router is borrowed, not owned: the caller builds the fleet (add
// shards), hands it in, and may keep using it directly (the router is
// thread-safe).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/session_core.hpp"
#include "shard/router.hpp"

namespace cosched {

using RouterServerOptions = SessionOptions;

class RouterServer : public SessionCore {
 public:
  /// `router` must outlive the server and have its shards added already.
  RouterServer(ShardRouter& router, RouterServerOptions options);
  ~RouterServer() override;

  ShardRouter& router() { return router_; }

 private:
  bool prepare(std::string& error) override;

  RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                   std::string& error, std::uint64_t trace_id) override {
    return router_.submit(job, out, error, trace_id);
  }
  RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                       std::string& error) override {
    return router_.job_status(job_id, out, error);
  }
  RpcStatus job_timeline(std::int64_t job_id, JobTimelineResponse& out,
                         std::string& error) override {
    return router_.job_timeline(job_id, out, error);
  }
  RpcStatus snapshot(ServiceSnapshot& out, std::string& error) override {
    return router_.snapshot(out, error);
  }
  RpcStatus metrics(MetricsResponse& out, std::string& error) override {
    return router_.metrics(out, error);
  }
  RpcStatus drain(DrainResponse& out, std::string& error) override {
    return router_.drain(out, error);
  }
  /// Local shards share this process's tracer and registry, so only the
  /// remote ones are fanned in.
  std::vector<ShardBackend*> remote_shards() override;

  ShardRouter& router_;
};

}  // namespace cosched
