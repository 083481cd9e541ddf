// CoschedServer — TCP front door of the online co-scheduling service.
//
// The accept loop, worker pool, framed session loop and the request
// dispatcher are the shared SessionCore (rpc/session_core.hpp); this class
// supplies its verbs from one in-process LocalShard — the same mapping from
// the scheduler to wire responses and RpcStatus a router's local shards use.
// LocalShard's reads are closures the service runs on its one scheduler
// thread, in FIFO order with the submissions:
//
//   session workers ──> SessionCore::dispatch ──> LocalShard ──> service
//
// Every scheduler command waits for the scheduler at most the request
// deadline (`request_deadline_seconds`; a drain ten times that, since it
// may wait behind another drain): an expired budget turns into an
// RpcStatus::DeadlineExpired response, never a stuck worker, and the
// command does not run. On top of the core it feeds every finished request
// to the latency histogram, reports that histogram and the admission queue
// wait in GetMetrics, and serves /metrics from the process registry and
// /healthz (liveness).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "online/live_service.hpp"
#include "rpc/session_core.hpp"
#include "shard/backend.hpp"

namespace cosched {

struct ServerOptions : SessionOptions {
  /// Shard identity advertised in SubmitJob acks and the GetMetrics shard
  /// block. -1 = standalone server; a shard router's RPC-addressable
  /// backend is a plain CoschedServer started with its shard id set.
  std::int32_t shard_id = -1;
  LiveServiceOptions service;
};

class CoschedServer : public SessionCore {
 public:
  explicit CoschedServer(ServerOptions options);
  ~CoschedServer() override;

  LiveSchedulerService& service() { return shard_.service(); }

 private:
  bool prepare(std::string& error) override;
  void stopped() override;
  /// Latency histogram observation (with its exemplar).
  void request_done(std::uint64_t trace_id, const WallTimer& timer) override;

  RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                   std::string& error, std::uint64_t trace_id) override {
    (void)trace_id;  // installed as the thread's trace context by the core
    return shard_.submit(job, out, error);
  }
  RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                       std::string& error) override {
    return shard_.job_status(job_id, out, error);
  }
  RpcStatus job_timeline(std::int64_t job_id, JobTimelineResponse& out,
                         std::string& error) override {
    return shard_.job_timeline(job_id, out, error);
  }
  RpcStatus snapshot(ServiceSnapshot& out, std::string& error) override {
    return shard_.snapshot(out, error);
  }
  /// The shard's counters plus this process's A* counters, request
  /// latency and admission queue wait.
  RpcStatus metrics(MetricsResponse& out, std::string& error) override;
  RpcStatus drain(DrainResponse& out, std::string& error) override {
    return shard_.drain(out, error);
  }

  /// Registers the callback metrics bridging server/cache state into the
  /// process registry; unregister_observability() drops them (stop()).
  void register_observability();
  void unregister_observability();

  LocalShard shard_;
  /// Cached at start(): workers observe without touching the registry map
  /// (whose mutex the /metrics render holds while sampling callbacks).
  HistogramMetric* request_latency_ = nullptr;
  HistogramMetric* queue_wait_metric_ = nullptr;
  Counter* astar_searches_ = nullptr;
  Counter* astar_expansions_ = nullptr;
  Counter* astar_heuristic_evals_ = nullptr;
  std::vector<std::string> callback_names_;
};

}  // namespace cosched
