// CoschedServer — TCP front door of the online co-scheduling service.
//
// The accept loop, worker pool and framed session loop are the shared
// SessionCore (rpc/session_core.hpp); this class is its dispatcher onto one
// LiveSchedulerService (1 scheduler thread, FIFO commands):
//
//   session workers ──> handle_request ──> LiveSchedulerService
//
// Every request gets a fresh server-side deadline
// (`request_deadline_seconds`), checked before dispatch and used as the
// timeout of the scheduler-thread command — an expired budget turns into an
// RpcStatus::DeadlineExpired response, never a stuck worker. On top of the
// core it feeds every finished request to the latency histogram.
//
// Drain is forwarded to the service — admissions stop, queued jobs finish,
// the fleet empties.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "online/live_service.hpp"
#include "rpc/session_core.hpp"

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

  LiveSchedulerService& service() { return *service_; }

 private:
  bool prepare(std::string& error) override;
  void stopped() override;
  /// Decodes, dispatches and encodes one request.
  ResponseEnvelope dispatch(const RequestEnvelope& request,
                            std::uint64_t trace_id) override;
  /// Latency histogram observation (with its exemplar).
  void request_done(std::uint64_t trace_id, const WallTimer& timer) override;
  /// Registers the callback metrics bridging server/cache state into the
  /// process registry; unregister_observability() drops them (stop()).
  void register_observability();
  void unregister_observability();

  const std::int32_t shard_id_;
  std::unique_ptr<LiveSchedulerService> service_;
  /// Cached at start(): workers observe without touching the registry map
  /// (whose mutex the /metrics render holds while sampling callbacks).
  HistogramMetric* request_latency_ = nullptr;
  HistogramMetric* queue_wait_metric_ = nullptr;
  std::vector<std::string> callback_names_;
};

}  // namespace cosched
