// ShardBackend — the router's uniform view of one scheduler shard.
//
// A shard is one LiveSchedulerService with its own scheduler lock, its
// own virtual clock and its own metrics; the router only needs six verbs
// (submit / job_status / job_timeline / snapshot / metrics / drain) plus a
// cheap load probe for the spillover policy. Two deployments hide behind
// the interface:
//
//  * LocalShard — owns the service in-process. This is the default and the
//    deterministic one: no sockets, results are a pure function of the
//    routed submission sequence. It is also the one mapping from the
//    scheduler to the wire: its four reads are closures that the service
//    runs under its scheduler lock (LiveSchedulerService::call) and that
//    build JobStatusResponse, JobTimelineResponse, ServiceSnapshot and
//    MetricsResponse directly; submit and drain map the service's own
//    outcomes. Every RpcStatus and error text comes from here. A
//    CoschedServer serves its requests through a LocalShard too, with the
//    request deadline as the command budget.
//  * RemoteShard — speaks the RPC protocol to a CoschedServer started
//    elsewhere with ServerOptions::shard_id set (the RPC-addressable
//    deployment). Calls are serialized on one connection; the load probe
//    is the cached fan-in block of the last GetMetrics, refreshed by
//    metrics() and probe().
//
// Every verb reports an RpcStatus so the router front door can forward
// shard verdicts (Draining, InvalidJob, UnknownJob, ...) unchanged; local
// scheduler-lock timeouts and remote transport failures both surface as
// DeadlineExpired/ServerError rather than hanging the router worker.
//
// Observability across the process boundary: every remote verb forwards
// the calling thread's current trace id on the wire (the shard's spans
// then carry the router-assigned id, so a merged dump stitches into one
// request timeline), every folded failure is counted by error kind
// (transport / protocol / application — surfaced as
// cosched_shard_rpc_errors_total and the GetMetrics health block), and
// probe()/trace_dump() feed the router's /healthz and TraceDump fan-in.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "online/live_service.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"

namespace cosched {

/// Per-kind RPC failure counts a backend has folded, matching the client
/// error taxonomy. Always zero for local shards (no wire to fail on).
struct ShardRpcErrors {
  std::uint64_t transport = 0;
  std::uint64_t protocol = 0;
  std::uint64_t application = 0;
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  virtual std::int32_t shard_id() const = 0;
  virtual bool is_local() const = 0;
  virtual std::int32_t total_cores() const = 0;

  /// `job_id`s below are shard-local; the router owns the global encoding.
  virtual RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                           std::string& error) = 0;
  virtual RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                               std::string& error) = 0;
  /// The shard's decision-journal timeline of one (shard-local) job.
  virtual RpcStatus job_timeline(std::int64_t job_id, JobTimelineResponse& out,
                                 std::string& error) = 0;
  virtual RpcStatus snapshot(ServiceSnapshot& out, std::string& error) = 0;
  /// Fills the shard's own counters plus the load fields (queue depth,
  /// replan p95). The fan-in `shards` vector stays empty — nesting routers
  /// is not a thing. A LocalShard leaves the process-level fields zero.
  virtual RpcStatus metrics(MetricsResponse& out, std::string& error) = 0;
  virtual RpcStatus drain(DrainResponse& out, std::string& error) = 0;

  /// Spillover signal. Local shards answer live (lock-light atomics);
  /// remote shards answer from the snapshot cached by the last metrics()
  /// or probe() round-trip.
  virtual LoadProbe load() = 0;

  /// Liveness probe for the router's health fan-in. Local shards are up by
  /// construction (their scheduler lives in this process); remote
  /// shards answer with a GetMetrics round-trip.
  virtual bool probe(std::string& error) {
    (void)error;
    return true;
  }
  /// The shard's own trace dump, for the router's TraceDump fan-in. Only
  /// remote shards have a tracer of their own to pull — a local shard
  /// shares the process-global tracer the router already dumps.
  virtual RpcStatus trace_dump(TraceDumpResponse& out, std::string& error) {
    (void)out;
    error = "shard shares the local tracer";
    return RpcStatus::BadRequest;
  }
  /// Folded RPC failures by kind; zero for local shards.
  virtual ShardRpcErrors rpc_errors() const { return {}; }
};

/// In-process shard: owns the service. Every command waits at most
/// `command_timeout_seconds` (a drain ten times that) for the scheduler
/// lock, and one that does not get it never runs.
class LocalShard : public ShardBackend {
 public:
  LocalShard(std::int32_t shard_id, LiveServiceOptions options,
             double command_timeout_seconds = 30.0);

  std::int32_t shard_id() const override { return shard_id_; }
  bool is_local() const override { return true; }
  std::int32_t total_cores() const override { return service_.total_cores(); }

  RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                   std::string& error) override;
  RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                       std::string& error) override;
  RpcStatus job_timeline(std::int64_t job_id, JobTimelineResponse& out,
                         std::string& error) override;
  RpcStatus snapshot(ServiceSnapshot& out, std::string& error) override;
  RpcStatus metrics(MetricsResponse& out, std::string& error) override;
  RpcStatus drain(DrainResponse& out, std::string& error) override;
  LoadProbe load() override { return service_.load(); }

  LiveSchedulerService& service() { return service_; }

 private:
  std::int32_t shard_id_;
  double timeout_;
  LiveSchedulerService service_;
};

/// RPC-addressable shard: a CoschedServer somewhere else.
class RemoteShard : public ShardBackend {
 public:
  RemoteShard(std::int32_t shard_id, ClientOptions options,
              std::int32_t total_cores);

  std::int32_t shard_id() const override { return shard_id_; }
  bool is_local() const override { return false; }
  std::int32_t total_cores() const override { return total_cores_; }

  RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                   std::string& error) override;
  RpcStatus job_status(std::int64_t job_id, JobStatusResponse& out,
                       std::string& error) override;
  RpcStatus job_timeline(std::int64_t job_id, JobTimelineResponse& out,
                         std::string& error) override;
  RpcStatus snapshot(ServiceSnapshot& out, std::string& error) override;
  RpcStatus metrics(MetricsResponse& out, std::string& error) override;
  RpcStatus drain(DrainResponse& out, std::string& error) override;
  LoadProbe load() override;

  /// One GetMetrics round-trip; false (with the fold error) when the shard
  /// server is unreachable or answers garbage.
  bool probe(std::string& error) override;
  /// Pulls the shard server's own trace dump (its text + Chrome JSON).
  RpcStatus trace_dump(TraceDumpResponse& out, std::string& error) override;
  ShardRpcErrors rpc_errors() const override;

 private:
  /// Runs one client call under the connection lock, stamping the calling
  /// thread's current trace id on it (so the shard's spans join the
  /// router-assigned trace), and folds its RpcError into (status, error):
  /// application verdicts pass through, transport/protocol failures become
  /// ServerError; every failure is counted by kind.
  template <typename Call>
  RpcStatus call(std::string& error, Call&& client_call);

  std::int32_t shard_id_;
  std::int32_t total_cores_;
  std::mutex mutex_;  ///< one connection, one outstanding request
  CoschedClient client_;
  LoadProbe cached_load_;  ///< guarded by mutex_
  std::atomic<std::uint64_t> transport_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> application_errors_{0};
};

}  // namespace cosched
