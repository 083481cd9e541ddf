// ShardRouter — one front door over N independent scheduler shards.
//
// Scaling story (DESIGN.md §8): a single OnlineScheduler serializes every
// replan, and the HA* co-scheduling solve grows super-linearly in fleet
// size — so past a point, one big fleet replans slower than several small
// ones. The router splits the machine fleet into N shards, each a full
// LiveSchedulerService (own scheduler lock, own virtual clock, own
// metrics), and keeps the deployment behaving like one service:
//
//  * Admission is deterministic consistent hashing: the tenant key (job
//    name up to the first '/', so "tenantA/job17" and "tenantA/job18"
//    co-locate and keep degrading each other honestly) hashes onto a
//    virtual-node ring (HashRing). Same key → same shard, across runs and
//    processes, no coordination.
//  * Spillover is the load-aware exception: when more callers than
//    `spill_queue_depth` wait for the ring shard's scheduler, the key is
//    re-homed to the least-loaded shard and the remap is recorded — later
//    jobs of the key stick to the new shard and QueryJobStatus still
//    resolves (ids carry the shard).
//  * Job ids are global: global = local * shard_count + shard_index, so an
//    id alone names its shard; no lookup table, ids stay dense per shard.
//  * Observability fans in: GetMetrics merges per-shard counters into
//    fleet totals (Σ invariant: every total equals the sum of the shard
//    entries it ships alongside) and the Prometheus page merges per-shard
//    latency histograms through Histogram::merge — exemplars included.
//  * Health fans in too: health() probes per-shard liveness behind a
//    bounded-staleness cache (a fresh verdict is served from cache, a
//    stale one re-probes — one GetMetrics round-trip for remote shards)
//    and folds the fleet into ok / degraded / down. The Prometheus page
//    carries cosched_shard_up gauges and the per-kind
//    cosched_shard_rpc_errors_total counters the backends accumulate.
//
// Thread-safety: every public call is safe from any thread. Router state
// (ring, remap table, counters, histograms) sits behind one mutex held
// only for bookkeeping — never across a shard call, so a slow shard stalls
// its own callers, not the router.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"
#include "shard/backend.hpp"
#include "shard/hash_ring.hpp"

namespace cosched {

struct RouterOptions {
  std::int32_t vnodes_per_shard = 64;
  /// Spillover trigger: callers waiting for the ring shard's scheduler
  /// strictly above this (0 disables).
  std::size_t spill_queue_depth = 64;
  /// Remap table cap. At the cap new spillovers are refused (the key stays
  /// on its ring shard) — bounded memory beats unbounded stickiness.
  std::size_t max_remap_entries = 4096;
  /// Command budget for local shards, seconds.
  double shard_timeout_seconds = 30.0;
  /// Staleness bound of the health cache: verdicts older than this are
  /// re-probed by the next health() / render_prometheus() call.
  double health_max_age_seconds = 2.0;
};

/// One shard's liveness verdict, as cached by the health fan-in.
struct ShardHealth {
  std::int32_t shard_id = -1;
  bool local = false;
  bool up = true;
  double age_seconds = 0.0;   ///< staleness of the verdict at assembly time
  std::string error;          ///< last probe failure; empty when up
  ShardRpcErrors rpc_errors;  ///< folded RPC failures by kind
};

/// Fleet-level health fold: ok (every shard up), degraded (some up, some
/// down), down (no shard reachable).
struct FleetHealth {
  enum class State { Ok, Degraded, Down };
  State state = State::Ok;
  std::size_t shards_up = 0;
  std::vector<ShardHealth> shards;
};

const char* to_string(FleetHealth::State state);

/// Router-side accounting, all monotone.
struct RouterStats {
  std::uint64_t requests = 0;        ///< submits routed (incl. rejected)
  std::uint64_t submitted_ok = 0;    ///< submits a shard accepted
  std::uint64_t spillovers = 0;      ///< keys re-homed off their ring shard
  std::uint64_t remapped_keys = 0;   ///< live remap-table entries
  std::uint64_t remap_refused = 0;   ///< spillovers refused at the cap
  std::vector<std::uint64_t> per_shard_requests;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options = {});

  /// Fleet construction — add shards before the first submit; shard index
  /// (position of the call) is the shard id baked into global job ids.
  void add_local_shard(LiveServiceOptions service_options);
  void add_remote_shard(ClientOptions client_options,
                        std::int32_t total_cores);

  std::size_t shard_count() const { return shards_.size(); }
  ShardBackend& shard(std::size_t index) { return *shards_[index].backend; }
  std::int32_t total_cores() const;

  /// Tenant key of a job name: the prefix before the first '/', or the
  /// whole name. Keeping one tenant's jobs on one shard preserves the
  /// degradation interactions the co-scheduler models between them.
  static std::string tenant_key(const std::string& job_name);

  /// Ring shard of `job_name` ignoring remaps/spillover — what pure
  /// consistent hashing would do.
  std::int32_t ring_shard(const std::string& job_name) const;

  // ---- the five verbs, global-id domain ---------------------------------
  /// `trace_id` (when nonzero) keys the routed shard's latency exemplar, so
  /// the fleet page can point at the trace behind a slow admission.
  RpcStatus submit(const TraceJob& job, SubmitJobResponse& out,
                   std::string& error, std::uint64_t trace_id = 0);
  RpcStatus job_status(std::int64_t global_id, JobStatusResponse& out,
                       std::string& error);
  /// "Explain this placement": resolves the owning shard from the
  /// global id, pulls its decision-journal timeline, rewrites job and
  /// co-runner ids into the global domain and prepends the router's own
  /// spillover events for the job (timestamped 0.0, i.e. before any shard
  /// virtual time, so the merged list stays ordered).
  RpcStatus job_timeline(std::int64_t global_id, JobTimelineResponse& out,
                         std::string& error);
  /// Merged fleet view: machines concatenated in shard order, clocks
  /// reported at the max, job/process ids rewritten to the global domain.
  RpcStatus snapshot(ServiceSnapshot& out, std::string& error);
  /// Fan-in: per-shard entries plus fleet totals. Every total field equals
  /// the sum over `out.shards` (the invariant the replay test pins).
  RpcStatus metrics(MetricsResponse& out, std::string& error);
  /// Drains every shard (each runs its queue to completion).
  RpcStatus drain(DrainResponse& out, std::string& error);

  RouterStats stats() const;

  /// Router-owned decision journal: one Spillover event per submit that
  /// landed off its ring shard (keyed by global job id). Thread-safe.
  const DecisionJournal& journal() const { return journal_; }

  /// Liveness fan-in behind the bounded-staleness cache: shards whose
  /// cached verdict is older than `max_age_seconds` are re-probed (one
  /// GetMetrics round-trip for remote shards, free for local ones);
  /// fresher verdicts answer from cache, so a scrape storm cannot turn
  /// into a probe storm. Thread-safe; probes run outside the router lock.
  FleetHealth health(double max_age_seconds);
  /// health() at the configured RouterOptions::health_max_age_seconds.
  FleetHealth health() { return health(options_.health_max_age_seconds); }

  /// JSON breakdown of a health fold — the /healthz response body.
  static std::string health_json(const FleetHealth& health);

  /// Combined Prometheus page: router counters, per-shard gauges
  /// (including cosched_shard_up and the per-kind RPC failure counters),
  /// and the per-shard request-latency histograms merged into one fleet
  /// histogram (Histogram::merge — exemplars survive). Refreshes stale
  /// health verdicts, hence non-const.
  std::string render_prometheus();

  /// Test hook: pins shard `index`'s load probe to `probe` so spillover
  /// decisions become deterministic. Pass `enabled = false` to go back to
  /// the live probe.
  void set_load_probe_override(std::size_t index, const LoadProbe& probe,
                               bool enabled = true);

 private:
  struct ShardSlot {
    std::unique_ptr<ShardBackend> backend;
    bool probe_override = false;
    LoadProbe probe;  ///< the override, when enabled
    // Health cache, guarded by mutex_ (probes run unlocked).
    bool health_probed = false;  ///< false until the first probe
    bool health_up = true;
    std::string health_error;
    double health_checked_at = 0.0;  ///< now_seconds() of the verdict
  };

  LoadProbe probe_of(std::size_t index);
  /// Routing decision for one submit: ring shard, then remap table, then
  /// spillover. Updates counters/remap under mutex_; returns the shard
  /// index to submit to.
  std::size_t route_for_submit(const std::string& job_name);
  std::size_t least_loaded_shard_locked(
      const std::vector<LoadProbe>& probes) const;
  void rewrite_view_global(JobStatusView& view, std::size_t shard_index) const;
  /// Owning shard and shard-local id of a global job id: UnknownJob for a
  /// negative id, ServerError for a router without shards.
  RpcStatus locate(std::int64_t global_id, std::size_t& shard,
                   std::int64_t& local_id, std::string& error) const;

  std::int64_t to_global(std::int64_t local_id, std::size_t shard) const {
    return local_id < 0 ? local_id
                        : local_id * static_cast<std::int64_t>(
                                         shards_.size()) +
                              static_cast<std::int64_t>(shard);
  }

  RouterOptions options_;
  HashRing ring_;
  std::vector<ShardSlot> shards_;

  mutable std::mutex mutex_;
  /// key hash -> shard index, written by spillover. Bounded by
  /// max_remap_entries.
  std::unordered_map<std::uint64_t, std::size_t> remap_;
  RouterStats stats_;
  /// Spillover attribution, own mutex (see journal.hpp).
  DecisionJournal journal_;
  /// Per-shard router-side submit latency (wall seconds), exemplar per
  /// bucket keyed by the request's trace id. Merged for the fleet page.
  std::vector<Histogram> latency_;
};

}  // namespace cosched
