#include "shard/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics_registry.hpp"

namespace cosched {
namespace {

/// Router-side submit latency buckets, seconds. Sub-millisecond lower edges
/// because an uncontended in-process shard answers in microseconds; the
/// tail buckets catch command-queue backlog.
std::vector<Real> router_latency_edges() {
  return {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
          0.05,   0.1,   0.2,   0.5,   1.0,  2.0, 5.0};
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for health error messages.
void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

const char* to_string(FleetHealth::State state) {
  switch (state) {
    case FleetHealth::State::Ok: return "ok";
    case FleetHealth::State::Degraded: return "degraded";
    case FleetHealth::State::Down: return "down";
  }
  return "unknown";
}

ShardRouter::ShardRouter(RouterOptions options)
    : options_(options), ring_(options.vnodes_per_shard) {}

void ShardRouter::add_local_shard(LiveServiceOptions service_options) {
  std::int32_t id = static_cast<std::int32_t>(shards_.size());
  ShardSlot slot;
  slot.backend = std::make_unique<LocalShard>(
      id, std::move(service_options), options_.shard_timeout_seconds);
  shards_.push_back(std::move(slot));
  ring_.add_shard(id);
  latency_.emplace_back(router_latency_edges());
  stats_.per_shard_requests.push_back(0);
}

void ShardRouter::add_remote_shard(ClientOptions client_options,
                                   std::int32_t total_cores) {
  std::int32_t id = static_cast<std::int32_t>(shards_.size());
  ShardSlot slot;
  slot.backend = std::make_unique<RemoteShard>(id, std::move(client_options),
                                               total_cores);
  shards_.push_back(std::move(slot));
  ring_.add_shard(id);
  latency_.emplace_back(router_latency_edges());
  stats_.per_shard_requests.push_back(0);
}

std::int32_t ShardRouter::total_cores() const {
  std::int32_t total = 0;
  for (const auto& slot : shards_) total += slot.backend->total_cores();
  return total;
}

std::string ShardRouter::tenant_key(const std::string& job_name) {
  std::size_t slash = job_name.find('/');
  return slash == std::string::npos ? job_name : job_name.substr(0, slash);
}

std::int32_t ShardRouter::ring_shard(const std::string& job_name) const {
  return ring_.shard_for_key(tenant_key(job_name));
}

LoadProbe ShardRouter::probe_of(std::size_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shards_[index].probe_override) return shards_[index].probe;
  }
  return shards_[index].backend->load();
}

std::size_t ShardRouter::least_loaded_shard_locked(
    const std::vector<LoadProbe>& probes) const {
  // Least loaded = shallowest command queue, then fewest in-flight jobs,
  // then lowest index — a total order, so the pick is deterministic.
  std::size_t best = 0;
  for (std::size_t i = 1; i < probes.size(); ++i) {
    const LoadProbe& a = probes[i];
    const LoadProbe& b = probes[best];
    if (a.queue_depth != b.queue_depth) {
      if (a.queue_depth < b.queue_depth) best = i;
    } else if (a.in_flight() < b.in_flight()) {
      best = i;
    }
  }
  return best;
}

std::size_t ShardRouter::route_for_submit(const std::string& job_name) {
  std::uint64_t key_hash = HashRing::hash_key(tenant_key(job_name));
  std::size_t ring_target =
      static_cast<std::size_t>(ring_.shard_for(key_hash));

  // Remap table first: a spilled key sticks to its new home.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto remapped = remap_.find(key_hash);
    if (remapped != remap_.end()) return remapped->second;
  }

  // Spillover check — probes are read outside the lock (they are
  // lock-light by design; see LoadProbe).
  LoadProbe target_probe = probe_of(ring_target);
  bool queue_hot = options_.spill_queue_depth > 0 &&
                   target_probe.queue_depth > options_.spill_queue_depth;
  bool replan_hot =
      options_.spill_replan_p95_seconds > 0.0 &&
      target_probe.replan_p95_seconds > options_.spill_replan_p95_seconds;
  if (!queue_hot && !replan_hot) return ring_target;

  std::vector<LoadProbe> probes(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) probes[i] = probe_of(i);

  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check under the lock: another worker may have spilled this key
  // while we were probing.
  auto remapped = remap_.find(key_hash);
  if (remapped != remap_.end()) return remapped->second;
  std::size_t target = least_loaded_shard_locked(probes);
  if (target == ring_target) return ring_target;  // nowhere better
  if (remap_.size() >= options_.max_remap_entries) {
    ++stats_.remap_refused;
    return ring_target;
  }
  remap_.emplace(key_hash, target);
  ++stats_.spillovers;
  stats_.remapped_keys = remap_.size();
  return target;
}

RpcStatus ShardRouter::submit(const TraceJob& job, SubmitJobResponse& out,
                              std::string& error, std::uint64_t trace_id) {
  if (shards_.empty()) {
    error = "router has no shards";
    return RpcStatus::ServerError;
  }
  std::size_t shard = route_for_submit(job.name);
  double started = now_seconds();
  RpcStatus status = shards_[shard].backend->submit(job, out, error);
  double elapsed = now_seconds() - started;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    ++stats_.per_shard_requests[shard];
    if (status == RpcStatus::Ok) ++stats_.submitted_ok;
    latency_[shard].add(elapsed, trace_id);
  }
  if (status == RpcStatus::Ok) {
    out.shard_id = static_cast<std::int32_t>(shard);
    out.job_id = to_global(out.job_id, shard);
    rewrite_view_global(out.status, shard);
    std::size_t ring_target = static_cast<std::size_t>(ring_shard(job.name));
    if (shard != ring_target) {
      // The routed shard differs from pure consistent hashing: attribute
      // the spillover (or sticky remap) in the router journal under the
      // *global* id, timestamped 0.0 — before any shard virtual time, so a
      // merged timeline stays ordered across clock domains.
      JournalEvent event;
      event.job_id = out.job_id;
      event.kind = JournalEventKind::Spillover;
      event.time = 0.0;
      event.trace_id = trace_id;
      event.policy = "least_loaded";
      event.machine = static_cast<std::int32_t>(shard);
      event.candidates = static_cast<std::int32_t>(shards_.size());
      event.detail = "ring_shard=" + std::to_string(ring_target) +
                     " tenant=" + tenant_key(job.name);
      journal_.append(std::move(event));
      COSCHED_LOG(LogLevel::Info, "router", "submit spilled off ring shard",
                  {log_kv("job", out.job_id),
                   log_kv("ring_shard", static_cast<std::int64_t>(ring_target)),
                   log_kv("shard", static_cast<std::int64_t>(shard)),
                   log_kv("tenant", tenant_key(job.name))});
    }
  }
  return status;
}

RpcStatus ShardRouter::job_timeline(std::int64_t global_id,
                                    JobTimelineResponse& out,
                                    std::string& error) {
  if (shards_.empty()) {
    error = "router has no shards";
    return RpcStatus::ServerError;
  }
  if (global_id < 0) {
    error = "negative job id";
    return RpcStatus::UnknownJob;
  }
  std::int64_t n = static_cast<std::int64_t>(shards_.size());
  std::size_t shard = static_cast<std::size_t>(global_id % n);
  std::int64_t local_id = global_id / n;
  RpcStatus status =
      shards_[shard].backend->job_timeline(local_id, out, error);
  if (status != RpcStatus::Ok) return status;
  out.job_id = global_id;
  for (JournalEvent& event : out.events) {
    event.job_id = to_global(event.job_id, shard);
    for (std::int64_t& co : event.co_runners) co = to_global(co, shard);
  }
  // Router spillover events lead (time 0.0 ≤ every shard virtual time).
  JobTimeline routed = journal_.query(global_id);
  if (!routed.events.empty()) {
    out.events.insert(out.events.begin(), routed.events.begin(),
                      routed.events.end());
  }
  return RpcStatus::Ok;
}

RpcStatus ShardRouter::job_status(std::int64_t global_id,
                                  JobStatusResponse& out,
                                  std::string& error) {
  if (shards_.empty()) {
    error = "router has no shards";
    return RpcStatus::ServerError;
  }
  if (global_id < 0) {
    error = "negative job id";
    return RpcStatus::UnknownJob;
  }
  std::int64_t n = static_cast<std::int64_t>(shards_.size());
  std::size_t shard = static_cast<std::size_t>(global_id % n);
  std::int64_t local_id = global_id / n;
  RpcStatus status = shards_[shard].backend->job_status(local_id, out, error);
  if (out.found) rewrite_view_global(out.status, shard);
  return status;
}

RpcStatus ShardRouter::snapshot(ServiceSnapshot& out, std::string& error) {
  out = ServiceSnapshot{};
  std::int64_t live_procs = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ServiceSnapshot shard_view;
    RpcStatus status = shards_[i].backend->snapshot(shard_view, error);
    if (status != RpcStatus::Ok) return status;
    out.now = std::max(out.now, shard_view.now);
    out.pending_jobs += shard_view.pending_jobs;
    out.free_slots += shard_view.free_slots;
    out.completions += shard_view.completions;
    out.live_degradation_sum += shard_view.live_degradation_sum;
    for (auto& machine : shard_view.machines) {
      for (auto& proc : machine) {
        proc.gid = to_global(proc.gid, i);
        proc.job = to_global(proc.job, i);
        ++live_procs;
      }
      out.machines.push_back(std::move(machine));
    }
  }
  out.mean_live_degradation =
      live_procs == 0 ? 0.0
                      : out.live_degradation_sum /
                            static_cast<Real>(live_procs);
  return RpcStatus::Ok;
}

RpcStatus ShardRouter::metrics(MetricsResponse& out, std::string& error) {
  out = MetricsResponse{};
  out.shard_id = -1;  // the router itself is not a shard
  std::ostringstream csv;
  std::uint64_t mean_weight = 0;
  Real mean_weighted_sum = 0.0;
  RouterStats router = stats();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    MetricsResponse shard_view;
    RpcStatus status = shards_[i].backend->metrics(shard_view, error);
    if (status != RpcStatus::Ok) return status;

    ShardMetricsEntry entry;
    entry.shard_id = static_cast<std::int32_t>(i);
    entry.requests = router.per_shard_requests[i];
    entry.arrivals = shard_view.arrivals;
    entry.admissions = shard_view.admissions;
    entry.completions = shard_view.completions;
    entry.replans = shard_view.replans;
    entry.migrations = shard_view.migrations;
    entry.virtual_now = shard_view.virtual_now;
    entry.queue_depth = shard_view.command_queue_depth;
    entry.replan_p95_seconds = shard_view.replan_p95_seconds;
    out.shards.push_back(entry);

    // Fleet totals: counters sum over shards (the Σ invariant the replay
    // test pins); the clock reports the furthest shard; the running mean
    // is completion-weighted; p95 reports the worst shard (a fleet-wide
    // percentile needs the buckets, which the Prometheus page merges).
    out.arrivals += entry.arrivals;
    out.admissions += entry.admissions;
    out.completions += entry.completions;
    out.replans += entry.replans;
    out.migrations += entry.migrations;
    out.command_queue_depth += entry.queue_depth;
    out.virtual_now = std::max(out.virtual_now, entry.virtual_now);
    out.replan_p95_seconds =
        std::max(out.replan_p95_seconds, entry.replan_p95_seconds);
    if (entry.completions > 0) {
      mean_weight += entry.completions;
      mean_weighted_sum += shard_view.running_mean_degradation *
                           static_cast<Real>(entry.completions);
    }
    out.cache.hits += shard_view.cache.hits;
    out.cache.misses += shard_view.cache.misses;
    out.cache.entries += shard_view.cache.entries;
    out.cache.evictions += shard_view.cache.evictions;
    out.cache.compactions += shard_view.cache.compactions;
    csv << "# shard " << i << "\n" << shard_view.deterministic_csv;
  }
  if (mean_weight > 0) {
    out.running_mean_degradation =
        mean_weighted_sum / static_cast<Real>(mean_weight);
  }
  out.deterministic_csv = csv.str();
  out.router_spillovers = router.spillovers;
  out.router_remapped_keys = router.remapped_keys;
  // Health block: every shard answered its metrics round-trip above
  // (fail-fast on the first miss preserves the Σ invariant), so each is up
  // by observation; record that in the health cache too — a successful
  // GetMetrics is exactly the probe a stale verdict would re-run.
  double checked_at = now_seconds();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardHealthEntry health;
    health.shard_id = static_cast<std::int32_t>(i);
    health.up = true;
    ShardRpcErrors rpc_errors = shards_[i].backend->rpc_errors();
    health.transport_errors = rpc_errors.transport;
    health.protocol_errors = rpc_errors.protocol;
    health.application_errors = rpc_errors.application;
    out.shard_health.push_back(health);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& slot : shards_) {
      slot.health_probed = true;
      slot.health_up = true;
      slot.health_error.clear();
      slot.health_checked_at = checked_at;
    }
  }
  return RpcStatus::Ok;
}

RpcStatus ShardRouter::drain(DrainResponse& out, std::string& error) {
  out = DrainResponse{};
  for (auto& slot : shards_) {
    DrainResponse shard_out;
    RpcStatus status = slot.backend->drain(shard_out, error);
    if (status != RpcStatus::Ok) return status;
    out.completions += shard_out.completions;
    out.virtual_now = std::max(out.virtual_now, shard_out.virtual_now);
  }
  return RpcStatus::Ok;
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

FleetHealth ShardRouter::health(double max_age_seconds) {
  FleetHealth fleet;
  fleet.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    bool need_probe;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const ShardSlot& slot = shards_[i];
      need_probe = !slot.health_probed ||
                   now_seconds() - slot.health_checked_at > max_age_seconds;
    }
    if (need_probe) {
      // Probe outside the lock: a dead remote shard costs its connect
      // timeout here, and must stall only this caller, not the router.
      std::string error;
      bool up = shards_[i].backend->probe(error);
      std::lock_guard<std::mutex> lock(mutex_);
      ShardSlot& slot = shards_[i];
      slot.health_probed = true;
      slot.health_up = up;
      slot.health_error = up ? std::string() : error;
      slot.health_checked_at = now_seconds();
    }
    ShardHealth entry;
    entry.shard_id = static_cast<std::int32_t>(i);
    entry.local = shards_[i].backend->is_local();
    entry.rpc_errors = shards_[i].backend->rpc_errors();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const ShardSlot& slot = shards_[i];
      entry.up = slot.health_up;
      entry.error = slot.health_error;
      entry.age_seconds =
          std::max(0.0, now_seconds() - slot.health_checked_at);
    }
    if (entry.up) ++fleet.shards_up;
    fleet.shards.push_back(std::move(entry));
  }
  if (fleet.shards.empty() || fleet.shards_up == 0)
    fleet.state = FleetHealth::State::Down;
  else if (fleet.shards_up < fleet.shards.size())
    fleet.state = FleetHealth::State::Degraded;
  else
    fleet.state = FleetHealth::State::Ok;
  return fleet;
}

std::string ShardRouter::health_json(
    const FleetHealth& health, const std::vector<std::string>& firing_alerts) {
  // A fleet whose transports are all up but whose watchdog is paging is
  // not "ok": firing alerts demote the verdict one notch (never below the
  // transport fold — a down fleet stays down).
  const char* status = to_string(health.state);
  if (!firing_alerts.empty() && health.state == FleetHealth::State::Ok)
    status = "degraded";
  std::string out = "{\"status\":\"";
  out += status;
  if (!firing_alerts.empty()) {
    out += "\",\"firing_alerts\":[";
    for (std::size_t i = 0; i < firing_alerts.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      append_json_escaped(out, firing_alerts[i]);
      out += "\"";
    }
    out += "],\"transport\":\"";
    out += to_string(health.state);
  }
  out += "\",\"shards_up\":" + std::to_string(health.shards_up);
  out += ",\"shards_total\":" + std::to_string(health.shards.size());
  out += ",\"shards\":[";
  for (std::size_t i = 0; i < health.shards.size(); ++i) {
    const ShardHealth& shard = health.shards[i];
    if (i > 0) out += ",";
    out += "{\"shard\":" + std::to_string(shard.shard_id);
    out += std::string(",\"backend\":\"") +
           (shard.local ? "local" : "remote") + "\"";
    out += std::string(",\"up\":") + (shard.up ? "true" : "false");
    char age[32];
    std::snprintf(age, sizeof(age), "%.3f", shard.age_seconds);
    out += std::string(",\"age_seconds\":") + age;
    out += ",\"rpc_errors\":{\"transport\":" +
           std::to_string(shard.rpc_errors.transport) +
           ",\"protocol\":" + std::to_string(shard.rpc_errors.protocol) +
           ",\"application\":" +
           std::to_string(shard.rpc_errors.application) + "}";
    if (!shard.error.empty()) {
      out += ",\"error\":\"";
      append_json_escaped(out, shard.error);
      out += "\"";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::string ShardRouter::render_prometheus() {
  // Health first: refreshes stale verdicts (probes run unlocked) and
  // carries the per-kind RPC failure counters.
  FleetHealth fleet_health = health(options_.health_max_age_seconds);

  // Assemble per-shard snapshots first (shard probes and histogram copies),
  // holding the router mutex only around router-owned state.
  std::vector<LoadProbe> probes(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // The fleet page reports live load; overrides only steer routing tests.
    probes[i] = shards_[i].backend->load();
  }

  RouterStats router;
  Histogram fleet(router_latency_edges());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    router = stats_;
    for (const Histogram& shard_hist : latency_) fleet.merge(shard_hist);
  }

  std::ostringstream out;
  out << "# HELP cosched_router_requests_total Submits routed (including "
         "rejected).\n";
  out << "# TYPE cosched_router_requests_total counter\n";
  out << "cosched_router_requests_total "
      << format_prometheus_value(static_cast<double>(router.requests))
      << "\n";
  out << "# HELP cosched_router_spillovers_total Keys re-homed off their "
         "ring shard by load.\n";
  out << "# TYPE cosched_router_spillovers_total counter\n";
  out << "cosched_router_spillovers_total "
      << format_prometheus_value(static_cast<double>(router.spillovers))
      << "\n";
  out << "# HELP cosched_router_remapped_keys Live remap-table entries.\n";
  out << "# TYPE cosched_router_remapped_keys gauge\n";
  out << "cosched_router_remapped_keys "
      << format_prometheus_value(static_cast<double>(router.remapped_keys))
      << "\n";
  out << "# HELP cosched_router_shard_requests_total Submits routed per "
         "shard.\n";
  out << "# TYPE cosched_router_shard_requests_total counter\n";
  for (std::size_t i = 0; i < router.per_shard_requests.size(); ++i) {
    out << "cosched_router_shard_requests_total{shard=\"" << i << "\"} "
        << format_prometheus_value(
               static_cast<double>(router.per_shard_requests[i]))
        << "\n";
  }
  out << "# HELP cosched_router_shard_queue_depth Shard command-queue "
         "depth.\n";
  out << "# TYPE cosched_router_shard_queue_depth gauge\n";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out << "cosched_router_shard_queue_depth{shard=\"" << i << "\"} "
        << format_prometheus_value(static_cast<double>(probes[i].queue_depth))
        << "\n";
  }
  out << "# HELP cosched_router_shard_virtual_now Shard-local virtual "
         "clock, seconds.\n";
  out << "# TYPE cosched_router_shard_virtual_now gauge\n";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out << "cosched_router_shard_virtual_now{shard=\"" << i << "\"} "
        << format_prometheus_value(probes[i].virtual_now) << "\n";
  }
  out << "# HELP cosched_router_shard_replan_p95_seconds Shard wall-clock "
         "replan p95.\n";
  out << "# TYPE cosched_router_shard_replan_p95_seconds gauge\n";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out << "cosched_router_shard_replan_p95_seconds{shard=\"" << i << "\"} "
        << format_prometheus_value(probes[i].replan_p95_seconds) << "\n";
  }
  out << "# HELP cosched_shard_up Shard liveness from the health fan-in "
         "(1 up, 0 down).\n";
  out << "# TYPE cosched_shard_up gauge\n";
  for (const ShardHealth& shard : fleet_health.shards) {
    out << "cosched_shard_up{shard=\"" << shard.shard_id << "\"} "
        << (shard.up ? "1" : "0") << "\n";
  }
  out << "# HELP cosched_shard_rpc_errors_total Folded shard RPC failures "
         "by error kind.\n";
  out << "# TYPE cosched_shard_rpc_errors_total counter\n";
  for (const ShardHealth& shard : fleet_health.shards) {
    out << "cosched_shard_rpc_errors_total{shard=\"" << shard.shard_id
        << "\",kind=\"transport\"} "
        << format_prometheus_value(
               static_cast<double>(shard.rpc_errors.transport))
        << "\n";
    out << "cosched_shard_rpc_errors_total{shard=\"" << shard.shard_id
        << "\",kind=\"protocol\"} "
        << format_prometheus_value(
               static_cast<double>(shard.rpc_errors.protocol))
        << "\n";
    out << "cosched_shard_rpc_errors_total{shard=\"" << shard.shard_id
        << "\",kind=\"application\"} "
        << format_prometheus_value(
               static_cast<double>(shard.rpc_errors.application))
        << "\n";
  }
  out << "# HELP cosched_router_request_seconds Router-side submit latency, "
         "all shards merged.\n";
  render_prometheus_histogram(out, "cosched_router_request_seconds", fleet,
                              /*with_exemplars=*/true);
  // Labeled log/journal accounting (the router's own spillover journal).
  out << render_log_metrics();
  out << render_journal_metrics(journal_);
  return out.str();
}

void ShardRouter::refresh_remote_loads() {
  for (auto& slot : shards_) {
    if (!slot.backend->is_local()) slot.backend->refresh_load();
  }
}

void ShardRouter::set_load_probe_override(std::size_t index,
                                          const LoadProbe& probe,
                                          bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  shards_[index].probe_override = enabled;
  shards_[index].probe = probe;
}

void ShardRouter::rewrite_view_global(JobStatusView& view,
                                      std::size_t shard_index) const {
  view.id = to_global(view.id, shard_index);
  for (auto& proc : view.procs) {
    proc.gid = to_global(proc.gid, shard_index);
  }
}

}  // namespace cosched
