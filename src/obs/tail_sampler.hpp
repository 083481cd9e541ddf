// Tail-based trace sampling: keep/drop decided at span *end*.
//
// Head-based sampling (Tracer::make_context) throws traces away before
// knowing whether they turned out interesting — which is exactly backwards
// for tail-latency forensics: the slow replans and long OA*/HA* solves are
// the traces a 1-in-N head sampler is most likely to discard. The
// TailSampler closes that gap. Completed root spans (rpc.request,
// online.replan, replan.fresh_solve) are *observed* with their measured
// duration, and configurable policies decide at that moment:
//
//   * latency threshold  — duration >= min_duration_us keeps immediately;
//   * top-K-slowest      — spans below the threshold park in a bounded
//                          pending window; when the window fills (or
//                          flush() is called) the K slowest matching spans
//                          per policy survive, the rest are dropped;
//   * error flag         — spans observed with error=true keep immediately
//                          when the policy asks for errors;
//   * always-keep        — a policy may keep every matching span.
//
// The head-based sampler keeps running underneath as "one policy among
// several": it decides what the Tracer *records*, while the TailSampler
// decides which completed root spans are *retained* (exported over OTLP,
// surfaced in /metrics exemplars and the GetMetrics tail block). A span from
// a head-sampled-out trace can still be observed here — the root-span
// end-hooks fire from timers, not from the Tracer — so slow outliers
// survive even a 1-in-64 head sampler.
//
// Everything is bounded and deterministic: the pending window, the retained
// ring and the retained trace-id set all have fixed capacities with
// drop/evict accounting, and every decision is a pure function of the
// observe() call sequence (no clock reads, no randomness) — virtual-time
// replays make identical keep/drop decisions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/common.hpp"

namespace cosched {

/// One finished root span, as reported by an end-hook.
struct CompletedSpan {
  std::string name;            ///< e.g. "online.replan"
  std::uint64_t trace_id = 0;  ///< correlating request trace, 0 = none
  double duration_us = 0.0;    ///< measured wall duration
  Real virtual_time = -1.0;    ///< virtual seconds at end; < 0 = not stamped
  bool error = false;          ///< the operation failed / was rejected
  std::string args;            ///< optional "k=v ..." detail
};

/// One keep/drop rule. A span matches when its name starts with
/// `span_prefix` (empty prefix matches everything). Checks are applied in
/// this order: always_keep, keep_errors, min_duration_us (immediate keeps),
/// then top_k (deferred to window evaluation). A policy with only zeroed
/// criteria matches spans but never keeps them.
struct TailPolicy {
  std::string name;          ///< label surfaced in stats / telemetry frames
  std::string span_prefix;   ///< span-name prefix filter; empty = all
  double min_duration_us = 0.0;  ///< > 0: keep spans at least this slow
  std::size_t top_k = 0;     ///< > 0: keep the K slowest per pending window
  bool keep_errors = false;  ///< keep spans observed with error=true
  bool always_keep = false;  ///< keep every matching span
};

struct TailSamplerOptions {
  /// Pending-window capacity: spans awaiting a top-K verdict. When full the
  /// window is evaluated and cleared — memory stays bounded no matter how
  /// many spans stream through.
  std::size_t window_spans = 64;
  /// Retained-span ring capacity; the oldest retained span is evicted (and
  /// counted) when full.
  std::size_t max_retained_spans = 1024;
  /// Retained trace-id set capacity (FIFO eviction). Sized >= the retained
  /// ring so exemplar trace_ids stay resolvable.
  std::size_t max_retained_traces = 4096;
};

/// Why a span was retained. Doubles as the per-span "sampling mode" label
/// streamed to telemetry subscribers.
enum class TailKeepReason : std::uint8_t {
  Latency = 0,  ///< met a policy's min_duration_us
  TopK = 1,     ///< among the K slowest of its pending window
  Error = 2,    ///< error span under a keep_errors policy
  Always = 3,   ///< matched an always_keep policy
};

const char* to_string(TailKeepReason reason);

struct RetainedSpan {
  CompletedSpan span;
  TailKeepReason reason = TailKeepReason::Latency;
  std::string policy;       ///< name of the deciding policy
  std::uint64_t order = 0;  ///< monotone observation index (determinism key)
};

/// Aggregate accounting. All counters are monotone from construction (or
/// the last reset()) — the soak harness asserts exactly that.
struct TailSamplerStats {
  std::uint64_t considered = 0;    ///< observe() calls
  std::uint64_t kept_latency = 0;  ///< immediate keeps: latency threshold
  std::uint64_t kept_topk = 0;     ///< window keeps: top-K slowest
  std::uint64_t kept_error = 0;    ///< immediate keeps: error flag
  std::uint64_t kept_always = 0;   ///< immediate keeps: always_keep
  std::uint64_t dropped = 0;       ///< spans rejected by every policy
  std::uint64_t windows_evaluated = 0;   ///< pending-window evaluations
  std::uint64_t retained_evicted = 0;    ///< ring evictions (oldest out)
  std::uint64_t kept() const {
    return kept_latency + kept_topk + kept_error + kept_always;
  }
};

/// Per-policy accounting. over_threshold_seen counts matching spans at or
/// above the policy's latency threshold; over_threshold_kept counts how
/// many of those were retained. Threshold keeps are immediate, so seen ==
/// kept always — the "slow-span survival rate = 100%" invariant is
/// structural, and rpc_soak re-asserts it end to end.
struct TailPolicyStats {
  std::string policy;
  std::uint64_t matched = 0;
  std::uint64_t kept = 0;
  std::uint64_t over_threshold_seen = 0;
  std::uint64_t over_threshold_kept = 0;
};

class TailSampler {
 public:
  TailSampler() = default;
  TailSampler(const TailSampler&) = delete;
  TailSampler& operator=(const TailSampler&) = delete;

  /// Process-wide sampler fed by the root-span end-hooks (OnlineScheduler,
  /// CoschedServer) and drained by the OTLP exporter / metrics callbacks.
  static TailSampler& global();

  /// Installs policies and bounds, clears all state and counters. Passing
  /// an empty policy list deactivates the sampler (end-hooks short-circuit
  /// on active()).
  void configure(std::vector<TailPolicy> policies,
                 TailSamplerOptions options = {});

  /// True iff at least one policy is installed. Lock-free: the end-hooks in
  /// the replan/request hot paths check this before building a
  /// CompletedSpan.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Reports one finished root span. Returns true when the span was kept
  /// immediately (latency / error / always); parked or dropped spans return
  /// false — a parked span may still be retained when its window resolves.
  bool observe(CompletedSpan span);

  /// Forces evaluation of a partially-filled pending window (shutdown /
  /// export time), so parked spans get their top-K verdict.
  void flush();

  /// Spans currently parked awaiting a window verdict (bounded by
  /// options.window_spans).
  std::size_t pending() const;

  /// Retained spans currently resident (bounded by max_retained_spans).
  std::size_t retained() const;

  /// True iff `trace_id` belongs to a retained span (and has not been
  /// evicted from the bounded id set). trace_id 0 is never retained.
  bool trace_retained(std::uint64_t trace_id) const;

  /// Copy of the retained ring, oldest first.
  std::vector<RetainedSpan> retained_snapshot() const;

  TailSamplerStats stats() const;
  std::vector<TailPolicyStats> policy_stats() const;
  std::vector<std::string> policy_names() const;

  /// "tail(p1,p2)" when active, "" otherwise — the frame-level sampling
  /// mode label advertised to telemetry subscribers.
  std::string mode_label() const;

  /// Drops every buffered/retained span, zeroes counters, keeps policies.
  void reset();

 private:
  struct PendingSpan {
    CompletedSpan span;
    std::uint64_t order = 0;
  };

  // All three take `mutex_` held.
  void keep_locked(CompletedSpan span, TailKeepReason reason,
                   const std::string& policy, std::uint64_t order);
  void evaluate_window_locked();
  bool matches_locked(const TailPolicy& policy, const std::string& name) const;

  std::atomic<bool> active_{false};
  mutable std::mutex mutex_;
  std::vector<TailPolicy> policies_;
  std::vector<TailPolicyStats> policy_stats_;  ///< parallel to policies_
  TailSamplerOptions options_;
  TailSamplerStats stats_;
  std::uint64_t next_order_ = 0;
  std::vector<PendingSpan> pending_;
  std::deque<RetainedSpan> retained_;
  std::unordered_set<std::uint64_t> retained_traces_;
  std::deque<std::uint64_t> retained_trace_order_;  ///< FIFO eviction queue
};

}  // namespace cosched
