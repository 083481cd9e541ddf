// SchedulerMetrics — counters and histograms of the online service.
//
// Everything here is derived from virtual time and solver outputs, so the
// tables are byte-identical across runs with the same seed (the
// deterministic-replay acceptance test). The one wall-clock quantity —
// per-replan solve time — is kept separate and only appears in tables that
// opt in via `include_wall_times`.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "util/common.hpp"
#include "util/table.hpp"

namespace cosched {

/// /metrics name of the admission queue-wait histogram (virtual seconds a
/// job waited between arrival and admission). Written by every
/// SchedulerMetrics instance, read by CoschedServer for the extended
/// GetMetrics response — both must agree on the bucket layout.
inline constexpr const char* kQueueWaitMetricName =
    "cosched_replan_queue_wait_seconds";
inline constexpr const char* kQueueWaitMetricHelp =
    "Virtual seconds jobs waited from arrival to admission";
std::vector<Real> queue_wait_metric_edges();

/// /metrics name of the wall-clock replan duration histogram. Observations
/// carry the trace_id of the request that triggered the replan, so an
/// exemplar names the trace whose online.replan span explains the bucket.
inline constexpr const char* kReplanDurationMetricName =
    "cosched_replan_duration_seconds";
inline constexpr const char* kReplanDurationMetricHelp =
    "Wall-clock seconds spent per replan (admission through commit)";
std::vector<Real> replan_duration_metric_edges();

/// One replan, as the service saw it.
struct ReplanRecord {
  Real time = 0.0;
  std::int32_t admitted = 0;   ///< jobs placed by this replan
  std::int32_t migrations = 0; ///< previously running processes that moved
  Real stay_combined = 0.0;    ///< combined objective of not replanning
  Real combined = 0.0;         ///< combined objective of the chosen placement
  Real degradation = 0.0;      ///< Eq. 13 part of `combined`
  std::uint64_t swaps_priced = 0;  ///< repair swaps priced (registry-only)
  std::uint64_t swaps_applied = 0; ///< repair swaps taken (not tabled)
  std::uint64_t assignments = 0;   ///< repair Hungarian solves (registry-only)
  double solve_wall_seconds = 0.0;  ///< wall clock; excluded from
                                    ///< deterministic tables
  std::uint64_t trace_id = 0;  ///< trace behind the triggering request;
                               ///< 0 = untraced (excluded from tables)
};

class SchedulerMetrics {
 public:
  SchedulerMetrics();

  // ---- ingestion (called by OnlineScheduler) ---------------------------
  void on_arrival() { ++arrivals_; }
  void on_admission(Real queue_wait) {
    ++admissions_;
    queue_wait_.add(queue_wait);
    registry_queue_wait_->observe(queue_wait);
  }
  /// `slowdown` = (completion - admission) / solo work, >= 1 without
  /// contention delays.
  void on_completion(Real slowdown) {
    ++completions_;
    slowdown_.add(slowdown);
  }
  void on_replan(ReplanRecord record);
  /// Time-weighted degradation accounting: `live` real processes carried a
  /// summed degradation of `total_degradation` for `dt` virtual seconds.
  void on_advance(Real dt, std::int32_t live, Real total_degradation);

  // ---- results ---------------------------------------------------------
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t admissions() const { return admissions_; }
  std::uint64_t completions() const { return completions_; }
  std::uint64_t replans() const { return replans_; }
  std::uint64_t migrations() const { return migrations_; }
  const Histogram& queue_wait() const { return queue_wait_; }
  const Histogram& slowdown() const { return slowdown_; }
  const Histogram& migrations_per_replan() const {
    return migrations_per_replan_;
  }
  const std::vector<ReplanRecord>& replan_records() const { return replans_log_; }

  /// Time-weighted mean degradation per live process over the whole run.
  Real running_mean_degradation() const {
    return live_time_ == 0.0 ? 0.0 : degradation_time_ / live_time_;
  }
  Real mean_migrations_per_replan() const {
    return migrations_per_replan_.mean();
  }
  double total_solve_wall_seconds() const { return solve_wall_seconds_; }

  // ---- tables ----------------------------------------------------------
  /// One metric per row (metric, value). Deterministic.
  TextTable summary_table() const;
  /// One histogram per row (metric, count, mean, max, buckets).
  /// Deterministic.
  TextTable histogram_table() const;
  /// One replan per row, the newest `newest` of them (default: every
  /// replan). Deterministic unless `include_wall_times`.
  TextTable replans_table(
      bool include_wall_times = false,
      std::size_t newest = std::numeric_limits<std::size_t>::max()) const;

  /// Replan rows render_deterministic_csv carries: at ~34 bytes a row, the
  /// full log of a long-lived server would outgrow the RPC frame cap.
  static constexpr std::size_t kCsvReplanRows = 1024;

  /// summary + histogram + the newest kCsvReplanRows replans as CSVs
  /// concatenated, wall times excluded — the byte-comparable artifact of
  /// the determinism tests and GetMetrics. The summary and histograms
  /// cover every replan.
  std::string render_deterministic_csv() const;

  /// Writes <dir>/<prefix>_summary.csv, _histograms.csv and _replans.csv,
  /// creating `dir` (and parents) if missing — a fresh clone has no
  /// results/ directory, and the writers must not fail silently because of
  /// that. Returns the paths written; on any failure warns on stderr and
  /// returns an empty vector.
  std::vector<std::string> write_csvs(const std::string& dir,
                                      const std::string& prefix) const;

 private:
  std::uint64_t arrivals_ = 0;
  std::uint64_t admissions_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t replans_ = 0;
  std::uint64_t migrations_ = 0;
  Histogram queue_wait_;
  /// Same samples, mirrored into the process-wide /metrics registry (the
  /// pointer is grabbed once at construction; registration is idempotent).
  HistogramMetric* registry_queue_wait_ = nullptr;
  /// Wall-clock replan duration, registry-only (wall time stays out of the
  /// deterministic histograms above). Observations carry the trace_id.
  HistogramMetric* registry_replan_duration_ = nullptr;
  /// Repair work per replan, flushed once per replan into the registry.
  Counter* registry_swaps_priced_ = nullptr;
  Counter* registry_assignments_ = nullptr;
  Histogram slowdown_;
  Histogram migrations_per_replan_;
  std::vector<ReplanRecord> replans_log_;
  Real degradation_time_ = 0.0;  ///< ∫ Σ_live d_i dt
  Real live_time_ = 0.0;         ///< ∫ |live| dt
  double solve_wall_seconds_ = 0.0;
};

}  // namespace cosched
