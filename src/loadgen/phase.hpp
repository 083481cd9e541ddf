// Warm-up / measure phase control.
//
// The first requests of any run hit cold caches, fresh connections and an
// empty scheduler — folding them into the latency report biases every
// percentile. The controller classifies each request by its global
// submission index: [0, warmup) is Warmup, the rest is Measure. Only
// Measure samples reach the report; warm-up requests are still *sent* (they
// bring the service to steady state for the measure window), just not
// measured.
//
// PhaseStats is the accumulator one worker keeps per phase; merge() folds
// workers together. It carries the send/finish extremes so the measure
// throughput can be computed over the measure window alone, not the whole
// run including warm-up.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"
#include "util/common.hpp"

namespace cosched {

enum class LoadPhase { Warmup, Measure };

class PhaseController {
 public:
  /// `warmup <= total`; an empty measure window is legal (a pure warm-up
  /// run) but usually a configuration mistake the caller should surface.
  PhaseController(std::uint64_t total, std::uint64_t warmup);

  LoadPhase classify(std::uint64_t index) const;

  std::uint64_t total() const { return total_; }
  std::uint64_t measure_count() const { return total_ - warmup_; }

 private:
  std::uint64_t total_;
  std::uint64_t warmup_;
};

/// Latency bucket edges shared by every loadgen consumer (milliseconds), so
/// merged reports, the committed baselines and /metrics stay comparable.
std::vector<Real> loadgen_latency_edges_ms();

/// One worker's accumulator for one phase.
struct PhaseStats {
  Histogram latency_ms{loadgen_latency_edges_ms()};
  std::uint64_t requests = 0;  ///< completed with an Ok response
  std::uint64_t errors = 0;
  std::uint64_t late_sends = 0;  ///< open loop: sent behind schedule
  Real max_late_ms = 0.0;
  Real sum_late_ms = 0.0;
  /// Send/finish extremes in seconds since the run began; +inf/-inf when
  /// the phase saw no traffic.
  Real first_send_s = kInfinity;
  Real last_finish_s = -kInfinity;

  void merge(const PhaseStats& other);
  /// last_finish - first_send, or 0 when the phase saw no traffic.
  Real window_seconds() const;
};

}  // namespace cosched
