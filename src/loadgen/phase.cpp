#include "loadgen/phase.hpp"

#include <algorithm>

namespace cosched {

PhaseController::PhaseController(std::uint64_t total, std::uint64_t warmup)
    : total_(total), warmup_(warmup) {
  COSCHED_EXPECTS(warmup <= total);
}

LoadPhase PhaseController::classify(std::uint64_t index) const {
  COSCHED_EXPECTS(index < total_);
  return index < warmup_ ? LoadPhase::Warmup : LoadPhase::Measure;
}

std::vector<Real> loadgen_latency_edges_ms() {
  return {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
          250.0, 500.0, 1000.0};
}

void PhaseStats::merge(const PhaseStats& other) {
  latency_ms.merge(other.latency_ms);
  requests += other.requests;
  errors += other.errors;
  late_sends += other.late_sends;
  max_late_ms = std::max(max_late_ms, other.max_late_ms);
  sum_late_ms += other.sum_late_ms;
  first_send_s = std::min(first_send_s, other.first_send_s);
  last_finish_s = std::max(last_finish_s, other.last_finish_s);
}

Real PhaseStats::window_seconds() const {
  if (first_send_s > last_finish_s) return 0.0;
  return last_finish_s - first_send_s;
}

}  // namespace cosched
