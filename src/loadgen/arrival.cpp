#include "loadgen/arrival.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace cosched {

std::vector<Real> build_arrival_schedule(const ArrivalSpec& spec) {
  COSCHED_EXPECTS(spec.count >= 0);
  COSCHED_EXPECTS(spec.rate_rps > 0.0);

  Rng rng(spec.seed);
  std::vector<Real> schedule;
  schedule.reserve(static_cast<std::size_t>(spec.count));
  // Unit-rate event positions (a running sum of Exp(1) draws) scaled to
  // the offered rate.
  Real u = 0.0;
  for (std::int32_t k = 0; k < spec.count; ++k) {
    u += -std::log(1.0 - rng.uniform01());
    schedule.push_back(u / spec.rate_rps);
  }
  return schedule;
}

Real schedule_offered_rps(const std::vector<Real>& schedule) {
  if (schedule.empty() || schedule.back() <= 0.0) return 0.0;
  return static_cast<Real>(schedule.size()) / schedule.back();
}

}  // namespace cosched
