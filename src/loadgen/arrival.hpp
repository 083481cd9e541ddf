// Open-loop arrival schedules.
//
// An open-loop generator decides *when* to send independently of how fast
// the service answers — the opposite of a closed-loop stream, whose next
// request implicitly waits for the previous reply and therefore slows down
// exactly when the server is struggling (coordinated omission: the overload
// never shows up in the numbers, the central lesson of Berg et al.,
// "Towards Optimality in Parallel Scheduling"). The schedule is a Poisson
// process — exponential interarrivals, the memoryless stream a front door
// sees from many independent users — materialised up front as absolute
// send offsets (seconds from test start), a pure function of the spec: the
// same seed yields the same send times on any platform.
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace cosched {

struct ArrivalSpec {
  Real rate_rps = 10.0;  ///< mean offered rate
  std::int32_t count = 100;
  std::uint64_t seed = 1;
};

/// Builds the schedule: `count` strictly increasing send offsets in
/// seconds. Deterministic in the spec.
std::vector<Real> build_arrival_schedule(const ArrivalSpec& spec);

/// Mean offered rate of a schedule: arrivals over [0, last]. 0 for
/// schedules with fewer than one arrival or a zero horizon.
Real schedule_offered_rps(const std::vector<Real>& schedule);

}  // namespace cosched
