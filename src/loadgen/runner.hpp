// LoadRunner — drives a CoschedServer/RouterServer with generated load.
//
// Two generator disciplines over the same worker pool:
//
//  * Open loop: requests are due at absolute schedule offsets regardless of
//    how fast the service answers. `concurrency` CoschedClient connections
//    bound the async in-flight depth; when every connection is busy a due
//    request is sent as soon as one frees up and counted as a *late send*
//    (with its lateness) instead of being silently rescheduled — coordinated
//    omission is measured, not hidden. A late-send count near zero means
//    the report reflects the offered arrival process; a large one means the
//    generator itself was the bottleneck and offered_rps overstates what
//    was actually applied.
//  * Closed loop: `concurrency` independent streams, each submitting its
//    next request when the previous reply lands — the classic N-user model,
//    useful for capacity probing but blind to queueing collapse by
//    construction.
//
// Every request is classified by the phase controller (warm-up / measure
// on the global submission index); only Measure samples land in the
// reported histogram. Results are deterministic in shape (same jobs,
// same schedule, same phase split) though latencies are, of course, real
// wall-clock measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/phase.hpp"
#include "online/trace.hpp"
#include "util/common.hpp"

namespace cosched {

enum class LoadMode { Open, Closed };

struct RunnerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  LoadMode mode = LoadMode::Open;
  /// Open loop: async in-flight depth (connection count). Closed loop:
  /// number of client streams.
  std::size_t concurrency = 4;
  std::uint64_t warmup = 0;
  /// A send this many ms behind its schedule slot counts as late.
  Real late_threshold_ms = 1.0;
  double request_timeout_seconds = 10.0;
  int max_attempts = 3;
  /// Simulated arrival rate stamped on submissions, jobs per *virtual*
  /// second. Virtual-time schedulers derive fleet load from these stamps,
  /// so leaving them equal to the real send times would couple the RPC
  /// request rate to simulated fleet utilization — a 30 rps transport test
  /// would stamp a 30 jobs/virtual-second arrival storm that saturates any
  /// fleet and turns every replan into a dense full-fleet solve. A positive
  /// value rescales: open-loop schedules are warped so their mean virtual
  /// rate is `virtual_rate` (preserving the Poisson shape), closed
  /// streams stamp index / virtual_rate. 0 stamps real seconds unscaled
  /// (wall-clock servers, or when the coupling is the point).
  Real virtual_rate = 0.0;
};

struct LoadResult {
  PhaseStats warmup;
  PhaseStats measure;
  /// Mean rate of the schedule (open loop); 0 in closed mode, where no
  /// offered rate exists independently of the service.
  Real offered_rps = 0.0;

  std::uint64_t total_requests() const {
    return warmup.requests + measure.requests;
  }
  std::uint64_t total_errors() const { return warmup.errors + measure.errors; }
  /// Measure-phase completions over the measure window.
  Real achieved_rps() const {
    Real window = measure.window_seconds();
    return window > 0.0 ? static_cast<Real>(measure.requests) / window : 0.0;
  }
};

class LoadRunner {
 public:
  explicit LoadRunner(RunnerOptions options);

  /// Runs the full job list. In open mode `schedule` must pair 1:1 with
  /// `jobs` (schedule[i] is job i's send offset in seconds) and each job's
  /// arrival_time is stamped from its slot; in closed mode `schedule` is
  /// ignored and arrivals are stamped from elapsed wall time, so a
  /// virtual-time scheduler tracks the real clock.
  LoadResult run(const std::vector<TraceJob>& jobs,
                 const std::vector<Real>& schedule) const;

 private:
  RunnerOptions options_;
};

}  // namespace cosched
