// Workload traces for the online service: jobs arriving over virtual time.
//
// Traces come from two places — a seeded generator (Poisson arrivals,
// paper-style miss rates in [15%, 75%]) for benchmarks, and a plain-text
// replay format so a recorded or hand-written trace can be re-run exactly.
// Both are deterministic: the same spec/file yields the same trace on any
// platform.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "workload/job.hpp"

namespace cosched {

/// One job of an online workload. `work` is the solo execution time in
/// virtual seconds; contention stretches it by (1 + d) while co-running.
struct TraceJob {
  Real arrival_time = 0.0;
  std::string name;
  JobKind kind = JobKind::Serial;  ///< Serial or ParallelNoComm
  std::int32_t processes = 1;      ///< 1 for serial jobs
  Real work = 10.0;
  Real miss_rate = 0.4;            ///< cache pressure in [0, 1]
  Real sensitivity = 0.7;          ///< degradation susceptibility
};

/// The field domain the degradation model and the scheduler assume. Both
/// admission (LiveSchedulerService) and replay (load_trace) reject a job
/// outside it; the process count is checked separately by each.
bool trace_job_fields_valid(const TraceJob& job);
inline constexpr const char* kTraceJobDomain =
    "finite arrival, finite work > 0, miss_rate in [0, 1], finite "
    "sensitivity >= 0";

struct WorkloadTrace {
  std::vector<TraceJob> jobs;  ///< sorted by arrival_time

  std::int32_t job_count() const {
    return static_cast<std::int32_t>(jobs.size());
  }
  std::int32_t process_count() const;
  /// Last arrival time (0 for an empty trace).
  Real horizon() const;
};

struct TraceSpec {
  std::int32_t job_count = 100;
  /// Mean of the exponential interarrival distribution (virtual seconds).
  Real mean_interarrival = 1.0;
  Real work_lo = 5.0;
  Real work_hi = 30.0;
  /// Paper methodology: cache miss rates uniform in [15%, 75%].
  Real miss_rate_lo = 0.15;
  Real miss_rate_hi = 0.75;
  /// Fraction of jobs that are PE-parallel; their size is uniform in
  /// [2, max_parallel_processes].
  Real parallel_fraction = 0.0;
  std::int32_t max_parallel_processes = 4;
  std::uint64_t seed = 1;
};

/// Seeded deterministic generation.
WorkloadTrace generate_trace(const TraceSpec& spec);

/// Replay format: '#'-prefixed comment lines, then one job per line as
///   arrival,name,kind,processes,work,miss_rate,sensitivity
/// with kind in {SE, PE}. Reals round-trip exactly (%.17g).
void save_trace(const WorkloadTrace& trace, std::ostream& out);
bool save_trace(const WorkloadTrace& trace, const std::string& path);
WorkloadTrace load_trace(std::istream& in);  ///< throws on malformed input
WorkloadTrace load_trace(const std::string& path);

}  // namespace cosched
