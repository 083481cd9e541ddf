// Workload shapes: what each generated request carries.
//
// The arrival schedule (loadgen/arrival) decides *when*; this module
// decides *what* — job sizes, cache pressure, parallelism and the tenant
// key baked into the job name. Tenant keys matter because the shard
// router's consistent hash admits on them: a skewed (Zipfian) tenant mix
// produces the hot-shard imbalance its spillover policy exists for, while
// skew 0 spreads tenants evenly. Job sizes are uniform, the source paper's
// methodology.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "online/trace.hpp"
#include "util/common.hpp"

namespace cosched {

struct ShapeSpec {
  /// work ~ U[work_lo, work_hi].
  Real work_lo = 5.0;
  Real work_hi = 30.0;
  /// Paper methodology: cache miss rates uniform in [15%, 75%].
  Real miss_rate_lo = 0.15;
  Real miss_rate_hi = 0.75;
  Real parallel_fraction = 0.0;
  std::int32_t max_parallel_processes = 4;
  /// Tenant key mix: names are "t<k>/<name_prefix><i>" with k drawn from a
  /// Zipf(tenant_skew) distribution over `tenants` tenants; skew 0 is
  /// uniform. The prefix before '/' is what ShardRouter hashes on.
  std::int32_t tenants = 32;
  Real tenant_skew = 0.0;
  std::string name_prefix = "lg";
  std::uint64_t seed = 1;
};

/// Builds `count` jobs. arrival_time is left 0 — pairing jobs with an
/// arrival schedule is the runner's job. Deterministic in the spec.
std::vector<TraceJob> build_jobs(const ShapeSpec& spec, std::int32_t count);

}  // namespace cosched
