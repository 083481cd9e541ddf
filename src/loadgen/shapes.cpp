#include "loadgen/shapes.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace cosched {

const char* to_string(SizeDistribution distribution) {
  switch (distribution) {
    case SizeDistribution::Uniform: return "uniform";
    case SizeDistribution::Pareto: return "pareto";
  }
  return "?";
}

namespace {

/// Cumulative Zipf weights over `tenants` ranks: weight(r) = (r+1)^-skew.
/// Skew 0 degenerates to uniform.
std::vector<Real> zipf_cdf(std::int32_t tenants, Real skew) {
  std::vector<Real> cdf(static_cast<std::size_t>(tenants));
  Real total = 0.0;
  for (std::int32_t r = 0; r < tenants; ++r) {
    total += std::pow(static_cast<Real>(r + 1), -skew);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  for (Real& v : cdf) v /= total;
  return cdf;
}

}  // namespace

std::vector<TraceJob> build_jobs(const ShapeSpec& spec, std::int32_t count) {
  COSCHED_EXPECTS(count >= 0);
  COSCHED_EXPECTS(spec.work_lo > 0.0 && spec.work_lo <= spec.work_hi);
  COSCHED_EXPECTS(spec.pareto_shape > 0.0 && spec.pareto_scale > 0.0);
  COSCHED_EXPECTS(spec.work_cap >= spec.pareto_scale);
  COSCHED_EXPECTS(spec.miss_rate_lo >= 0.0 &&
                  spec.miss_rate_lo <= spec.miss_rate_hi &&
                  spec.miss_rate_hi <= 1.0);
  COSCHED_EXPECTS(spec.parallel_fraction >= 0.0 &&
                  spec.parallel_fraction <= 1.0);
  COSCHED_EXPECTS(spec.max_parallel_processes >= 2);
  COSCHED_EXPECTS(spec.tenants >= 1);
  COSCHED_EXPECTS(spec.tenant_skew >= 0.0);

  Rng rng(spec.seed);
  std::vector<Real> tenant_cdf = zipf_cdf(spec.tenants, spec.tenant_skew);
  std::vector<TraceJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    TraceJob job;
    if (spec.size == SizeDistribution::Uniform) {
      job.work = rng.uniform_real(spec.work_lo, spec.work_hi);
    } else {
      // Inverse-CDF Pareto draw; u in (0, 1] avoids the pole at 0.
      Real u = 1.0 - rng.uniform01();
      job.work = std::min(spec.work_cap,
                          spec.pareto_scale *
                              std::pow(u, -1.0 / spec.pareto_shape));
    }
    job.miss_rate = rng.uniform_real(spec.miss_rate_lo, spec.miss_rate_hi);
    // Same sensitivity convention as generate_trace: correlated with cache
    // pressure plus an independent component.
    job.sensitivity = 0.3 + job.miss_rate + rng.uniform_real(-0.15, 0.15);
    if (rng.uniform01() < spec.parallel_fraction) {
      job.kind = JobKind::ParallelNoComm;
      job.processes = static_cast<std::int32_t>(
          rng.uniform_int(2, spec.max_parallel_processes));
    } else {
      job.kind = JobKind::Serial;
      job.processes = 1;
    }
    Real u = rng.uniform01();
    std::size_t tenant = static_cast<std::size_t>(
        std::lower_bound(tenant_cdf.begin(), tenant_cdf.end(), u) -
        tenant_cdf.begin());
    if (tenant >= tenant_cdf.size()) tenant = tenant_cdf.size() - 1;
    // Appended piecewise: "t" + std::to_string(...) trips GCC 12's
    // false-positive -Wrestrict.
    job.name = "t";
    job.name += std::to_string(tenant);
    job.name += "/";
    job.name += spec.name_prefix;
    job.name += std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace cosched
