// Shared factories for search/IP/baseline tests, and the global-tracer
// reset the observability tests share.
#pragma once

#include "core/builders.hpp"
#include "core/degradation_models.hpp"
#include "core/problem.hpp"
#include "obs/trace.hpp"

namespace cosched::testhelpers {

/// Random serial-only synthetic problem.
inline Problem random_serial_problem(std::int32_t jobs, std::uint32_t cores,
                                     std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = jobs;
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Random mix of serial and PE jobs.
inline Problem random_pe_problem(std::int32_t serial,
                                 std::vector<std::int32_t> parallel_sizes,
                                 std::uint32_t cores, std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = serial;
  spec.parallel_job_sizes = std::move(parallel_sizes);
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Random mix with PC jobs (2D decomposition, comm volumes sized so the
/// comm term is of the same order as contention).
inline Problem random_pc_problem(std::int32_t serial,
                                 std::vector<std::int32_t> parallel_sizes,
                                 std::uint32_t cores, std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = serial;
  spec.parallel_job_sizes = std::move(parallel_sizes);
  spec.parallel_with_comm = true;
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Restores the global tracer to its out-of-the-box state; the tracer is a
/// process singleton, so every test that touches it cleans up through this.
inline void reset_global_tracer() {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.set_max_events_per_thread(65536);
  tracer.set_sample_every(1);
  tracer.set_always_keep({});
  Tracer::clear_current_context();
  tracer.reset();
}

}  // namespace cosched::testhelpers
