#include "online/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace cosched {

bool trace_job_fields_valid(const TraceJob& job) {
  return std::isfinite(job.arrival_time) && std::isfinite(job.work) &&
         job.work > 0.0 && job.miss_rate >= 0.0 && job.miss_rate <= 1.0 &&
         std::isfinite(job.sensitivity) && job.sensitivity >= 0.0;
}

std::int32_t WorkloadTrace::process_count() const {
  std::int32_t n = 0;
  for (const TraceJob& j : jobs) n += j.processes;
  return n;
}

Real WorkloadTrace::horizon() const {
  return jobs.empty() ? 0.0 : jobs.back().arrival_time;
}

WorkloadTrace generate_trace(const TraceSpec& spec) {
  COSCHED_EXPECTS(spec.job_count >= 0);
  COSCHED_EXPECTS(spec.mean_interarrival > 0.0);
  COSCHED_EXPECTS(spec.work_lo > 0.0 && spec.work_lo <= spec.work_hi);
  COSCHED_EXPECTS(spec.parallel_fraction >= 0.0 &&
                  spec.parallel_fraction <= 1.0);
  COSCHED_EXPECTS(spec.max_parallel_processes >= 2);

  Rng rng(spec.seed);
  WorkloadTrace trace;
  trace.jobs.reserve(static_cast<std::size_t>(spec.job_count));
  Real t = 0.0;
  for (std::int32_t k = 0; k < spec.job_count; ++k) {
    t += -spec.mean_interarrival * std::log(1.0 - rng.uniform01());
    TraceJob job;
    job.arrival_time = t;
    job.work = rng.uniform_real(spec.work_lo, spec.work_hi);
    job.miss_rate = rng.uniform_real(spec.miss_rate_lo, spec.miss_rate_hi);
    // Same sensitivity convention as build_synthetic_problem: correlated
    // with pressure plus an independent component.
    job.sensitivity = 0.3 + job.miss_rate + rng.uniform_real(-0.15, 0.15);
    if (rng.uniform01() < spec.parallel_fraction) {
      job.kind = JobKind::ParallelNoComm;
      job.processes = static_cast<std::int32_t>(
          rng.uniform_int(2, spec.max_parallel_processes));
      job.name = "mpi" + std::to_string(k);
    } else {
      job.kind = JobKind::Serial;
      job.processes = 1;
      job.name = "job" + std::to_string(k);
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

namespace {

std::string fmt_real(Real v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* kind_tag(JobKind kind) {
  switch (kind) {
    case JobKind::Serial: return "SE";
    case JobKind::ParallelNoComm: return "PE";
    default: break;
  }
  throw std::invalid_argument("trace jobs must be SE or PE");
}

JobKind parse_kind(const std::string& tag) {
  if (tag == "SE") return JobKind::Serial;
  if (tag == "PE") return JobKind::ParallelNoComm;
  throw std::invalid_argument("unknown trace job kind: " + tag);
}

/// Whole-cell numeric parse; `line_no`/`field` label the error.
template <typename T>
T parse_cell(const std::string& text, std::size_t line_no,
             const char* field) {
  T value{};
  if (!parse_number(text, value))
    throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                ": bad " + field + " '" + text + "'");
  return value;
}

}  // namespace

void save_trace(const WorkloadTrace& trace, std::ostream& out) {
  out << "# cosched workload trace v1\n"
      << "# arrival,name,kind,processes,work,miss_rate,sensitivity\n";
  for (const TraceJob& j : trace.jobs) {
    out << fmt_real(j.arrival_time) << ',' << j.name << ','
        << kind_tag(j.kind) << ',' << j.processes << ',' << fmt_real(j.work)
        << ',' << fmt_real(j.miss_rate) << ',' << fmt_real(j.sensitivity)
        << '\n';
  }
}

bool save_trace(const WorkloadTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_trace(trace, out);
  return out.good();
}

WorkloadTrace load_trace(std::istream& in) {
  WorkloadTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream cells(line);
    std::string arrival, name, kind, processes, work, miss, sens;
    bool ok = static_cast<bool>(std::getline(cells, arrival, ',')) &&
              static_cast<bool>(std::getline(cells, name, ',')) &&
              static_cast<bool>(std::getline(cells, kind, ',')) &&
              static_cast<bool>(std::getline(cells, processes, ',')) &&
              static_cast<bool>(std::getline(cells, work, ',')) &&
              static_cast<bool>(std::getline(cells, miss, ',')) &&
              static_cast<bool>(std::getline(cells, sens));
    if (!ok)
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": expected 7 comma-separated fields");
    TraceJob job;
    job.arrival_time = parse_cell<Real>(arrival, line_no, "arrival");
    job.name = name;
    job.kind = parse_kind(kind);
    job.processes = parse_cell<std::int32_t>(processes, line_no, "processes");
    job.work = parse_cell<Real>(work, line_no, "work");
    job.miss_rate = parse_cell<Real>(miss, line_no, "miss_rate");
    job.sensitivity = parse_cell<Real>(sens, line_no, "sensitivity");
    if (job.processes < 1 ||
        (job.kind == JobKind::Serial && job.processes != 1))
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": bad process count");
    if (!trace_job_fields_valid(job))
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": job outside " + kTraceJobDomain);
    trace.jobs.push_back(std::move(job));
  }
  std::stable_sort(trace.jobs.begin(), trace.jobs.end(),
                   [](const TraceJob& a, const TraceJob& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  return trace;
}

WorkloadTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open trace file: " + path);
  return load_trace(in);
}

}  // namespace cosched
