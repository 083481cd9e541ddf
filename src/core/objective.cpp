#include "core/objective.hpp"

#include <algorithm>
#include <sstream>

namespace cosched {

void Solution::canonicalize() {
  for (auto& m : machines) std::sort(m.begin(), m.end());
  std::sort(machines.begin(), machines.end(),
            [](const auto& a, const auto& b) {
              if (a.empty() || b.empty()) return a.size() < b.size();
              return a[0] < b[0];
            });
}

std::int32_t Solution::machine_of(ProcessId p) const {
  for (std::size_t m = 0; m < machines.size(); ++m)
    for (ProcessId q : machines[m])
      if (q == p) return static_cast<std::int32_t>(m);
  return -1;
}

std::string Solution::to_string(const JobBatch& batch) const {
  std::ostringstream os;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    os << "machine" << m << ": [";
    for (std::size_t k = 0; k < machines[m].size(); ++k) {
      if (k) os << ", ";
      os << batch.process_label(machines[m][k]);
    }
    os << "]\n";
  }
  return os.str();
}

void validate_solution(const Problem& problem, const Solution& s) {
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();
  COSCHED_EXPECTS(static_cast<std::int32_t>(s.machines.size()) ==
                  problem.machine_count());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const auto& m : s.machines) {
    COSCHED_EXPECTS(static_cast<std::int32_t>(m.size()) == u);
    for (ProcessId p : m) {
      COSCHED_EXPECTS(p >= 0 && p < n);
      COSCHED_EXPECTS(!seen[static_cast<std::size_t>(p)]);
      seen[static_cast<std::size_t>(p)] = true;
    }
  }
}

Evaluation evaluate_solution(const Problem& problem, const Solution& s,
                             const DegradationModel& model,
                             Aggregation aggregation) {
  validate_solution(problem, s);
  const JobBatch& batch = problem.batch;

  Evaluation ev;
  ev.per_process.assign(static_cast<std::size_t>(problem.n()), 0.0);
  ev.per_job.assign(static_cast<std::size_t>(batch.job_count()), 0.0);

  std::vector<Real> d(static_cast<std::size_t>(problem.u()));
  for (const auto& m : s.machines) {
    model.machine_degradations(m, d);
    for (std::size_t k = 0; k < m.size(); ++k)
      ev.per_process[static_cast<std::size_t>(m[k])] = d[k];
  }

  for (const Job& job : batch.jobs()) {
    Real contrib = 0.0;
    if (job.kind == JobKind::Imaginary) {
      contrib = 0.0;
    } else if (aggregation == Aggregation::MaxPerParallelJob &&
               job.is_parallel()) {
      for (ProcessId p : job.processes)
        contrib = std::max(contrib,
                           ev.per_process[static_cast<std::size_t>(p)]);
    } else {
      for (ProcessId p : job.processes)
        contrib += ev.per_process[static_cast<std::size_t>(p)];
    }
    ev.per_job[static_cast<std::size_t>(job.id)] = contrib;
    ev.total += contrib;
  }

  std::int32_t real_jobs = 0;
  for (const Job& job : batch.jobs())
    if (job.kind != JobKind::Imaginary) ++real_jobs;
  ev.average_per_job =
      real_jobs > 0 ? ev.total / static_cast<Real>(real_jobs) : 0.0;
  return ev;
}

Evaluation evaluate_solution(const Problem& problem, const Solution& s) {
  return evaluate_solution(problem, s, *problem.full_model,
                           Aggregation::MaxPerParallelJob);
}

}  // namespace cosched
