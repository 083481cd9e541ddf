#include "baseline/pg_greedy.hpp"

#include <algorithm>
#include <numeric>

namespace cosched {
namespace {

/// pair_d[k][i] = degradation process k suffers when co-running with i
/// alone — the pairwise estimate politeness is computed from.
std::vector<std::vector<Real>> pairwise_damage(const Problem& problem,
                                               const DegradationModel& model) {
  const std::int32_t n = problem.n();
  std::vector<std::vector<Real>> pair_d(
      static_cast<std::size_t>(n),
      std::vector<Real>(static_cast<std::size_t>(n), 0.0));
  for (std::int32_t k = 0; k < n; ++k) {
    for (std::int32_t i = 0; i < n; ++i) {
      if (i == k) continue;
      ProcessId co[1] = {i};
      pair_d[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] =
          model.degradation(k, co);
    }
  }
  return pair_d;
}

/// Process ids sorted most-impolite first (ties by id).
std::vector<ProcessId> impolite_order(
    const Problem& problem,
    const std::vector<std::vector<Real>>& pair_d) {
  const std::int32_t n = problem.n();
  std::vector<Real> politeness(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    Real damage = 0.0;
    for (std::int32_t k = 0; k < n; ++k)
      if (k != i)
        damage +=
            pair_d[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)];
    politeness[static_cast<std::size_t>(i)] = -damage;
  }
  std::vector<ProcessId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ProcessId a, ProcessId b) {
    Real pa = politeness[static_cast<std::size_t>(a)];
    Real pb = politeness[static_cast<std::size_t>(b)];
    if (pa != pb) return pa < pb;
    return a < b;
  });
  return order;
}

}  // namespace

Solution solve_pg_greedy(const Problem& problem,
                         const DegradationModel& model) {
  problem.check();
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();
  const std::int32_t m = problem.machine_count();

  auto pair_d = pairwise_damage(problem, model);
  auto order = impolite_order(problem, pair_d);

  // Machine j is seeded with the j-th most impolite process and filled with
  // the most polite processes still unassigned (polite-with-impolite
  // pairing, no cost lookups).
  Solution s;
  s.machines.assign(static_cast<std::size_t>(m), {});
  for (std::int32_t j = 0; j < m; ++j)
    s.machines[static_cast<std::size_t>(j)].push_back(
        order[static_cast<std::size_t>(j)]);
  std::int32_t polite_cursor = n - 1;  // most polite end of `order`
  for (std::int32_t j = 0; j < m; ++j)
    for (std::int32_t slot = 1; slot < u; ++slot)
      s.machines[static_cast<std::size_t>(j)].push_back(
          order[static_cast<std::size_t>(polite_cursor--)]);
  s.canonicalize();
  return s;
}

Solution solve_pg_greedy(const Problem& problem) {
  return solve_pg_greedy(problem, *problem.full_model);
}

}  // namespace cosched
