#include "vm/hungarian.hpp"

#include <algorithm>
#include <limits>

namespace cosched {

// The classic O(n³) potentials formulation (Jonker-style row-by-row
// shortest augmenting paths with dual updates).
void AssignmentSolver::solve_min(std::span<const Real> cost, std::size_t n,
                                 std::span<std::int32_t> assignment) {
  COSCHED_EXPECTS(n >= 1);
  COSCHED_EXPECTS(cost.size() == n * n);
  COSCHED_EXPECTS(assignment.size() == n);

  // 1-based sentinel arrays, standard formulation.
  u_.assign(n + 1, 0.0);
  v_.assign(n + 1, 0.0);
  p_.assign(n + 1, 0);    // p_[j] = row matched to column j
  way_.assign(n + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    p_[0] = i;
    std::size_t j0 = 0;
    minv_.assign(n + 1, kInfinity);
    used_.assign(n + 1, 0);
    do {
      used_[j0] = 1;
      std::size_t i0 = p_[j0];
      std::size_t j1 = 0;
      Real delta = kInfinity;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used_[j]) continue;
        Real cur = cost[(i0 - 1) * n + (j - 1)] - u_[i0] - v_[j];
        if (cur < minv_[j]) {
          minv_[j] = cur;
          way_[j] = j0;
        }
        if (minv_[j] < delta) {
          delta = minv_[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used_[j]) {
          u_[p_[j]] += delta;
          v_[j] -= delta;
        } else {
          minv_[j] -= delta;
        }
      }
      j0 = j1;
    } while (p_[j0] != 0);
    // Augment along the path.
    do {
      std::size_t j1 = way_[j0];
      p_[j0] = p_[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::fill(assignment.begin(), assignment.end(), -1);
  for (std::size_t j = 1; j <= n; ++j)
    if (p_[j] >= 1)
      assignment[p_[j] - 1] = static_cast<std::int32_t>(j - 1);
}

Real AssignmentSolver::solve_max(std::span<const Real> weight, std::size_t n,
                                 std::span<std::int32_t> assignment) {
  COSCHED_EXPECTS(weight.size() == n * n);
  Real max_w = 0.0;
  for (Real w : weight) max_w = std::max(max_w, w);
  cost_.resize(weight.size());
  for (std::size_t k = 0; k < weight.size(); ++k) cost_[k] = max_w - weight[k];
  solve_min(cost_, n, assignment);
  Real total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    total += weight[i * n + static_cast<std::size_t>(assignment[i])];
  return total;
}

namespace {

std::vector<Real> flatten(const std::vector<std::vector<Real>>& matrix) {
  const std::size_t n = matrix.size();
  COSCHED_EXPECTS(n >= 1);
  std::vector<Real> flat;
  flat.reserve(n * n);
  for (const auto& row : matrix) {
    COSCHED_EXPECTS(row.size() == n);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

}  // namespace

std::vector<std::int32_t> solve_assignment_min(
    const std::vector<std::vector<Real>>& cost) {
  std::vector<std::int32_t> assignment(cost.size(), -1);
  AssignmentSolver().solve_min(flatten(cost), cost.size(), assignment);
  return assignment;
}

std::vector<std::int32_t> solve_assignment_max(
    const std::vector<std::vector<Real>>& weight) {
  std::vector<std::int32_t> assignment(weight.size(), -1);
  AssignmentSolver().solve_max(flatten(weight), weight.size(), assignment);
  return assignment;
}

}  // namespace cosched
