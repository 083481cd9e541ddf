// Hungarian (Kuhn-Munkres) algorithm for the assignment problem.
//
// Substrate for the migration extension (the paper's stated future work:
// optimal VM-to-physical-machine mapping with migrations): matching new
// schedule groups to old machines so as to maximize kept processes is a
// max-weight bipartite assignment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace cosched {

/// One assignment solver whose buffers survive between solves: after the
/// first solve of a given size, later solves allocate nothing. The migration
/// swap search prices every candidate swap with one of these.
class AssignmentSolver {
 public:
  /// Min-cost assignment on a square row-major matrix (cost[i * n + j] =
  /// cost of assigning row i to column j). Writes the column assigned to
  /// each row into `assignment` (size n). O(n³).
  void solve_min(std::span<const Real> cost, std::size_t n,
                 std::span<std::int32_t> assignment);
  /// Max-weight variant: maximizes Σ weight[i * n + assignment[i]] and
  /// returns that sum.
  Real solve_max(std::span<const Real> weight, std::size_t n,
                 std::span<std::int32_t> assignment);

 private:
  std::vector<Real> u_, v_, minv_, cost_;
  std::vector<std::size_t> p_, way_;
  std::vector<char> used_;
};

/// Solves min-cost assignment on a square cost matrix (row-major,
/// cost[i][j] = cost of assigning row i to column j). Returns the column
/// assigned to each row. O(n³).
std::vector<std::int32_t> solve_assignment_min(
    const std::vector<std::vector<Real>>& cost);

/// Max-weight variant: maximizes Σ weight[i][assignment[i]].
std::vector<std::int32_t> solve_assignment_max(
    const std::vector<std::vector<Real>>& weight);

}  // namespace cosched
