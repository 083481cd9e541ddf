// Static per-level statistics of the co-scheduling graph, backing the two
// h(v) strategies of the paper (Section III-D).
//
// Level i of the graph holds every u-subset whose smallest process id is i.
// Strategy 1 needs all node weights of levels > l sorted ascending;
// Strategy 2 needs the minimum node weight of each level. Both are static
// (path-independent), so they are computed once per search.
//
// Two build modes:
//  * exact  — enumerate all C(n,u) nodes (feasible up to a few million
//             nodes; every OA* experiment in the paper is in this range);
//  * approx — per-level greedy estimate using the model's pressure
//             surrogate; used by HA* at scales where enumeration is
//             impossible (Fig. 13 runs n = 1208 ⇒ C(n,4) ≈ 8.8e10).
//             Approximate stats are NOT admissible and are only used by the
//             heuristic search.
#pragma once

#include <cstdint>
#include <vector>

#include "core/node_eval.hpp"

namespace cosched {

class LevelStats {
 public:
  /// Exact enumeration. `mode` controls how parallel processes count in the
  /// h-weight (see HWeightMode). Aborts with ContractViolation if the graph
  /// exceeds `max_nodes` (guards against accidental blow-up).
  static LevelStats build_exact(const NodeEvaluator& eval, HWeightMode mode,
                                std::uint64_t max_nodes = 20'000'000);

  /// Greedy approximation: the minimum weight of level i is estimated by the
  /// node {i} ∪ {u-1 lowest-pressure ids > i}.
  static LevelStats build_approx(const NodeEvaluator& eval, HWeightMode mode);

  bool exact() const { return exact_; }
  std::uint64_t total_nodes() const { return total_nodes_; }

  /// Minimum h-weight among the nodes of level `lead` (the nodes whose
  /// smallest member is `lead`); approximate builds hold the greedy estimate
  /// instead. Levels exist only for lead in [0, n-u]; larger ids lead no
  /// level and return kInfinity.
  Real min_level_weight(ProcessId lead) const;

  /// Strategy 2: sum of the `k` smallest min_level_weight values over the
  /// given unscheduled process ids (only ids that can lead a level, i.e.
  /// id <= n-u, participate; others are ignored).
  Real strategy2_h(const std::vector<ProcessId>& unscheduled,
                   std::int32_t k) const;

  /// Strategy 1: sum of the `k` smallest node h-weights among all nodes in
  /// levels strictly greater than `level_gt`. Requires exact().
  Real strategy1_h(ProcessId level_gt, std::int32_t k) const;

 private:
  bool exact_ = false;
  std::int32_t n_ = 0;
  std::int32_t u_ = 0;
  std::uint64_t total_nodes_ = 0;
  std::vector<Real> min_level_weight_;  // indexed by lead id
  /// (h-weight, level) of every node, sorted by weight ascending (exact
  /// builds only). float keeps it compact; h is a bound, not an objective.
  std::vector<std::pair<float, std::int32_t>> sorted_nodes_;
};

}  // namespace cosched
