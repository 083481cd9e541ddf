// Static per-level statistics of the co-scheduling graph, backing the h(v)
// strategies of the paper (Section III-D).
//
// Level i of the graph holds every u-subset whose smallest process id is i.
// Strategy 1 needs all node weights of levels > l sorted ascending;
// Strategy 2 needs the minimum node weight of each level. The Lagrangian
// bound is Strategy 2 over reduced weights w(v) − λ(v), one multiplier λᵢ
// per process, plus λ of the unscheduled set (DESIGN.md §"h(v)"). All are
// static (path-independent), so they are computed once per search.
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

/// h(v) estimation strategy (paper Section III-D). None turns the search
/// into Dijkstra over valid paths — exactly the O-SVP algorithm of the
/// authors' earlier work [33], used as a baseline in Tables III/IV.
/// Lagrangian is Strategy 2 over multiplier-reduced node weights: admissible
/// for every λ, equal to Strategy 2 at λ = 0, and with λ fitted at the root
/// far tighter on landscapes whose levels share their cheap co-runners.
enum class HeuristicKind { None, Strategy1, Strategy2, Lagrangian };

class LevelStats {
 public:
  /// Relative slack subtracted from the Lagrangian bound per unit of
  /// multiplier mass Σ|λᵢ| over the unscheduled set: the bound sums terms of
  /// mixed sign, and rounding must never lift it above the true remaining
  /// cost. Zero multipliers subtract nothing.
  static constexpr Real kRoundingSlack = 1e-12;

  /// Exact enumeration over NodeEvaluator::h_weight. Aborts with
  /// ContractViolation if the graph exceeds `max_nodes` (guards against
  /// accidental blow-up). `kind` names the bound the caller reads: Strategy1
  /// additionally keeps every node weight sorted; Lagrangian fits the
  /// multipliers (otherwise λ = 0).
  static LevelStats build_exact(const NodeEvaluator& eval,
                                std::uint64_t max_nodes = 20'000'000,
                                HeuristicKind kind = HeuristicKind::Strategy2);

  /// Greedy approximation: the minimum weight of level i is estimated by the
  /// node {i} ∪ {u-1 lowest-pressure ids > i}. λ = 0.
  static LevelStats build_approx(const NodeEvaluator& eval);

  bool exact() const { return exact_; }
  std::uint64_t total_nodes() const { return total_nodes_; }

  /// Minimum h-weight among the nodes of level `lead` (the nodes whose
  /// smallest member is `lead`); approximate builds hold the greedy estimate
  /// instead. Levels exist only for lead in [0, n-u]; larger ids lead no
  /// level and return kInfinity.
  Real min_level_weight(ProcessId lead) const;

  /// The multiplier λ of process `p` (0 unless fitted).
  Real multiplier(ProcessId p) const {
    return lambda_[static_cast<std::size_t>(p)];
  }

  /// Minimum reduced weight h_weight(v) − λ(v) among the nodes of level
  /// `lead`; equals min_level_weight when λ = 0.
  Real min_reduced_weight(ProcessId lead) const {
    return min_reduced_weight_[static_cast<std::size_t>(lead)];
  }

  /// Strategy 2: sum of the `k` smallest min_level_weight values over the
  /// given unscheduled process ids (only ids that can lead a level, i.e.
  /// id <= n-u, participate; others are ignored).
  Real strategy2_h(const std::vector<ProcessId>& unscheduled,
                   std::int32_t k) const;

  /// The Lagrangian bound: λ(unscheduled) + the `k` smallest
  /// min_reduced_weight values over the unscheduled leads, less the rounding
  /// slack, floored at 0. Bit-identical to strategy2_h when λ = 0.
  Real lagrangian_h(const std::vector<ProcessId>& unscheduled,
                    std::int32_t k) const;

  /// Strategy 1: sum of the `k` smallest node h-weights among all nodes in
  /// levels strictly greater than `level_gt`. Requires an exact build for
  /// HeuristicKind::Strategy1.
  Real strategy1_h(ProcessId level_gt, std::int32_t k) const;

 private:
  /// Deterministic Polyak subgradient ascent on the root bound; keeps the
  /// best multipliers seen. `weights` holds every node's h-weight in
  /// walk_levels order. Each step scans a flat per-level slab of the nodes'
  /// co-runner ids, built once per fit: u−1 ids per node, uint8 when
  /// n <= 256 and uint16 beyond, so no more than the node's 8-byte weight at
  /// every (n, u) an exact build can enumerate in practice.
  void fit_multipliers(const std::vector<Real>& weights);

  bool exact_ = false;
  std::int32_t n_ = 0;
  std::int32_t u_ = 0;
  std::uint64_t total_nodes_ = 0;
  std::vector<Real> min_level_weight_;    // indexed by lead id
  std::vector<Real> lambda_;              // indexed by process id
  std::vector<Real> min_reduced_weight_;  // indexed by lead id
  /// (h-weight, level) of every node, sorted by weight ascending (Strategy 1
  /// builds only). float keeps it compact; h is a bound, not an objective.
  std::vector<std::pair<float, std::int32_t>> sorted_nodes_;
};

}  // namespace cosched
