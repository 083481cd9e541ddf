// Options, statistics and results of the co-scheduling graph search.
#pragma once

#include <cstdint>

#include "core/node_eval.hpp"
#include "core/objective.hpp"
#include "graph/level_stats.hpp"  // HeuristicKind
#include "graph/node_enumerator.hpp"

namespace cosched {

/// How subpaths over the same process set are dismissed (Section III-C1).
enum class DismissPolicy {
  /// The paper's strategy: keep only the minimum-distance subpath per
  /// process set (Theorem 1). Exact for serial-only batches.
  PaperMinDistance,
  /// Exact also with parallel jobs: keep the Pareto front over
  /// (serial-part distance, per-parallel-job running maxima).
  ParetoDominance,
};

struct SearchOptions {
  /// Path-distance aggregation: Eq. 12 (SumAllProcesses → the OA*-SE
  /// variant) or Eq. 13 (MaxPerParallelJob → OA*-PE / OA*-PC).
  Aggregation aggregation = Aggregation::MaxPerParallelJob;
  /// Use the communication-combined model (Eq. 9, OA*-PC) or contention
  /// only (OA*-PE)?
  bool use_comm_model = true;

  /// h(v). The default, Lagrangian, is the paper's Strategy 2 over
  /// multiplier-reduced node weights (DESIGN.md §"h(v)"); HA* and
  /// approximate statistics run it with λ = 0, i.e. as Strategy 2.
  HeuristicKind heuristic = HeuristicKind::Lagrangian;
  DismissPolicy dismiss = DismissPolicy::PaperMinDistance;

  /// Communication-aware process condensation (Section III-E).
  bool condense = true;

  /// HA*: cap the valid nodes attempted per level at `mer_cap`
  /// (0 → the paper's MER function ⌈n/u⌉). OA* when heuristic_search off.
  bool heuristic_search = false;
  std::int32_t mer_cap = 0;

  /// Depth-synchronized beam search width. 0 = pure (heuristic) A*.
  /// HA* switches to beam mode automatically (width = mer_cap) at scales
  /// where exact level statistics are infeasible: with only approximate
  /// h(v), best-first search over thousands of processes floods the open
  /// list, whereas a beam costs a predictable m × width × mer_cap node
  /// evaluations (the Fig. 12/13 regime).
  std::int32_t beam_width = 0;

  /// Exact level statistics are built only when C(n,u) fits this budget;
  /// beyond it HA* falls back to approximate stats and Strategy1 (which
  /// requires the full node list) is rejected.
  std::uint64_t max_stats_nodes = 5'000'000;

  std::uint64_t max_expansions = 0;   ///< 0 = unlimited
  Real time_limit_seconds = 0.0;      ///< 0 = unlimited
  /// Bound on the search's memory, 0 = unlimited: the summed capacities of
  /// its record arenas, dismissal table and open list, checked before each
  /// expansion. Reaching it ends the search with
  /// SearchResult::memory_exhausted.
  std::uint64_t max_memory_bytes = 0;
};

struct SearchStats {
  std::uint64_t expanded = 0;         ///< subpaths popped and expanded
  std::uint64_t generated = 0;        ///< successor subpaths evaluated
  std::uint64_t visited_paths = 0;    ///< subpaths entered into the priority
                                      ///< list (the Table IV metric)
  std::uint64_t dismissed = 0;        ///< successors pruned by the dismissal
  std::uint64_t condensed_skips = 0;  ///< successors pruned by condensation
  std::uint64_t beam_pruned = 0;      ///< live candidates cut at beam depth
                                      ///< synchronization
  std::uint64_t heuristic_evals = 0;  ///< h(v) evaluations (root + successor)
  double precompute_seconds = 0.0;    ///< level statistics construction
  double search_seconds = 0.0;
  double total_seconds() const { return precompute_seconds + search_seconds; }
};

struct SearchResult {
  bool found = false;
  bool timed_out = false;
  /// The search reached SearchOptions::max_memory_bytes (found is false).
  bool memory_exhausted = false;
  Solution solution;
  /// Path distance of the returned solution under the search's own
  /// aggregation/model (Eq. 12/13). Re-evaluate with evaluate_solution()
  /// to compare variants under a common objective.
  Real objective = kInfinity;
  SearchStats stats;
};

}  // namespace cosched
