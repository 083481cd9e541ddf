// The extended A*-search over the co-scheduling graph (paper Section III),
// covering three published algorithms through its options:
//
//   * OA*  — optimal A*: full expansion, Strategy 1/2 heuristics, dismissal
//            over process sets, condensation (solve_oastar).
//   * HA*  — heuristic A*: per-level candidate cap of n/u, the paper's MER
//            function (solve_hastar, Section IV).
//   * O-SVP — Dijkstra over valid paths, the baseline from the authors'
//            MASCOTS'14 work [33]: OA* with h ≡ 0 (solve_osvp).
//
// The search state is the *set of scheduled processes* plus the per-
// parallel-job running maximum degradations; see DESIGN.md §3 for why the
// per-set dismissal needs those maxima (DismissPolicy). Records are plain
// structs whose sets and maxima live in two fixed-stride arenas, indexed by
// an open-addressing dismissal table, so no state allocates on its own; the
// schedule is rebuilt from the sets' differences along the parent chain.
// SearchOptions bound the search by expansions, time and memory
// (max_memory_bytes, reported as SearchResult::memory_exhausted).
#pragma once

#include "astar/search_options.hpp"
#include "core/problem.hpp"

namespace cosched {

class CoScheduleSearch {
 public:
  CoScheduleSearch(const Problem& problem, SearchOptions options);

  /// Runs the search to completion (or limit). Reentrant: each call starts
  /// fresh.
  SearchResult run();

 private:
  const Problem& problem_;
  SearchOptions options_;
};

/// Optimal A*-search (paper Section III).
SearchResult solve_oastar(const Problem& problem, SearchOptions options = {});

/// Heuristic A*-search (paper Section IV). `options.heuristic_search` is
/// forced on.
SearchResult solve_hastar(const Problem& problem, SearchOptions options = {});

/// O-SVP baseline: Dijkstra over valid paths (h ≡ 0, no candidate cap).
SearchResult solve_osvp(const Problem& problem, SearchOptions options = {});

}  // namespace cosched
