// Pairwise-swap local search: repeatedly exchanges two processes between
// machines while the Eq. 13 objective improves. An extra baseline (not in
// the paper) that brackets how much of the OA*/HA* gain simple hill
// climbing recovers. It runs on the migration swap engine (SwapEngine,
// vm/migration.hpp) with migration cost 0: one delta-evaluated swap loop
// serves both.
#pragma once

#include <cstdint>

#include "core/objective.hpp"
#include "core/problem.hpp"

namespace cosched {

struct LocalSearchResult {
  Solution solution;
  Real objective = kInfinity;
  std::uint64_t swaps_applied = 0;
  std::uint64_t passes = 0;
};

/// First-improvement passes until a full pass finds no improving swap or
/// `max_passes` is reached.
LocalSearchResult improve_by_swaps(const Problem& problem, Solution start,
                                   std::uint64_t max_passes = 50);

}  // namespace cosched
