#include "baseline/local_search.hpp"

#include "vm/migration.hpp"

namespace cosched {

LocalSearchResult improve_by_swaps(const Problem& problem, Solution start,
                                   std::uint64_t max_passes) {
  // The migration swap engine with nothing to migrate: migration cost 0
  // prices swaps by Eq. 13 degradation alone.
  SwapEngine engine(problem, start, start, 0.0);
  LocalSearchResult result;
  result.passes = engine.run(max_passes);
  result.swaps_applied = engine.swaps_applied();
  result.solution = engine.take_placement();
  result.objective = evaluate_solution(problem, result.solution).total;
  result.solution.canonicalize();
  return result;
}

}  // namespace cosched
