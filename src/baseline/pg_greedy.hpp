// PG — the politeness-based greedy co-scheduler of Jiang et al. [18], the
// heuristic baseline of the paper's Section V-E.
//
// Politeness of a process measures how little damage it inflicts on
// co-runners (estimated from pairwise co-runs). PG sorts processes by
// politeness, seeds each machine with one of the most impolite processes,
// and fills the remaining slots with the most polite processes — pairing
// "friendly" with "unfriendly" jobs exactly as [18] describes, without
// consulting the degradation model during placement.
#pragma once

#include "core/objective.hpp"
#include "core/problem.hpp"

namespace cosched {

/// Jiang et al.'s politeness pairing. Deterministic.
Solution solve_pg_greedy(const Problem& problem,
                         const DegradationModel& model);
Solution solve_pg_greedy(const Problem& problem);

}  // namespace cosched
