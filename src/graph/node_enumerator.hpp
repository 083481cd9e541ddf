// Lazy enumeration of a level's valid nodes during search expansion.
//
// When the search expands a subpath, the valid level is led by the smallest
// unscheduled process id; valid nodes are {lead} ∪ any (u-1)-subset of the
// remaining unscheduled ids. OA* visits all of them; HA* only the k
// cheapest by node weight (k = n/u, the MER function). At small scale the k
// cheapest are found by full enumeration + bounded selection; at large
// scale they are generated best-first over a separable pressure surrogate
// and re-ranked by true weight (DESIGN.md §3 "HA*").
//
// for_each_valid_node is a header template over its callback (no type-erased
// function wrapper), built on the same inline walker as
// for_each_combination: the lead and the combination are written straight
// into one node buffer, so enumerating a level costs no allocation and no
// indirect call per node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/node_eval.hpp"
#include "util/combinatorics.hpp"

namespace cosched {

/// A candidate node with its evaluation.
struct NodeCandidate {
  std::vector<ProcessId> node;  ///< sorted; node[0] == lead
  Real weight = 0.0;            ///< Σ member degradations
  std::vector<Real> member_d;   ///< degradation per member, node order
};

/// Invokes `fn(std::span<const ProcessId>)` for every valid node of the
/// level led by `lead`, where `pool` holds the unscheduled ids greater than
/// `lead` (sorted ascending): {lead} ∪ each (u-1)-subset of `pool`, in
/// lexicographic order. `fn` returns false to stop. The span passed to `fn`
/// is reused.
template <class Fn>
void for_each_valid_node(ProcessId lead, const std::vector<ProcessId>& pool,
                         std::int32_t u, Fn&& fn) {
  COSCHED_EXPECTS(u >= 1);
  COSCHED_EXPECTS(static_cast<std::int32_t>(pool.size()) >= u - 1);
  std::vector<ProcessId> node(static_cast<std::size_t>(u));
  node[0] = lead;
  const std::span<const ProcessId> view(node);
  detail::walk_combinations(pool, std::span<ProcessId>(node).subspan(1),
                            [&] { return fn(view); });
}

enum class CandidateSelection {
  Auto,          ///< Exact when the level is small, surrogate otherwise
  ExactSort,     ///< enumerate + select k smallest true weights
  SurrogateHeap, ///< best-first over pressure sums, re-rank by true weight
};

/// Returns up to `k` valid nodes of the level, cheapest true weight first.
/// `overgen` (surrogate mode) controls how many candidates are generated per
/// requested node before re-ranking.
std::vector<NodeCandidate> k_best_valid_nodes(
    const NodeEvaluator& eval, ProcessId lead,
    const std::vector<ProcessId>& pool, std::int32_t u, std::int32_t k,
    CandidateSelection selection, std::size_t overgen = 4);

}  // namespace cosched
