// NodeEvaluator: weight of a co-scheduling-graph node.
//
// A node is a set of u processes placed on one machine; its weight is the
// total degradation of those processes (paper Section III-A). The search
// additionally needs the per-process degradations (to maintain per-parallel-
// job maxima) and an "h-weight" — the node's contribution usable inside an
// admissible heuristic (parallel processes may legitimately contribute 0 to
// the path distance when their job's max lies elsewhere).
#pragma once

#include <span>
#include <vector>

#include "core/degradation_model.hpp"
#include "core/problem.hpp"

namespace cosched {

class NodeEvaluator {
 public:
  NodeEvaluator(const Problem& problem, const DegradationModel& model)
      : problem_(&problem), model_(&model) {}

  const Problem& problem() const { return *problem_; }
  const DegradationModel& model() const { return *model_; }

  /// Per-process degradations of `node`'s members (in member order) written
  /// into `d_out`; returns the node weight Σ d.
  Real weight(std::span<const ProcessId> node, std::vector<Real>& d_out) const;

  /// Node weight only.
  Real weight(std::span<const ProcessId> node) const;

  /// Weight for heuristic purposes: parallel processes count 0 (their
  /// job's maximum may lie elsewhere), which keeps h(v) admissible
  /// (DESIGN.md §"h(v)").
  Real h_weight(std::span<const ProcessId> node) const;

 private:
  const Problem* problem_;
  const DegradationModel* model_;
};

}  // namespace cosched
