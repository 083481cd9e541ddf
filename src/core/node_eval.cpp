#include "core/node_eval.hpp"

namespace cosched {

Real NodeEvaluator::weight(std::span<const ProcessId> node,
                           std::vector<Real>& d_out) const {
  d_out.clear();
  Real total = 0.0;
  // Stack buffer for co-runners; u is small (2..8 in the paper).
  ProcessId co[16];
  COSCHED_EXPECTS(node.size() <= 16);
  for (std::size_t i = 0; i < node.size(); ++i) {
    std::size_t c = 0;
    for (std::size_t j = 0; j < node.size(); ++j)
      if (j != i) co[c++] = node[j];
    Real d = model_->degradation(node[i], std::span<const ProcessId>(co, c));
    d_out.push_back(d);
    total += d;
  }
  return total;
}

Real NodeEvaluator::weight(std::span<const ProcessId> node) const {
  thread_local std::vector<Real> scratch;
  return weight(node, scratch);
}

Real NodeEvaluator::h_weight(std::span<const ProcessId> node) const {
  thread_local std::vector<Real> scratch;
  Real w = weight(node, scratch);
  for (std::size_t i = 0; i < node.size(); ++i)
    if (problem_->batch.is_parallel_process(node[i])) w -= scratch[i];
  return w;
}

}  // namespace cosched
