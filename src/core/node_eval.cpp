#include "core/node_eval.hpp"

namespace cosched {

Real NodeEvaluator::weight(std::span<const ProcessId> node,
                           std::vector<Real>& d_out) const {
  d_out.resize(node.size());
  model_->machine_degradations(node, d_out);
  Real total = 0.0;
  for (Real d : d_out) total += d;
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
