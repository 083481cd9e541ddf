#include "graph/level_stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "util/combinatorics.hpp"

namespace cosched {

namespace {

/// Walks every node of every level — leads ascending, co-runner sets in
/// lexicographic order within a level — calling `visit(lead, node)`.
template <class Visit>
void walk_levels(std::int32_t n, std::int32_t u, Visit&& visit) {
  const auto width = static_cast<std::size_t>(u);
  std::vector<ProcessId> node(width);
  auto refill_from = [&](std::size_t j) {
    for (; j < width; ++j) node[j] = node[j - 1] + 1;
  };
  for (ProcessId lead = 0; lead + u <= n; ++lead) {
    node[0] = lead;
    refill_from(1);
    while (true) {
      visit(lead, std::span<const ProcessId>(node));
      // Advance the rightmost co-runner not yet at its last id.
      std::size_t j = width - 1;
      while (j >= 1 && node[j] == n - static_cast<ProcessId>(width - j)) --j;
      if (j < 1) break;
      ++node[j];
      refill_from(j + 1);
    }
  }
}

/// Steps of subgradient ascent per exact Lagrangian build, and the number of
/// non-improving steps after which the Polyak step factor halves.
constexpr std::int32_t kSubgradientSteps = 300;
constexpr std::int32_t kStallSteps = 10;

}  // namespace

LevelStats LevelStats::build_exact(const NodeEvaluator& eval,
                                   std::uint64_t max_nodes,
                                   HeuristicKind kind) {
  const Problem& problem = eval.problem();
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();
  const std::uint64_t total =
      binomial(static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(u));
  COSCHED_EXPECTS(total <= max_nodes);

  LevelStats stats;
  stats.exact_ = true;
  stats.n_ = n;
  stats.u_ = u;
  stats.total_nodes_ = total;
  stats.min_level_weight_.assign(static_cast<std::size_t>(n), kInfinity);
  stats.lambda_.assign(static_cast<std::size_t>(n), 0.0);
  const bool sorted = kind == HeuristicKind::Strategy1;
  const bool lagrangian = kind == HeuristicKind::Lagrangian;
  if (sorted) stats.sorted_nodes_.reserve(static_cast<std::size_t>(total));
  std::vector<Real> weights;
  if (lagrangian) weights.reserve(static_cast<std::size_t>(total));

  walk_levels(n, u, [&](ProcessId lead, std::span<const ProcessId> node) {
    Real w = eval.h_weight(node);
    auto& mw = stats.min_level_weight_[static_cast<std::size_t>(lead)];
    if (w < mw) mw = w;
    if (sorted) stats.sorted_nodes_.emplace_back(static_cast<float>(w), lead);
    if (lagrangian) weights.push_back(w);
  });
  if (sorted)
    std::sort(stats.sorted_nodes_.begin(), stats.sorted_nodes_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  stats.min_reduced_weight_ = stats.min_level_weight_;
  if (lagrangian) stats.fit_multipliers(weights);
  return stats;
}

namespace {

/// Every node of the graph in walk_levels order, grouped by level: level l
/// holds nodes [begin[l], begin[l+1]) and node e's co-runners (the members
/// after its lead, ascending) are co[e·(u−1) .. (e+1)·(u−1)). Ids are stored
/// as `Id`, the narrowest type that holds n−1.
template <class Id>
struct LevelSlab {
  std::vector<std::size_t> begin;
  std::vector<Id> co;
};

template <class Id>
LevelSlab<Id> build_slab(std::int32_t n, std::int32_t u) {
  LevelSlab<Id> slab;
  const auto levels = static_cast<std::size_t>(n - u + 1);
  slab.begin.assign(levels + 1, 0);
  std::size_t nodes = 0;
  walk_levels(n, u, [&](ProcessId lead, std::span<const ProcessId> node) {
    slab.begin[static_cast<std::size_t>(lead) + 1] = ++nodes;
    for (std::size_t j = 1; j < node.size(); ++j)
      slab.co.push_back(static_cast<Id>(node[j]));
  });
  return slab;
}

/// LevelStats::fit_multipliers over a slab of `Id`s: writes the best
/// multipliers seen to `best_lambda` and their per-level reduced minima
/// (kInfinity past the last level) to `best_min_reduced`.
template <class Id>
void fit_over(const std::vector<Real>& weights, std::int32_t n_procs,
              std::int32_t u, std::vector<Real>& best_lambda,
              std::vector<Real>& best_min_reduced) {
  COSCHED_EXPECTS(n_procs - 1 <= std::numeric_limits<Id>::max());
  const auto n = static_cast<std::size_t>(n_procs);
  const std::size_t co_width = static_cast<std::size_t>(u) - 1;
  const auto levels = static_cast<std::size_t>(n_procs - u + 1);
  const auto k = static_cast<std::size_t>(n_procs / u);

  const LevelSlab<Id> slab = build_slab<Id>(n_procs, u);
  auto co_of = [&](std::size_t e) {
    return std::span<const Id>(slab.co).subspan(e * co_width, co_width);
  };

  // Target of the Polyak steps: the weight of a greedy partition, in which
  // each lowest free lead takes its cheapest node of free processes (the
  // first in walk order on ties). A lead's choice only touches larger ids,
  // so the levels are decided in ascending order.
  Real upper = 0.0;
  {
    std::vector<bool> used(n, false);
    for (std::size_t l = 0; l < levels; ++l) {
      if (used[l]) continue;
      Real pick_w = kInfinity;
      std::size_t pick = 0;
      for (std::size_t e = slab.begin[l]; e < slab.begin[l + 1]; ++e) {
        const auto co = co_of(e);
        if (std::any_of(co.begin(), co.end(),
                        [&](Id p) { return used[p]; }))
          continue;
        if (weights[e] < pick_w) {
          pick_w = weights[e];
          pick = e;
        }
      }
      if (pick_w == kInfinity) continue;
      used[l] = true;
      for (Id p : co_of(pick)) used[p] = true;
      upper += pick_w;
    }
  }

  // Per-level minimum reduced weight and the node attaining it (the first
  // in walk order on ties). A node's λ sums left to right from its lead,
  // ((λ_lead + λ_a) + λ_b) + ...: the summation order fixes the fitted λ to
  // the bit.
  std::vector<Real> lambda(n, 0.0);
  std::vector<Real> level_min(levels);
  std::vector<std::size_t> argmin(levels);
  std::vector<std::size_t> order(levels);
  std::vector<std::int32_t> cover(n);
  Real best_bound = -kInfinity;
  Real theta = 2.0;
  std::int32_t stall = 0;
  const Real tolerance = 1e-9 * std::max<Real>(1.0, std::abs(upper));
  for (std::int32_t step = 0; step < kSubgradientSteps; ++step) {
    for (std::size_t l = 0; l < levels; ++l) {
      const Real lead_lambda = lambda[l];
      Real best = kInfinity;
      std::size_t best_e = argmin[l];
      const Id* co = slab.co.data() + slab.begin[l] * co_width;
      for (std::size_t e = slab.begin[l]; e < slab.begin[l + 1];
           ++e, co += co_width) {
        Real node_lambda = lead_lambda;
        for (std::size_t j = 0; j < co_width; ++j) node_lambda += lambda[co[j]];
        const Real r = weights[e] - node_lambda;
        if (r < best) {
          best = r;
          best_e = e;
        }
      }
      level_min[l] = best;
      argmin[l] = best_e;
    }
    // The root bound: λ(N) + the k smallest level minima (ties by lead).
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), [&](std::size_t a, std::size_t b) {
                       if (level_min[a] != level_min[b])
                         return level_min[a] < level_min[b];
                       return a < b;
                     });
    Real bound = 0.0;
    for (Real l : lambda) bound += l;
    for (std::size_t i = 0; i < k; ++i) bound += level_min[order[i]];

    if (bound > best_bound) {
      best_bound = bound;
      best_lambda = lambda;
      best_min_reduced.assign(level_min.begin(), level_min.end());
      best_min_reduced.resize(n, kInfinity);
      stall = 0;
    } else if (++stall == kStallSteps) {
      theta *= 0.5;
      stall = 0;
    }
    if (best_bound >= upper - tolerance) break;

    // Subgradient: 1 − (times process i is covered by the chosen nodes).
    std::fill(cover.begin(), cover.end(), 0);
    for (std::size_t i = 0; i < k; ++i) {
      ++cover[order[i]];
      for (Id p : co_of(argmin[order[i]])) ++cover[p];
    }
    Real norm2 = 0.0;
    for (std::int32_t c : cover)
      norm2 += static_cast<Real>((1 - c) * (1 - c));
    // The chosen nodes partition N: the bound is a schedule's weight, hence
    // the optimum.
    if (norm2 == 0.0) break;
    const Real t = theta * (upper - bound) / norm2;
    for (std::size_t i = 0; i < n; ++i)
      lambda[i] += t * static_cast<Real>(1 - cover[i]);
  }
}

}  // namespace

void LevelStats::fit_multipliers(const std::vector<Real>& weights) {
  if (n_ <= 256)
    fit_over<std::uint8_t>(weights, n_, u_, lambda_, min_reduced_weight_);
  else
    fit_over<std::uint16_t>(weights, n_, u_, lambda_, min_reduced_weight_);
}

LevelStats LevelStats::build_approx(const NodeEvaluator& eval) {
  const Problem& problem = eval.problem();
  const DegradationModel& model = eval.model();
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();

  LevelStats stats;
  stats.exact_ = false;
  stats.n_ = n;
  stats.u_ = u;
  stats.total_nodes_ =
      binomial(static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(u));
  stats.min_level_weight_.assign(static_cast<std::size_t>(n), kInfinity);

  // Estimate each level's on-path node weight with *typical* (median-
  // pressure) co-runners rather than the globally cheapest ones: the
  // cheapest co-runners can each be used by only one level of a real path,
  // so a per-level "true minimum" underestimates the remaining cost so
  // badly that the search degenerates toward Dijkstra. A typical-co-runner
  // estimate keeps h near the real per-level cost; HA* (the only consumer
  // of approximate stats) does not require admissibility.
  std::vector<ProcessId> by_pressure(static_cast<std::size_t>(n));
  for (std::int32_t p = 0; p < n; ++p)
    by_pressure[static_cast<std::size_t>(p)] = p;
  std::sort(by_pressure.begin(), by_pressure.end(),
            [&](ProcessId a, ProcessId b) {
              return model.pressure(a) < model.pressure(b);
            });

  std::vector<ProcessId> node;
  for (ProcessId lead = 0; lead + u <= n; ++lead) {
    node.clear();
    node.push_back(lead);
    // Walk outward from the pressure median so the chosen co-runners are
    // representative of an average machine's load.
    std::size_t mid = by_pressure.size() / 2;
    for (std::size_t offset = 0;
         offset < by_pressure.size() &&
         static_cast<std::int32_t>(node.size()) < u;
         ++offset) {
      std::size_t idx =
          (offset % 2 == 0) ? mid + offset / 2
                            : mid - 1 - offset / 2 + (mid == 0 ? 1 : 0);
      if (idx >= by_pressure.size()) continue;
      ProcessId cand = by_pressure[idx];
      if (cand == lead) continue;
      node.push_back(cand);
    }
    COSCHED_ENSURES(static_cast<std::int32_t>(node.size()) == u);
    std::sort(node.begin(), node.end());
    stats.min_level_weight_[static_cast<std::size_t>(lead)] =
        eval.h_weight(node);
  }
  stats.lambda_.assign(static_cast<std::size_t>(n), 0.0);
  stats.min_reduced_weight_ = stats.min_level_weight_;
  return stats;
}

Real LevelStats::min_level_weight(ProcessId lead) const {
  COSCHED_EXPECTS(lead >= 0 && lead < n_);
  return min_level_weight_[static_cast<std::size_t>(lead)];
}

namespace {

/// Sum of the `k` smallest finite `per_lead` values over the ids of
/// `unscheduled` that lead a level.
Real sum_k_smallest(const std::vector<Real>& per_lead,
                    const std::vector<ProcessId>& unscheduled, std::int32_t k,
                    std::int32_t n, std::int32_t u) {
  if (k <= 0) return 0.0;
  thread_local std::vector<Real> weights;
  weights.clear();
  for (ProcessId p : unscheduled) {
    if (p + u > n) continue;  // cannot lead a level
    Real w = per_lead[static_cast<std::size_t>(p)];
    if (w < kInfinity) weights.push_back(w);
  }
  // Fewer candidate levels than remaining machines can only happen near the
  // end of the graph; the missing terms lower-bound to 0.
  std::int32_t take = std::min<std::int32_t>(
      k, static_cast<std::int32_t>(weights.size()));
  if (take <= 0) return 0.0;
  std::nth_element(weights.begin(), weights.begin() + (take - 1),
                   weights.end());
  Real h = 0.0;
  for (std::int32_t i = 0; i < take; ++i) h += weights[static_cast<std::size_t>(i)];
  return h;
}

}  // namespace

Real LevelStats::strategy2_h(const std::vector<ProcessId>& unscheduled,
                             std::int32_t k) const {
  return sum_k_smallest(min_level_weight_, unscheduled, k, n_, u_);
}

Real LevelStats::lagrangian_h(const std::vector<ProcessId>& unscheduled,
                              std::int32_t k) const {
  if (k <= 0) return 0.0;
  Real lambda = 0.0, mass = 0.0;
  for (ProcessId p : unscheduled) {
    lambda += multiplier(p);
    mass += std::abs(multiplier(p));
  }
  const Real h = lambda +
                 sum_k_smallest(min_reduced_weight_, unscheduled, k, n_, u_) -
                 kRoundingSlack * mass;
  return std::max(0.0, h);
}

Real LevelStats::strategy1_h(ProcessId level_gt, std::int32_t k) const {
  COSCHED_EXPECTS(exact_ && sorted_nodes_.size() == total_nodes_);
  if (k <= 0) return 0.0;
  Real h = 0.0;
  std::int32_t taken = 0;
  for (const auto& [w, level] : sorted_nodes_) {
    if (level <= level_gt) continue;
    h += static_cast<Real>(w);
    if (++taken == k) break;
  }
  return h;
}

}  // namespace cosched
