#include "graph/node_enumerator.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "util/combinatorics.hpp"

namespace cosched {

void for_each_valid_node(
    ProcessId lead, const std::vector<ProcessId>& pool, std::int32_t u,
    const std::function<bool(std::span<const ProcessId>)>& fn) {
  COSCHED_EXPECTS(u >= 1);
  COSCHED_EXPECTS(static_cast<std::int32_t>(pool.size()) >= u - 1);
  std::vector<ProcessId> node(static_cast<std::size_t>(u));
  node[0] = lead;
  if (u == 1) {
    fn(node);
    return;
  }
  for_each_combination(pool, static_cast<std::size_t>(u - 1),
                       [&](const std::vector<std::int32_t>& comb) {
                         for (std::size_t j = 0; j < comb.size(); ++j)
                           node[j + 1] = comb[j];
                         return fn(node);
                       });
}

namespace {

std::vector<NodeCandidate> k_best_exact(const NodeEvaluator& eval,
                                        ProcessId lead,
                                        const std::vector<ProcessId>& pool,
                                        std::int32_t u, std::int32_t k) {
  // Bounded max-heap of the k cheapest nodes seen so far, ordered by
  // (weight, node lexicographically) — the total order a full sort would
  // use, so the winners and their order are the same. Heap entries point
  // into a slab of k node slots: a node that loses costs one evaluation
  // and no allocation.
  const std::size_t width = static_cast<std::size_t>(u);
  struct Entry {
    Real weight;
    std::size_t slot;
  };
  std::vector<Entry> heap;
  std::vector<ProcessId> slab;
  auto node_at = [&](std::size_t slot) {
    return std::span<const ProcessId>(slab.data() + slot * width, width);
  };
  auto before = [](Real wa, std::span<const ProcessId> a, Real wb,
                   std::span<const ProcessId> b) {
    if (wa != wb) return wa < wb;
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());  // deterministic tie-break
  };
  auto heap_less = [&](const Entry& a, const Entry& b) {
    return before(a.weight, node_at(a.slot), b.weight, node_at(b.slot));
  };
  std::vector<Real> d_scratch;
  const auto cap = static_cast<std::size_t>(k);
  for_each_valid_node(lead, pool, u, [&](std::span<const ProcessId> node) {
    Real w = eval.weight(node, d_scratch);
    if (heap.size() < cap) {
      heap.push_back({w, heap.size()});
      slab.insert(slab.end(), node.begin(), node.end());
      std::push_heap(heap.begin(), heap.end(), heap_less);
    } else if (before(w, node, heap.front().weight,
                      node_at(heap.front().slot))) {
      std::pop_heap(heap.begin(), heap.end(), heap_less);
      Entry& worst = heap.back();
      worst.weight = w;
      std::copy(node.begin(), node.end(),
                slab.begin() + static_cast<std::ptrdiff_t>(worst.slot * width));
      std::push_heap(heap.begin(), heap.end(), heap_less);
    }
    return true;
  });
  std::sort_heap(heap.begin(), heap.end(), heap_less);
  // Per-member degradations only for the winners: the model is a pure
  // function, so re-evaluating reproduces the enumerated values bit for bit.
  std::vector<NodeCandidate> best(heap.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    std::span<const ProcessId> node = node_at(heap[i].slot);
    best[i].node.assign(node.begin(), node.end());
    best[i].weight = eval.weight(node, best[i].member_d);
  }
  return best;
}

/// Best-first generation of (u-1)-subsets of `sorted_pool` (sorted by
/// surrogate key ascending) in increasing key-sum order. Standard k-smallest
/// -sums frontier search over index tuples.
class SubsetHeap {
 public:
  SubsetHeap(const std::vector<ProcessId>& sorted_pool,
             const std::vector<Real>& keys, std::size_t m)
      : pool_(sorted_pool), keys_(keys), m_(m) {
    COSCHED_EXPECTS(m_ >= 1);
    COSCHED_EXPECTS(pool_.size() >= m_);
    std::vector<std::int32_t> first(m_);
    Real sum = 0.0;
    for (std::size_t j = 0; j < m_; ++j) {
      first[j] = static_cast<std::int32_t>(j);
      sum += keys_[j];
    }
    push(std::move(first), sum);
  }

  bool next(std::vector<ProcessId>& subset_out) {
    while (!heap_.empty()) {
      Entry top = heap_.top();
      heap_.pop();
      // Successors: advance any position j (keeping indices strictly
      // increasing); dedupe via the visited set.
      for (std::size_t j = 0; j < m_; ++j) {
        std::int32_t limit =
            (j + 1 < m_) ? top.idx[j + 1]
                         : static_cast<std::int32_t>(pool_.size());
        if (top.idx[j] + 1 < limit) {
          std::vector<std::int32_t> succ = top.idx;
          Real sum = top.sum - keys_[static_cast<std::size_t>(succ[j])] +
                     keys_[static_cast<std::size_t>(succ[j] + 1)];
          ++succ[j];
          push(std::move(succ), sum);
        }
      }
      subset_out.clear();
      for (std::int32_t i : top.idx)
        subset_out.push_back(pool_[static_cast<std::size_t>(i)]);
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    Real sum;
    std::vector<std::int32_t> idx;
    bool operator>(const Entry& o) const { return sum > o.sum; }
  };

  void push(std::vector<std::int32_t> idx, Real sum) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::int32_t v : idx) {
      h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
      h *= 0x100000001b3ULL;
    }
    if (!visited_.insert(h).second) return;
    heap_.push(Entry{sum, std::move(idx)});
  }

  const std::vector<ProcessId>& pool_;
  const std::vector<Real>& keys_;
  std::size_t m_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<std::uint64_t> visited_;
};

std::vector<NodeCandidate> k_best_surrogate(
    const NodeEvaluator& eval, ProcessId lead,
    const std::vector<ProcessId>& pool, std::int32_t u, std::int32_t k,
    std::size_t overgen) {
  if (u == 1) return k_best_exact(eval, lead, pool, u, k);
  const DegradationModel& model = eval.model();

  // Pool sorted by pressure (the surrogate for inflicted+suffered load).
  std::vector<ProcessId> sorted_pool = pool;
  std::sort(sorted_pool.begin(), sorted_pool.end(),
            [&](ProcessId a, ProcessId b) {
              Real pa = model.pressure(a), pb = model.pressure(b);
              if (pa != pb) return pa < pb;
              return a < b;
            });
  std::vector<Real> keys;
  keys.reserve(sorted_pool.size());
  for (ProcessId p : sorted_pool) keys.push_back(model.pressure(p));

  SubsetHeap gen(sorted_pool, keys, static_cast<std::size_t>(u - 1));
  std::size_t want = static_cast<std::size_t>(k) * overgen;
  std::vector<NodeCandidate> cands;
  std::vector<ProcessId> subset;
  std::vector<Real> d_scratch;
  std::vector<ProcessId> node(static_cast<std::size_t>(u));
  while (cands.size() < want && gen.next(subset)) {
    node[0] = lead;
    std::sort(subset.begin(), subset.end());
    for (std::size_t j = 0; j < subset.size(); ++j) node[j + 1] = subset[j];
    NodeCandidate c;
    c.node = node;
    c.weight = eval.weight(node, d_scratch);
    c.member_d = d_scratch;
    cands.push_back(std::move(c));
  }
  std::int32_t take =
      std::min<std::int32_t>(k, static_cast<std::int32_t>(cands.size()));
  std::partial_sort(cands.begin(), cands.begin() + take, cands.end(),
                    [](const NodeCandidate& a, const NodeCandidate& b) {
                      if (a.weight != b.weight) return a.weight < b.weight;
                      return a.node < b.node;
                    });
  cands.resize(static_cast<std::size_t>(take));
  return cands;
}

}  // namespace

std::vector<NodeCandidate> k_best_valid_nodes(
    const NodeEvaluator& eval, ProcessId lead,
    const std::vector<ProcessId>& pool, std::int32_t u, std::int32_t k,
    CandidateSelection selection, std::size_t overgen) {
  COSCHED_EXPECTS(k >= 1);
  if (selection == CandidateSelection::Auto) {
    std::uint64_t level_size =
        binomial(pool.size(), static_cast<std::uint64_t>(u - 1));
    selection = level_size <= 50'000 ? CandidateSelection::ExactSort
                                     : CandidateSelection::SurrogateHeap;
  }
  if (selection == CandidateSelection::ExactSort)
    return k_best_exact(eval, lead, pool, u, k);
  return k_best_surrogate(eval, lead, pool, u, k, overgen);
}

}  // namespace cosched
