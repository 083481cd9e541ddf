// Combinatorial helpers: binomials, combination enumeration/ranking.
//
// The co-scheduling graph has C(n,u) nodes; level i holds C(n-i-1, u-1) of
// them (all u-subsets whose smallest member is i). These helpers enumerate
// and rank such subsets without materializing the graph. Enumeration is a
// header template over the callback (no type-erased function wrapper): the
// search enumerates every node of a level per expansion, and an inlined
// callback keeps that loop free of indirect calls.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace cosched {

/// Binomial coefficient C(n, k) as a saturating 64-bit value.
/// Returns UINT64_MAX on overflow (callers treat that as "too many to count").
std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

namespace detail {

/// The one combination walker behind for_each_combination and
/// for_each_valid_node: writes each k-combination of `pool` (k = out.size())
/// into `out`, in lexicographic order of pool positions, and calls `visit()`
/// after each; stops when `visit()` returns false. Only the positions at and
/// after the advanced index are rewritten between calls.
template <class Visit>
void walk_combinations(const std::vector<std::int32_t>& pool,
                       std::span<std::int32_t> out, Visit&& visit) {
  const std::size_t n = pool.size();
  const std::size_t k = out.size();
  if (k > n) return;
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) {
    idx[i] = i;
    out[i] = pool[i];
  }
  while (visit()) {
    // Advance the rightmost index that is not at its last position.
    std::size_t i = k;
    while (i > 0 && idx[i - 1] == i - 1 + n - k) --i;
    if (i == 0) return;
    --i;
    ++idx[i];
    out[i] = pool[idx[i]];
    for (std::size_t j = i + 1; j < k; ++j) {
      idx[j] = idx[j - 1] + 1;
      out[j] = pool[idx[j]];
    }
  }
}

}  // namespace detail

/// Enumerates all k-combinations of the values in `pool` (pool need not be
/// contiguous), invoking `fn(const std::vector<std::int32_t>&)` with each
/// combination in lexicographic order of pool positions. `fn` returns false
/// to stop early. k == 0 yields the empty combination once.
///
/// The combination buffer handed to `fn` is reused between calls.
template <class Fn>
void for_each_combination(const std::vector<std::int32_t>& pool,
                          std::size_t k, Fn&& fn) {
  std::vector<std::int32_t> comb(k);
  detail::walk_combinations(pool, comb,
                            [&] { return fn(std::as_const(comb)); });
}

/// Lexicographic rank of a sorted k-subset of {0..n-1}. Inverse of
/// unrank_combination. Saturates like binomial().
std::uint64_t rank_combination(const std::vector<std::int32_t>& comb,
                               std::int32_t n);

/// The `rank`-th (0-based, lexicographic) k-subset of {0..n-1}.
std::vector<std::int32_t> unrank_combination(std::uint64_t rank,
                                             std::int32_t n, std::size_t k);

}  // namespace cosched
