#include "util/combinatorics.hpp"

#include <limits>

namespace cosched {

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    std::uint64_t num = n - k + i;
    // result = result * num / i, with overflow detection. Compute via gcd-free
    // check: exact division always holds after multiplication because
    // result is C(n-k+i-1, i-1) * ... pattern; do it in 128 bits.
    __uint128_t wide = static_cast<__uint128_t>(result) * num;
    wide /= i;
    if (wide > std::numeric_limits<std::uint64_t>::max())
      return std::numeric_limits<std::uint64_t>::max();
    result = static_cast<std::uint64_t>(wide);
  }
  return result;
}

std::uint64_t rank_combination(const std::vector<std::int32_t>& comb,
                               std::int32_t n) {
  const std::size_t k = comb.size();
  std::uint64_t rank = 0;
  std::int32_t prev = -1;
  for (std::size_t i = 0; i < k; ++i) {
    COSCHED_EXPECTS(comb[i] > prev && comb[i] < n);
    // Count combinations that start with a smaller element at position i.
    for (std::int32_t v = prev + 1; v < comb[i]; ++v) {
      std::uint64_t c = binomial(static_cast<std::uint64_t>(n - v - 1),
                                 static_cast<std::uint64_t>(k - i - 1));
      if (rank > std::numeric_limits<std::uint64_t>::max() - c)
        return std::numeric_limits<std::uint64_t>::max();
      rank += c;
    }
    prev = comb[i];
  }
  return rank;
}

std::vector<std::int32_t> unrank_combination(std::uint64_t rank,
                                             std::int32_t n, std::size_t k) {
  std::vector<std::int32_t> comb;
  comb.reserve(k);
  std::int32_t v = 0;
  for (std::size_t i = 0; i < k; ++i) {
    while (true) {
      COSCHED_EXPECTS(v < n);
      std::uint64_t c = binomial(static_cast<std::uint64_t>(n - v - 1),
                                 static_cast<std::uint64_t>(k - i - 1));
      if (rank < c) {
        comb.push_back(v);
        ++v;
        break;
      }
      rank -= c;
      ++v;
    }
  }
  return comb;
}

}  // namespace cosched
