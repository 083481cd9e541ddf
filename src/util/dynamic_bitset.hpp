// A compact dynamically-sized bitset used to represent process sets.
//
// The OA* search (see DESIGN.md, "OA* state") builds each successor's
// process set in a reused DynamicBitset, hashes it to probe its dismissal
// table and, if the successor is kept, appends the words() to its set arena.
// It must hash fast and iterate clear bits fast.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace cosched {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all cleared.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t pos) const {
    COSCHED_EXPECTS(pos < size_);
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  void set(std::size_t pos) {
    COSCHED_EXPECTS(pos < size_);
    words_[pos >> 6] |= (1ULL << (pos & 63));
  }

  void reset(std::size_t pos) {
    COSCHED_EXPECTS(pos < size_);
    words_[pos >> 6] &= ~(1ULL << (pos & 63));
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Index of the lowest clear bit, or size() if all bits are set.
  /// This is the "valid level" lookup in the co-scheduling graph: the next
  /// level to expand is the smallest unscheduled process id.
  std::size_t find_first_clear() const;

  /// Index of the lowest clear bit >= from, or size() if none.
  std::size_t find_next_clear(std::size_t from) const;

  /// Appends the indices of all set bits to `out`.
  void collect_set(std::vector<std::int32_t>& out) const;

  /// Appends the indices of all clear bits to `out`.
  void collect_clear(std::vector<std::int32_t>& out) const;

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// 64-bit hash of the contents (FNV-1a over words, size-mixed, with a
  /// final avalanche so that every bit reaches the low bits).
  std::uint64_t hash() const;

  /// The backing words, bit i in word i / 64; bits past size() are clear.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Overwrites the contents with `words`, which holds words().size()
  /// words with every bit past size() clear.
  void assign_words(std::span<const std::uint64_t> words) {
    COSCHED_EXPECTS(words.size() == words_.size());
    std::copy(words.begin(), words.end(), words_.begin());
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cosched
