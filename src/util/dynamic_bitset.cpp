#include "util/dynamic_bitset.hpp"

namespace cosched {

std::size_t DynamicBitset::find_first_clear() const {
  return find_next_clear(0);
}

std::size_t DynamicBitset::find_next_clear(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t wi = from >> 6;
  std::uint64_t w = ~words_[wi] & (~0ULL << (from & 63));
  while (true) {
    if (w) {
      std::size_t pos = (wi << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(w));
      return pos < size_ ? pos : size_;
    }
    if (++wi >= words_.size()) return size_;
    w = ~words_[wi];
  }
}

void DynamicBitset::collect_set(std::vector<std::int32_t>& out) const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w) {
      int bit = __builtin_ctzll(w);
      out.push_back(static_cast<std::int32_t>((wi << 6) + bit));
      w &= w - 1;
    }
  }
}

void DynamicBitset::collect_clear(std::vector<std::int32_t>& out) const {
  for (std::size_t i = find_next_clear(0); i < size_;
       i = find_next_clear(i + 1)) {
    out.push_back(static_cast<std::int32_t>(i));
  }
}

std::uint64_t DynamicBitset::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (size_ * 0x100000001b3ULL);
  for (auto w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace cosched
