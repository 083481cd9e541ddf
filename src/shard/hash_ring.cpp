#include "shard/hash_ring.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace cosched {

HashRing::HashRing(std::int32_t vnodes_per_shard)
    : vnodes_(vnodes_per_shard > 0 ? vnodes_per_shard : 1) {}

void HashRing::add_shard(std::int32_t shard_id) {
  auto member = std::lower_bound(shards_.begin(), shards_.end(), shard_id);
  if (member != shards_.end() && *member == shard_id) return;
  shards_.insert(member, shard_id);
  points_.reserve(points_.size() + static_cast<std::size_t>(vnodes_));
  for (std::int32_t vnode = 0; vnode < vnodes_; ++vnode) {
    Point point{ring_point(shard_id, vnode), shard_id};
    points_.insert(std::lower_bound(points_.begin(), points_.end(), point),
                   point);
  }
}

std::int32_t HashRing::shard_for(std::uint64_t key_hash) const {
  if (points_.empty()) return -1;
  // First point at or after the hash; wrap to the smallest point when the
  // hash lands past the last one.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key_hash,
      [](const Point& point, std::uint64_t hash) {
        return point.position < hash;
      });
  if (it == points_.end()) it = points_.begin();
  return it->shard;
}

std::int32_t HashRing::shard_for_key(const std::string& key) const {
  return shard_for(hash_key(key));
}

std::uint64_t HashRing::hash_key(const std::string& key) {
  // FNV-1a 64-bit over the bytes...
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : key) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 0x100000001B3ULL;
  }
  // ...then one SplitMix64 round: FNV alone keeps short ASCII keys in a
  // narrow band of the ring, which would starve shards.
  return SplitMix64(h).next();
}

std::uint64_t HashRing::ring_point(std::int32_t shard_id, std::int32_t vnode) {
  // Mix the pair through two SplitMix64 rounds; a single round of
  // (shard << 32 | vnode) leaves adjacent shards' points correlated.
  SplitMix64 mixer((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        shard_id)) << 32) ^
                   static_cast<std::uint32_t>(vnode));
  std::uint64_t first = mixer.next();
  return SplitMix64(first).next();
}

}  // namespace cosched
