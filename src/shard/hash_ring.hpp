// Consistent-hash ring with virtual nodes — the deterministic admission
// router of the sharded deployment.
//
// Every shard owns `vnodes_per_shard` points on a 64-bit ring; a key is
// served by the shard owning the first point at or clockwise-after the
// key's hash. Virtual nodes smooth the arc lengths so K keys over N shards
// land near-uniformly (the classic consistent-hashing construction), and
// membership changes stay local: adding a shard steals only the keys whose
// arcs its new points split (~K/N in expectation) — every other key keeps
// its shard. That ≤K/N remap bound is what makes scale-out cheap: a fleet
// resize does not reshuffle the world.
//
// Everything is deterministic: points are derived from (shard id, vnode
// index) with SplitMix64 and keys hash with FNV-1a + a SplitMix64
// finalizer, so the same key maps to the same shard across processes,
// platforms and runs — the property the deterministic-replay tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cosched {

class HashRing {
 public:
  /// More virtual nodes = smoother key distribution, linearly slower
  /// membership changes (lookups stay O(log(N * vnodes))).
  explicit HashRing(std::int32_t vnodes_per_shard = 64);

  /// Adds `shard_id`'s virtual nodes. Adding a present shard is a no-op.
  void add_shard(std::int32_t shard_id);

  /// Owner of `key_hash`: the shard of the first ring point at or after it
  /// (wrapping). -1 when the ring is empty.
  std::int32_t shard_for(std::uint64_t key_hash) const;
  /// Convenience: shard_for(hash_key(key)).
  std::int32_t shard_for_key(const std::string& key) const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t point_count() const { return points_.size(); }
  /// Member shard ids, ascending.
  const std::vector<std::int32_t>& shards() const { return shards_; }

  /// Deterministic 64-bit key hash: FNV-1a over the bytes, finished with a
  /// SplitMix64 mix so short/sequential tenant names still spread over the
  /// whole ring.
  static std::uint64_t hash_key(const std::string& key);
  /// Ring point of (shard, vnode) — exposed for the distribution tests.
  static std::uint64_t ring_point(std::int32_t shard_id, std::int32_t vnode);

 private:
  struct Point {
    std::uint64_t position;
    std::int32_t shard;
    bool operator<(const Point& other) const {
      // Position ties (vanishingly rare) resolve to the smaller shard id,
      // independent of insertion order — determinism over history.
      return position != other.position ? position < other.position
                                        : shard < other.shard;
    }
  };

  std::int32_t vnodes_;
  std::vector<Point> points_;        ///< sorted by (position, shard)
  std::vector<std::int32_t> shards_; ///< sorted member ids
};

}  // namespace cosched
