// Tests for the consistent-hash ring (src/shard/hash_ring): deterministic
// placement, near-uniform key distribution over virtual nodes, and the
// consistent-hashing contract — adding a shard moves only the keys it must
// (≤ K/N expected remap).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "shard/hash_ring.hpp"

namespace cosched {
namespace {

std::vector<std::string> tenant_keys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    keys.push_back("tenant-" + std::to_string(i));
  return keys;
}

TEST(HashRing, EmptyRingAnswersNoShard) {
  HashRing ring;
  EXPECT_EQ(ring.shard_for(42), -1);
  EXPECT_EQ(ring.shard_for_key("anything"), -1);
  EXPECT_EQ(ring.shard_count(), 0u);
}

TEST(HashRing, PlacementIsDeterministic) {
  // Two rings built independently (different insertion order) agree on
  // every key: placement is a pure function of membership, not history.
  HashRing a(64);
  for (int s = 0; s < 4; ++s) a.add_shard(s);
  HashRing b(64);
  for (int s = 3; s >= 0; --s) b.add_shard(s);
  for (const std::string& key : tenant_keys(500))
    EXPECT_EQ(a.shard_for_key(key), b.shard_for_key(key)) << key;
  // And a fixed key pins to a fixed shard across runs/platforms (the wire
  // hash is platform-independent by construction).
  EXPECT_EQ(a.shard_for_key("tenant-0"), a.shard_for_key("tenant-0"));
}

TEST(HashRing, DuplicateAddIsANoOp) {
  HashRing ring(16);
  ring.add_shard(0);
  ring.add_shard(1);
  std::size_t points = ring.point_count();
  ring.add_shard(1);
  EXPECT_EQ(ring.point_count(), points);
  EXPECT_EQ(ring.shard_count(), 2u);
}

TEST(HashRing, DistributionIsNearUniformOverVirtualNodes) {
  const int kShards = 4;
  const int kKeys = 4000;
  HashRing ring(128);
  for (int s = 0; s < kShards; ++s) ring.add_shard(s);

  std::map<std::int32_t, int> counts;
  for (const std::string& key : tenant_keys(kKeys))
    ++counts[ring.shard_for_key(key)];

  ASSERT_EQ(counts.size(), static_cast<std::size_t>(kShards));
  // With 128 vnodes/shard the arc-length variance is small; accept any
  // shard within ±40% of the fair share (1000). Far looser than observed
  // (~±10%), far tighter than what a broken ring (one shard owning
  // everything) could pass.
  const int fair = kKeys / kShards;
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, fair * 6 / 10) << "shard " << shard << " starved";
    EXPECT_LT(count, fair * 14 / 10) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, AddingAShardMovesOnlyKeysToTheNewShard) {
  const int kKeys = 3000;
  HashRing before(64);
  for (int s = 0; s < 4; ++s) before.add_shard(s);
  HashRing after(64);
  for (int s = 0; s < 5; ++s) after.add_shard(s);

  int moved = 0;
  for (const std::string& key : tenant_keys(kKeys)) {
    std::int32_t old_shard = before.shard_for_key(key);
    std::int32_t new_shard = after.shard_for_key(key);
    if (old_shard != new_shard) {
      // Consistent hashing's defining property: a key either stays put or
      // moves to the shard that just joined — never between old shards.
      EXPECT_EQ(new_shard, 4) << key;
      ++moved;
    }
  }
  // Expected remap is K/N = 3000/5 = 600. Allow 2x slack; a modulo-style
  // "hash % N" router would remap ~4/5 of all keys (~2400) and fail.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2 * kKeys / 5);
}

}  // namespace
}  // namespace cosched
