// Read side of the retired degradation-oracle cache.
//
// Replans used to memoize every degradation query in a striped, shared map
// keyed by stable process ids. The only model the online scheduler builds
// is the closed-form SyntheticDegradationModel, whose degradation() costs a
// few nanoseconds — far less than a locked map probe — so replans now
// evaluate it directly and nothing produces cache entries any more.
//
// What remains is the counter block: DegradationCache::Stats travels in the
// GetMetrics reply (its wire layout is unchanged), the router sums it over
// shards, /metrics exposes it as the cosched_cache_* families, and the
// benchmark reads OnlineScheduler::oracle_cache().stats(). Every counter
// reads zero. The block stays only for the wire and the benchmark; retiring
// it is a change to the benchmark, not to the scheduler.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace cosched {

/// Counter view of the (retired) degradation-oracle cache. Always zero.
class DegradationCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t evictions = 0;
    std::uint64_t compactions = 0;
    Real hit_rate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<Real>(hits) /
                                    static_cast<Real>(total);
    }
  };
  Stats stats() const { return {}; }
};

}  // namespace cosched
