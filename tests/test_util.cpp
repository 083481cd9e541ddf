// Unit tests for src/util: dynamic bitset, combinatorics, RNG, stats, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/combinatorics.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cosched {
namespace {

// ------------------------------------------------------------ DynamicBitset

TEST(DynamicBitset, StartsCleared) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.find_first_clear(), 0u);
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, FindFirstClearSkipsSetPrefix) {
  DynamicBitset b(70);
  for (std::size_t i = 0; i < 66; ++i) b.set(i);
  EXPECT_EQ(b.find_first_clear(), 66u);
  b.set(66);
  b.set(67);
  b.set(68);
  b.set(69);
  EXPECT_EQ(b.find_first_clear(), 70u);  // all set -> size()
}

TEST(DynamicBitset, CollectSetAndClear) {
  DynamicBitset b(10);
  b.set(2);
  b.set(7);
  std::vector<std::int32_t> set_bits, clear_bits;
  b.collect_set(set_bits);
  b.collect_clear(clear_bits);
  EXPECT_EQ(set_bits, (std::vector<std::int32_t>{2, 7}));
  EXPECT_EQ(clear_bits, (std::vector<std::int32_t>{0, 1, 3, 4, 5, 6, 8, 9}));
}

TEST(DynamicBitset, HashDiffersForDifferentSets) {
  DynamicBitset a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  DynamicBitset a2(64);
  a2.set(1);
  EXPECT_EQ(a.hash(), a2.hash());
  EXPECT_EQ(a, a2);
}

TEST(DynamicBitset, OutOfRangeThrows) {
  DynamicBitset b(8);
  EXPECT_THROW(b.set(8), ContractViolation);
  EXPECT_THROW(b.test(100), ContractViolation);
}

// ------------------------------------------------------------ combinatorics

TEST(Combinatorics, BinomialSmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(6, 2), 15u);
  EXPECT_EQ(binomial(10, 5), 252u);
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(56, 4), 367290u);
}

TEST(Combinatorics, BinomialSaturatesOnOverflow) {
  EXPECT_EQ(binomial(1000, 500), std::numeric_limits<std::uint64_t>::max());
}

TEST(Combinatorics, EnumerationCountsMatchBinomial) {
  std::vector<std::int32_t> pool{3, 5, 8, 9, 12, 15};
  std::size_t count = 0;
  std::set<std::vector<std::int32_t>> seen;
  for_each_combination(pool, 3, [&](const std::vector<std::int32_t>& c) {
    ++count;
    EXPECT_TRUE(seen.insert(c).second) << "duplicate combination";
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    return true;
  });
  EXPECT_EQ(count, binomial(6, 3));
}

TEST(Combinatorics, EnumerationEarlyStop) {
  std::vector<std::int32_t> pool{0, 1, 2, 3, 4};
  std::size_t count = 0;
  for_each_combination(pool, 2, [&](const std::vector<std::int32_t>&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(Combinatorics, ZeroSizedCombination) {
  std::vector<std::int32_t> pool{1, 2};
  std::size_t count = 0;
  for_each_combination(pool, 0, [&](const std::vector<std::int32_t>& c) {
    EXPECT_TRUE(c.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(Combinatorics, RankUnrankRoundTrip) {
  const std::int32_t n = 9;
  const std::size_t k = 4;
  for (std::uint64_t r = 0; r < binomial(9, 4); ++r) {
    auto comb = unrank_combination(r, n, k);
    EXPECT_EQ(rank_combination(comb, n), r);
  }
}

TEST(Combinatorics, UnrankIsLexicographic) {
  auto first = unrank_combination(0, 6, 2);
  EXPECT_EQ(first, (std::vector<std::int32_t>{0, 1}));
  auto last = unrank_combination(binomial(6, 2) - 1, 6, 2);
  EXPECT_EQ(last, (std::vector<std::int32_t>{4, 5}));
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.uniform(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 10000; ++i) {
    Real x = rng.uniform_real(0.15, 0.75);
    EXPECT_GE(x, 0.15);
    EXPECT_LT(x, 0.75);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++buckets[rng.uniform(10)];
  for (int b : buckets) {
    EXPECT_GT(b, samples / 10 - samples / 50);
    EXPECT_LT(b, samples / 10 + samples / 50);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(11);
  std::vector<Real> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mean(xs), 2.0, 0.1);
  EXPECT_NEAR(stddev(xs), 3.0, 0.1);
}

// -------------------------------------------------------------------- stats

TEST(Stats, MeanAndStddev) {
  std::vector<Real> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<Real> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Stats, EmpiricalCdfAtThresholds) {
  std::vector<Real> samples{1, 2, 2, 3, 10};
  auto cdf = empirical_cdf(samples, {0.0, 2.0, 9.0, 10.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.0);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.6);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 0.8);
  EXPECT_DOUBLE_EQ(cdf[3].fraction, 1.0);
}

// -------------------------------------------------------------------- table

TEST(TextTable, RendersAlignedAndCsv) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::fmt(1.5, 2)});
  t.add_row({"b", "x,y"});
  std::string text = t.render();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

}  // namespace
}  // namespace cosched
