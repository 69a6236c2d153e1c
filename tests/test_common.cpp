#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"

namespace mp5 {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BoundedSamplesInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedSamplingIsRoughlyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kSamples = 80000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Zipf, SkewSamplerMatchesConfiguredMass) {
  Rng perm(3);
  TwoClassSkewSampler sampler(100, perm, 0.95, 0.30);
  EXPECT_EQ(sampler.hot_keys(), 30u);
  Rng rng(4);
  std::map<std::uint64_t, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.sample(rng)];
  // Top-30 keys should hold about 95% of the samples.
  std::vector<int> sorted;
  for (const auto& [k, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  long hot = 0, total = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    if (i < 30) hot += sorted[i];
  }
  EXPECT_NEAR(static_cast<double>(hot) / total, 0.95, 0.02);
}

TEST(Zipf, ZipfFavorsSmallRanks) {
  ZipfSampler sampler(1000, 1.2);
  Rng rng(9);
  int first_decile = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (sampler.sample(rng) < 100) ++first_decile;
  }
  EXPECT_GT(first_decile, kSamples / 2);
}

TEST(Hashing, DeterministicAndSpread) {
  EXPECT_EQ(hash2(1, 2), hash2(1, 2));
  EXPECT_NE(hash2(1, 2), hash2(2, 1));
  EXPECT_GE(hash2(-5, -9), 0);
  std::set<Value> values;
  for (Value i = 0; i < 1000; ++i) values.insert(hash3(i, i + 1, i + 2) % 997);
  EXPECT_GT(values.size(), 600u);
}

TEST(Hashing, FloorModAlwaysNonNegative) {
  EXPECT_EQ(floor_mod(7, 4), 3);
  EXPECT_EQ(floor_mod(-7, 4), 1);
  EXPECT_EQ(floor_mod(-8, 4), 0);
  EXPECT_EQ(floor_mod(5, 0), 0);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 2.0);
}

TEST(Stats, HistogramNamedQuantiles) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(h.p50(), 50.0, 2.0);
  EXPECT_NEAR(h.p90(), 90.0, 2.0);
  EXPECT_NEAR(h.p99(), 99.0, 2.0);
}

TEST(Stats, EmptyHistogramQuantileIsNaN) {
  Histogram h(1.0, 10);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.p99()));
}

TEST(Stats, QuantileRejectsInvalidQ) {
  Histogram h(1.0, 10);
  h.add(1.0);
  EXPECT_THROW(h.quantile(-0.1), ConfigError);
  EXPECT_THROW(h.quantile(1.5), ConfigError);
  EXPECT_THROW(h.quantile(std::numeric_limits<double>::quiet_NaN()),
               ConfigError);
}

TEST(Stats, NanSamplesRejected) {
  RunningStats s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()), ConfigError);
  Histogram h(1.0, 10);
  EXPECT_THROW(h.add(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(RingFifo, PushPopOrder) {
  RingFifo<int> fifo(4);
  EXPECT_TRUE(fifo.empty());
  auto a = fifo.push(1);
  auto b = fifo.push(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(fifo.front(), 1);
  fifo.pop_front();
  EXPECT_EQ(fifo.front(), 2);
}

TEST(RingFifo, BoundedDropsWhenFull) {
  RingFifo<int> fifo(2);
  EXPECT_TRUE(fifo.push(1).has_value());
  EXPECT_TRUE(fifo.push(2).has_value());
  EXPECT_FALSE(fifo.push(3).has_value());
  fifo.pop_front();
  EXPECT_TRUE(fifo.push(3).has_value());
}

TEST(RingFifo, VirtualIndexStableAcrossPops) {
  RingFifo<int> fifo(4);
  const auto a = *fifo.push(10);
  const auto b = *fifo.push(20);
  fifo.pop_front();
  EXPECT_FALSE(fifo.contains(a));
  ASSERT_TRUE(fifo.contains(b));
  fifo.replace(b, 99);
  EXPECT_EQ(fifo.front(), 99);
  EXPECT_THROW(fifo.at(a), Error);
}

TEST(RingFifo, UnboundedGrowsPreservingOrderAndAddresses) {
  RingFifo<int> fifo(0);
  std::vector<std::uint64_t> vidx;
  for (int i = 0; i < 100; ++i) vidx.push_back(*fifo.push(i));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fifo.at(vidx[i]), i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fifo.front(), i);
    fifo.pop_front();
  }
  EXPECT_EQ(fifo.high_water_mark(), 100u);
}

TEST(RingFifo, WrapAroundReusesSlots) {
  RingFifo<int> fifo(3);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(fifo.push(round).has_value());
    EXPECT_EQ(fifo.front(), round);
    fifo.pop_front();
  }
}

TEST(RingFifo, NonPowerOfTwoCapacityDropsAtExactlyCap) {
  // The physical buffer is rounded up to a power of two; the requested
  // capacity still decides when a push drops.
  for (const std::size_t cap : {3u, 5u, 6u, 7u}) {
    SCOPED_TRACE(cap);
    RingFifo<int> fifo(cap);
    EXPECT_EQ(fifo.capacity(), cap);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_TRUE(fifo.push(static_cast<int>(i)).has_value());
      }
      EXPECT_TRUE(fifo.full());
      EXPECT_FALSE(fifo.push(-1).has_value());
      EXPECT_EQ(fifo.size(), cap);
      // Empty it: the next round starts cap slots further on, at another
      // physical offset of the power-of-two buffer.
      while (!fifo.empty()) fifo.pop_front();
    }
    EXPECT_EQ(fifo.high_water_mark(), cap);
  }
  RingFifo<int> unbounded(0);
  EXPECT_EQ(unbounded.capacity(), 0u);
  EXPECT_FALSE(unbounded.full());
}

TEST(RingFifo, AddressesStableAcrossWrapAndGrowthAfterRestoreBase) {
  // A restored ring resumes at an arbitrary, unaligned virtual index; the
  // masks must keep every queued address valid through wrap and growth.
  const std::uint64_t base = (std::uint64_t{1} << 40) + 3;
  for (const std::size_t cap : {0u, 5u}) {
    SCOPED_TRACE(cap);
    RingFifo<int> fifo(cap);
    fifo.restore_base(base, 0);
    EXPECT_EQ(fifo.base_vidx(), base);
    std::vector<std::uint64_t> vidx;
    int next = 0;
    int popped = 0;
    for (int step = 0; step < 200; ++step) {
      // Fill faster than draining so the unbounded ring grows twice over.
      for (int i = 0; i < 2; ++i) {
        const auto v = fifo.push(next);
        if (!v) break;
        EXPECT_EQ(*v, base + static_cast<std::uint64_t>(next));
        vidx.push_back(*v);
        ++next;
      }
      if (step % 3 == 0 || cap != 0) {
        EXPECT_EQ(fifo.front(), popped);
        fifo.pop_front();
        ++popped;
      }
      for (int i = popped; i < next; ++i) {
        ASSERT_TRUE(fifo.contains(vidx[i]));
        ASSERT_EQ(fifo.at(vidx[i]), i);
        ASSERT_EQ(*fifo.find(vidx[i]), i);
      }
    }
    if (cap == 0) {
      EXPECT_GT(fifo.high_water_mark(), 64u);
    }
  }
}

TEST(RingFifo, PoppedVirtualIndexesAreNotContained) {
  RingFifo<int> fifo(3);
  std::vector<std::uint64_t> popped;
  for (int i = 0; i < 10; ++i) {
    const auto v = fifo.push(i);
    ASSERT_TRUE(v.has_value());
    popped.push_back(*v);
    fifo.pop_front();
    // The physical slot is reused by the next push, but the popped
    // virtual index never becomes valid again.
    for (const std::uint64_t old : popped) {
      EXPECT_FALSE(fifo.contains(old));
      EXPECT_EQ(fifo.find(old), nullptr);
    }
  }
  EXPECT_FALSE(fifo.contains(popped.back() + 1)); // never pushed
}

TEST(TextTable, FormatsAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 2)});
  t.add_row({"b", TextTable::pct(0.5)});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

} // namespace
} // namespace mp5
