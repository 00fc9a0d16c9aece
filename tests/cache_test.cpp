#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace microtools::sim {
namespace {

TEST(Cache, MissThenHit) {
  CacheLevel cache(1024, 2, 64);
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(CacheLevel(1000, 2, 64), McError);   // not a multiple
  EXPECT_THROW(CacheLevel(1024, 0, 64), McError);   // zero ways
  EXPECT_THROW(CacheLevel(1024, 2, 60), McError);   // line not pow2
  CacheLevel ok(12 * 1024 * 1024, 16, 64);          // non-pow2 sets allowed
  EXPECT_EQ(ok.sets(), 12288u);
}

TEST(Cache, ContainsDoesNotTouchLru) {
  // 2-way, single set: A, B fill the set; touching A via contains() must
  // NOT refresh it, so inserting C still evicts A (the LRU victim).
  CacheLevel cache(128, 2, 64);
  ASSERT_EQ(cache.sets(), 1u);
  cache.insert(10);
  cache.insert(20);
  EXPECT_TRUE(cache.contains(10));
  std::uint64_t evicted = cache.insert(30);
  EXPECT_EQ(evicted, 10u);
}

TEST(Cache, LookupRefreshesLru) {
  CacheLevel cache(128, 2, 64);
  cache.insert(10);
  cache.insert(20);
  EXPECT_TRUE(cache.lookup(10));  // refresh 10; 20 becomes LRU
  std::uint64_t evicted = cache.insert(30);
  EXPECT_EQ(evicted, 20u);
  EXPECT_TRUE(cache.contains(10));
  EXPECT_FALSE(cache.contains(20));
}

TEST(Cache, InsertExistingRefreshesWithoutEviction) {
  CacheLevel cache(128, 2, 64);
  cache.insert(10);
  cache.insert(20);
  EXPECT_EQ(cache.insert(10), CacheLevel::kNoEviction);  // refresh
  EXPECT_EQ(cache.insert(30), 20u);
}

TEST(Cache, SetIndexingSeparatesSets) {
  // 2 sets, 1 way: even lines -> set 0, odd lines -> set 1.
  CacheLevel cache(128, 1, 64);
  ASSERT_EQ(cache.sets(), 2u);
  cache.insert(2);
  cache.insert(3);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  cache.insert(4);  // evicts 2 (same set), not 3
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Cache, Invalidate) {
  CacheLevel cache(1024, 2, 64);
  cache.insert(5);
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_FALSE(cache.contains(5));
  EXPECT_FALSE(cache.invalidate(5));
}

TEST(Cache, ClearResetsEverything) {
  CacheLevel cache(1024, 2, 64);
  cache.insert(1);
  cache.lookup(1);
  cache.lookup(2);
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, EvictionReportsCorrectLineAddress) {
  CacheLevel cache(4096, 4, 64);  // 16 sets
  std::uint64_t sets = cache.sets();
  // Fill one set with 4 lines, then overflow it.
  for (std::uint64_t i = 0; i < 4; ++i) cache.insert(3 + i * sets);
  std::uint64_t evicted = cache.insert(3 + 4 * sets);
  EXPECT_EQ(evicted, 3u);  // the first inserted (LRU) line, full address
}

TEST(Cache, WorkingSetSmallerThanCacheNeverEvicts) {
  CacheLevel cache(32 * 1024, 8, 64);  // 512 lines
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      if (!cache.lookup(line)) cache.insert(line);
    }
  }
  // First pass misses everything, later passes hit everything.
  EXPECT_EQ(cache.misses(), 512u);
  EXPECT_EQ(cache.hits(), 2u * 512u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashesWithLru) {
  // Classic LRU pathology: cyclic access to W+1 lines in a W-line set
  // misses every time.
  CacheLevel cache(256, 4, 64);  // one set of 4 ways
  ASSERT_EQ(cache.sets(), 1u);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t line = 0; line < 5; ++line) {
      if (!cache.lookup(line)) cache.insert(line);
    }
  }
  EXPECT_EQ(cache.hits(), 0u);
}

// Property sweep over several geometries: inserted lines are found until
// capacity forces eviction, and the eviction count is exact.
struct Geometry {
  std::uint64_t size;
  int ways;
};

// gtest_discover_tests names each case after the printed parameter; without
// this printer it would dump the raw bytes, padding included, which differ
// from run to run.
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << "{size=" << g.size << ", ways=" << g.ways << "}";
}

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, CapacityIsExact) {
  const auto [size, ways] = GetParam();
  CacheLevel cache(size, ways, 64);
  std::uint64_t capacity = size / 64;
  int evictions = 0;
  // Insert exactly `capacity` distinct lines spread uniformly over sets:
  // line numbers 0..capacity-1 map round-robin to sets, filling all ways.
  for (std::uint64_t line = 0; line < capacity; ++line) {
    if (cache.insert(line) != CacheLevel::kNoEviction) ++evictions;
  }
  EXPECT_EQ(evictions, 0);
  for (std::uint64_t line = 0; line < capacity; ++line) {
    EXPECT_TRUE(cache.contains(line)) << line;
  }
  // One more line per set now evicts.
  EXPECT_NE(cache.insert(capacity), CacheLevel::kNoEviction);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{4096, 4}, Geometry{32 * 1024, 8},
                      Geometry{256 * 1024, 8}, Geometry{192 * 1024, 12}));

TEST(Cache, RandomizedLruMatchesReferenceModel) {
  // Cross-check against a simple reference LRU implementation.
  CacheLevel cache(512, 4, 64);  // 2 sets x 4 ways
  std::uint64_t sets = cache.sets();
  std::vector<std::vector<std::uint64_t>> reference(sets);
  Rng rng(123);
  for (int step = 0; step < 5000; ++step) {
    std::uint64_t line = rng.nextBelow(32);
    std::uint64_t set = line % sets;
    auto& list = reference[set];  // front = MRU
    auto it = std::find(list.begin(), list.end(), line);
    bool refHit = it != list.end();
    bool simHit = cache.lookup(line);
    ASSERT_EQ(simHit, refHit) << "step " << step << " line " << line;
    if (refHit) {
      list.erase(it);
    } else {
      cache.insert(line);
      if (list.size() == 4) list.pop_back();
    }
    list.insert(list.begin(), line);
  }
}

TEST(Cache, DigestSeesRecencyOrderNotClock) {
  CacheLevel a(128, 2, 64);
  CacheLevel b(128, 2, 64);
  CacheLevel c(128, 2, 64);
  EXPECT_EQ(a.digest(), 0u);  // empty sets hash as absent
  a.insert(10);
  a.insert(20);
  b.lookup(99);  // a miss: moves b's clock, not its state
  b.insert(10);
  b.insert(20);
  c.insert(20);
  c.insert(10);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  c.lookup(20);  // now 10 is older than 20, as in a
  EXPECT_EQ(a.digest(), c.digest());
}

TEST(Cache, IncrementalDigestMatchesFullRecomputation) {
  // Random hits, misses, inserts, invalidates and clears; at random points
  // the incremental digest must equal hashState(), which rehashes every
  // set from scratch.
  CacheLevel cache(4096, 4, 64);  // 16 sets x 4 ways
  Rng rng(20120910);
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t line = rng.nextBelow(160);
    switch (rng.nextBelow(8)) {
      case 0:
      case 1:
      case 2:
        if (!cache.lookup(line)) cache.insert(line);
        break;
      case 3:
      case 4:
        cache.insert(line);
        break;
      case 5:
        cache.invalidate(line);
        break;
      case 6:
        cache.contains(line);
        break;
      default:
        if (rng.nextBelow(100) == 0) cache.clear();
        break;
    }
    if (rng.nextBelow(10) == 0) {
      ASSERT_EQ(cache.digest(), cache.hashState()) << "step " << step;
    }
  }
}

TEST(Cache, RestoredSetsBehaveLikeTheRecordedOnes) {
  // `copy` stays at the digest point while `cache` moves on; writing the
  // changed sets back into `copy` must make the two indistinguishable: the
  // same digest and the same hits and victims from then on.
  CacheLevel cache(2048, 4, 64);  // 8 sets
  Rng rng(5);
  for (int i = 0; i < 200; ++i) cache.insert(rng.nextBelow(64));
  cache.digest();
  CacheLevel copy = cache;
  for (int i = 0; i < 300; ++i) {
    std::uint64_t line = rng.nextBelow(64);
    if (!cache.lookup(line)) cache.insert(line);
    if (i % 7 == 0) cache.invalidate(rng.nextBelow(64));
  }
  std::vector<std::uint64_t> image;
  cache.saveChanged(image);
  copy.restore(image);
  EXPECT_EQ(copy.digest(), cache.digest());
  EXPECT_EQ(copy.hashState(), cache.hashState());
  for (int i = 0; i < 500; ++i) {
    std::uint64_t line = rng.nextBelow(64);
    bool hit = cache.lookup(line);
    ASSERT_EQ(copy.lookup(line), hit) << i;
    if (!hit) {
      ASSERT_EQ(copy.insert(line), cache.insert(line)) << i;
    }
  }
}

}  // namespace
}  // namespace microtools::sim
