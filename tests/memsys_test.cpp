#include <gtest/gtest.h>

#include "sim/memsys.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace microtools::sim {
namespace {

MachineConfig testConfig() {
  MachineConfig m = nehalemX5650DualSocket();
  return m;
}

TEST(MemSys, ColdLoadComesFromRam) {
  MemorySystem ms(testConfig());
  EXPECT_EQ(ms.peekLevel(0, 0x1000), MemLevel::Ram);
  AccessResult r = ms.load(0, 0x1000, 8, 0);
  EXPECT_EQ(r.level, MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 1u);
}

TEST(MemSys, RepeatLoadHitsL1) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x1000, 8, 0);
  AccessResult r = ms.load(0, 0x1000, 8, 100000);
  EXPECT_EQ(r.level, MemLevel::L1);
  EXPECT_EQ(r.completeCycle, 100000u + testConfig().l1.latencyCycles);
}

TEST(MemSys, LatencyOrderedByLevel) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;  // isolate demand latencies
  MemorySystem ms(cfg);
  std::uint64_t t = 1000000;
  AccessResult ram = ms.load(0, 0x40000, 8, t);
  // Evict from L1 only: touch enough conflicting lines... simpler: compare
  // fresh addresses per level by pre-inserting.
  ms.touch(0, 0x80000, 64);
  AccessResult l1 = ms.load(0, 0x80000, 8, t);
  EXPECT_LT(l1.completeCycle - t, ram.completeCycle - t);
}

TEST(MemSys, PeekLevelDoesNotMutate) {
  MemorySystem ms(testConfig());
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::Ram);
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 0u);
  ms.load(0, 0x9000, 8, 0);
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::L1);
}

TEST(MemSys, TouchWarmsHierarchy) {
  MemorySystem ms(testConfig());
  ms.touch(0, 0x2000, 256);
  EXPECT_EQ(ms.peekLevel(0, 0x2000), MemLevel::L1);
  EXPECT_EQ(ms.peekLevel(0, 0x2000 + 255), MemLevel::L1);
}

TEST(MemSys, PrivateCachesAreSeparatePerCore) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x3000, 8, 0);
  // Same socket, different core: L1/L2 miss but the shared L3 hits.
  EXPECT_EQ(ms.peekLevel(1, 0x3000), MemLevel::L3);
  // Other socket: its own L3 misses entirely.
  int remoteCore = testConfig().coresPerSocket;  // first core of socket 1
  EXPECT_EQ(ms.peekLevel(remoteCore, 0x3000), MemLevel::Ram);
}

TEST(MemSys, SplitLineAccessPenalized) {
  MemorySystem ms(testConfig());
  ms.touch(0, 0x4000, 256);
  std::uint64_t t = 10000;
  AccessResult aligned = ms.load(0, 0x4000, 16, t);
  AccessResult split = ms.load(0, 0x4000 + 56, 16, t);  // crosses a line
  EXPECT_FALSE(aligned.splitLine);
  EXPECT_TRUE(split.splitLine);
  EXPECT_GT(split.completeCycle, aligned.completeCycle);
}

TEST(MemSys, SequentialStreamTrainsPrefetcher) {
  MachineConfig cfg = testConfig();
  MemorySystem ms(cfg);
  std::uint64_t cycle = 0;
  for (int i = 0; i < 64; ++i) {
    ms.load(0, 0x100000 + static_cast<std::uint64_t>(i) * 64, 16, cycle);
    cycle += 20;
  }
  EXPECT_GT(ms.prefetchCount(), 0u);
}

TEST(MemSys, PrefetchedStreamIsFasterThanRandom) {
  MachineConfig cfg = testConfig();
  // Sequential pass.
  MemorySystem seq(cfg);
  std::uint64_t seqTotal = 0;
  std::uint64_t cycle = 1000;
  for (int i = 0; i < 256; ++i) {
    AccessResult r =
        seq.load(0, 0x100000 + static_cast<std::uint64_t>(i) * 64, 16, cycle);
    seqTotal += r.completeCycle - cycle;
    cycle = r.completeCycle;
  }
  // Strided pass touching the same number of distinct lines, too far apart
  // for the next-line streamer.
  MemorySystem rnd(cfg);
  std::uint64_t rndTotal = 0;
  cycle = 1000;
  for (int i = 0; i < 256; ++i) {
    AccessResult r = rnd.load(
        0, 0x100000 + static_cast<std::uint64_t>(i) * 64 * 37, 16, cycle);
    rndTotal += r.completeCycle - cycle;
    cycle = r.completeCycle;
  }
  EXPECT_LT(seqTotal, rndTotal);
}

TEST(MemSys, ChannelBandwidthQueuesUnderLoad) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;
  MemorySystem ms(cfg);
  // Many simultaneous misses at the same cycle must queue on the three
  // channels: completion times must strictly increase beyond the first
  // channelCount requests.
  std::vector<std::uint64_t> completions;
  for (int i = 0; i < 12; ++i) {
    AccessResult r = ms.load(0, 0x200000 + static_cast<std::uint64_t>(i) * 4096,
                             8, 500);
    completions.push_back(r.completeCycle);
  }
  std::uint64_t firstBatchMax =
      *std::max_element(completions.begin(), completions.begin() + 3);
  std::uint64_t lastBatchMin =
      *std::min_element(completions.end() - 3, completions.end());
  EXPECT_GT(lastBatchMin, firstBatchMax);
}

TEST(MemSys, NumaRemoteAccessSlower) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;
  MemorySystem ms(cfg);
  ms.setHomeSocket(0x10000000, 0x1000000, 0);
  ms.setHomeSocket(0x20000000, 0x1000000, 1);
  std::uint64_t t = 100;
  AccessResult local = ms.load(0, 0x10000000, 8, t);   // core 0, socket 0
  AccessResult remote = ms.load(0, 0x20000000, 8, t);  // core 0 -> socket 1
  EXPECT_GT(remote.completeCycle, local.completeCycle);
}

TEST(MemSys, HomeSocketValidation) {
  MemorySystem ms(testConfig());
  EXPECT_THROW(ms.setHomeSocket(0, 100, 7), McError);
  EXPECT_THROW(ms.setHomeSocket(0, 100, -1), McError);
}

TEST(MemSys, CoreIdValidation) {
  MemorySystem ms(testConfig());
  EXPECT_THROW(ms.load(99, 0, 8, 0), McError);
  EXPECT_THROW(ms.load(-1, 0, 8, 0), McError);
  EXPECT_THROW(ms.socketOfCore(99), McError);
}

TEST(MemSys, SocketMapping) {
  MemorySystem ms(testConfig());  // 2 sockets x 6 cores
  EXPECT_EQ(ms.socketOfCore(0), 0);
  EXPECT_EQ(ms.socketOfCore(5), 0);
  EXPECT_EQ(ms.socketOfCore(6), 1);
  EXPECT_EQ(ms.socketOfCore(11), 1);
}

TEST(MemSys, ClearCachesDropsWarmState) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x5000, 8, 0);
  EXPECT_EQ(ms.peekLevel(0, 0x5000), MemLevel::L1);
  ms.clearCaches();
  EXPECT_EQ(ms.peekLevel(0, 0x5000), MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 0u);
}

TEST(MemSys, StoreAllocatesLikeLoad) {
  MemorySystem ms(testConfig());
  AccessResult r = ms.store(0, 0x6000, 16, 0);
  EXPECT_EQ(r.level, MemLevel::Ram);
  EXPECT_EQ(ms.peekLevel(0, 0x6000), MemLevel::L1);
}

TEST(MemSys, FrequencyScalingChangesOffcoreCycles) {
  // Figure 13's mechanism: at a lower core clock, the same DRAM
  // nanoseconds are fewer core cycles.
  MachineConfig fast = testConfig();
  fast.coreGHz = 2.67;
  MachineConfig slow = testConfig();
  slow.coreGHz = 1.60;
  fast.prefetchDegree = slow.prefetchDegree = 0;
  MemorySystem msFast(fast);
  MemorySystem msSlow(slow);
  std::uint64_t tFast = msFast.load(0, 0x7000, 8, 0).completeCycle;
  std::uint64_t tSlow = msSlow.load(0, 0x7000, 8, 0).completeCycle;
  EXPECT_GT(tFast, tSlow);  // more core cycles at the higher clock
}

/// Drives a seeded random mix of loads, stores, touches, L1 refreshes and
/// clears over two cores on different sockets; `check` runs at random
/// points with the current cycle.
template <class Check>
void randomTraffic(MemorySystem& ms, std::uint64_t seed, int steps,
                   Check check) {
  const int cores[2] = {0, ms.config().coresPerSocket};
  Rng rng(seed);
  std::uint64_t cycle = 0;
  std::uint64_t cursor = 0x100000;
  for (int step = 0; step < steps; ++step) {
    int core = cores[rng.nextBelow(2)];
    // Half the accesses continue a sequential stream (trains the
    // prefetcher), half land anywhere in 1 MiB (evicts from L1 and L2).
    cursor = rng.nextBelow(2) == 0
                 ? cursor + 64
                 : 0x100000 + rng.nextBelow(1 << 14) * 64;
    std::uint64_t addr = cursor + rng.nextBelow(64);
    int bytes = 1 << rng.nextBelow(5);
    switch (rng.nextBelow(10)) {
      case 0:
        ms.touch(core, addr, rng.nextBelow(512));
        break;
      case 1:
        ms.refreshL1(core, addr, bytes);
        break;
      case 2:
        if (rng.nextBelow(40) == 0) ms.clearCaches();
        break;
      case 3:
      case 4:
      case 5:
        ms.store(core, addr, bytes, cycle);
        break;
      default:
        ms.load(core, addr, bytes, cycle);
        break;
    }
    cycle += rng.nextBelow(40);
    if (rng.nextBelow(25) == 0) check(cycle);
  }
}

TEST(MemSys, IncrementalFingerprintMatchesFullRecomputation) {
  MemorySystem ms(testConfig());
  int checks = 0;
  randomTraffic(ms, 20120910, 6000, [&](std::uint64_t cycle) {
    ASSERT_EQ(ms.stateFingerprint(cycle), ms.referenceFingerprint(cycle))
        << "check " << checks;
    ++checks;
  });
  EXPECT_GT(checks, 100);
  EXPECT_GT(ms.prefetchCount(), 0u);
}

TEST(MemSys, ClearCachesEqualsFreshlyBuilt) {
  MemorySystem fresh(testConfig());
  MemorySystem ms(testConfig());
  std::uint64_t last = 0;
  randomTraffic(ms, 7, 3000, [&](std::uint64_t cycle) {
    ms.stateFingerprint(cycle);  // interleave digests with the traffic
    last = cycle;
  });
  ms.clearCaches();
  for (std::uint64_t clock : {std::uint64_t{0}, last}) {
    EXPECT_EQ(ms.stateFingerprint(clock), fresh.stateFingerprint(clock));
    EXPECT_EQ(ms.referenceFingerprint(clock),
              fresh.referenceFingerprint(clock));
  }
  for (MemLevel level :
       {MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Ram}) {
    EXPECT_EQ(ms.levelCount(level), 0u);
  }
  EXPECT_EQ(ms.prefetchCount(), 0u);
  // Same behavior from here on, not just the same digest.
  for (int i = 0; i < 64; ++i) {
    std::uint64_t addr = 0x100000 + static_cast<std::uint64_t>(i) * 64;
    AccessResult a = ms.load(0, addr, 8, 100 + static_cast<std::uint64_t>(i));
    AccessResult b =
        fresh.load(0, addr, 8, 100 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(a.completeCycle, b.completeCycle) << i;
    ASSERT_EQ(a.level, b.level) << i;
  }
}

}  // namespace
}  // namespace microtools::sim
