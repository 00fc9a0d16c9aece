// Pins the simulator's absolute numbers. Every other sim test compares two
// runs with each other (fast path against exact, one layout against
// another); this one compares against a table, so a refactor of the core
// model that moves any simulated number -- cycles, micro-ops, instructions,
// iterations or the level each access was served from -- fails here.
//
// Each row is one cold invoke on nehalem_x5650_2s: a fresh MemorySystem and
// CoreSim with the steady-state extrapolator on, as the launcher runs it.
// The table was recorded from the build before the instruction recipes
// (asmparse::UopRecipe) replaced the per-consumer operand decoding, and
// must only change when a simulated number is meant to move.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "kernels/matmul.hpp"
#include "sim/arch.hpp"
#include "sim/core.hpp"
#include "sim/machine.hpp"
#include "test_helpers.hpp"

#ifndef MT_EXAMPLES_DIR
#error "MT_EXAMPLES_DIR must be defined by the build"
#endif

namespace microtools::sim {
namespace {

struct Golden {
  std::string name;
  std::uint64_t coreCycles;
  std::uint64_t uops;
  std::uint64_t instructions;
  std::uint64_t iterations;
  std::uint64_t l1, l2, l3, ram;

  bool operator==(const Golden&) const = default;
};

// clang-format off
const std::vector<Golden> kGolden = {
    {"loadstore_small_u1@16384", 4326, 5127, 5128, 1025, 768, 251, 0, 6},
    {"loadstore_small_u2@16384", 3544, 3080, 3081, 513, 769, 251, 0, 6},
    {"loadstore_small_u3@16384", 3479, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_small_u4@16384", 3432, 2058, 2059, 257, 771, 251, 0, 6},
    {"fpadd_small_u1@16384", 13503, 24584, 20488, 4097, 3840, 251, 0, 6},
    {"fpadd_small_u2@16384", 7436, 16394, 12297, 2049, 3841, 251, 0, 6},
    {"fpadd_small_u3@16384", 5571, 13662, 9565, 1366, 3841, 251, 0, 6},
    {"fpadd_small_u4@16384", 5464, 12302, 8203, 1025, 3843, 251, 0, 6},
    {"loadstore_u1_seqL@16384", 4326, 5127, 5128, 1025, 768, 251, 0, 6},
    {"loadstore_u1_seqS@16384", 3028, 5127, 5128, 1025, 768, 251, 0, 6},
    {"loadstore_u2_seqLL@16384", 3544, 3080, 3081, 513, 769, 251, 0, 6},
    {"loadstore_u2_seqSL@16384", 3054, 3080, 3081, 513, 769, 251, 0, 6},
    {"loadstore_u2_seqLS@16384", 3112, 3080, 3081, 513, 769, 251, 0, 6},
    {"loadstore_u2_seqSS@16384", 3024, 3080, 3081, 513, 769, 251, 0, 6},
    {"loadstore_u3_seqLLL@16384", 3479, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqSLL@16384", 3379, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqLSL@16384", 3053, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqSSL@16384", 3084, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqLLS@16384", 3042, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqSLS@16384", 3091, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqLSS@16384", 3054, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_u3_seqSSS@16384", 3024, 2396, 2397, 342, 769, 251, 0, 6},
    {"loadstore_small_u1@524288", 130806, 163847, 163848, 32769, 24576, 8063, 0, 130},
    {"loadstore_small_u2@524288", 104356, 98312, 98313, 16385, 24577, 8063, 0, 130},
    {"loadstore_small_u3@524288", 102266, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_small_u4@524288", 100648, 65546, 65547, 8193, 24579, 8063, 0, 130},
    {"fpadd_small_u1@524288", 423323, 786440, 655368, 131073, 122880, 8063, 0, 130},
    {"fpadd_small_u2@524288", 228900, 524298, 393225, 65537, 122881, 8063, 0, 130},
    {"fpadd_small_u3@524288", 169085, 436912, 305840, 43691, 122880, 8063, 0, 130},
    {"fpadd_small_u4@524288", 165548, 393230, 262155, 32769, 122883, 8063, 0, 130},
    {"loadstore_u1_seqL@524288", 130806, 163847, 163848, 32769, 24576, 8063, 0, 130},
    {"loadstore_u1_seqS@524288", 96524, 163847, 163848, 32769, 24576, 8063, 0, 130},
    {"loadstore_u2_seqLL@524288", 104356, 98312, 98313, 16385, 24577, 8063, 0, 130},
    {"loadstore_u2_seqSL@524288", 96302, 98312, 98313, 16385, 24577, 8063, 0, 130},
    {"loadstore_u2_seqLS@524288", 96360, 98312, 98313, 16385, 24577, 8063, 0, 130},
    {"loadstore_u2_seqSS@524288", 96520, 98312, 98313, 16385, 24577, 8063, 0, 130},
    {"loadstore_u3_seqLLL@524288", 102266, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqSLL@524288", 96620, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqLSL@524288", 96590, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqSSL@524288", 96737, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqLLS@524288", 96298, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqSLS@524288", 96467, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqLSS@524288", 96416, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"loadstore_u3_seqSSS@524288", 96519, 76463, 76464, 10923, 24576, 8063, 0, 130},
    {"matmul_u1", 5648, 2003, 1804, 200, 374, 0, 0, 226},
    {"matmul_u2", 5647, 1504, 1305, 200, 374, 0, 0, 226},
    {"matmul_u3", 5662, 1345, 1145, 201, 375, 0, 0, 228},
    {"matmul_u4", 5647, 1256, 1057, 200, 374, 0, 0, 226},
    {"matmul_u5", 5647, 1207, 1008, 200, 374, 0, 0, 226},
    {"matmul_u6", 5869, 1198, 995, 204, 381, 0, 0, 231},
    {"matmul_u7", 5678, 1169, 967, 203, 379, 0, 0, 230},
    {"fork2_p0", 175156, 196624, 196626, 32770, 98308, 18420, 14092, 260},
    {"fork2_p1", 175156, 196624, 196626, 32770, 98308, 18420, 14092, 260},
    {"omp4", 54593, 98336, 98340, 16388, 24580, 8060, 3, 133},
};
// clang-format on

constexpr std::uint64_t kBase = 0x100000000ull;
constexpr std::uint64_t kPadding = 2ull * 1024 * 1024;

std::vector<std::uint64_t> arrayAddresses(int count, std::uint64_t bytes) {
  std::vector<std::uint64_t> addrs;
  std::uint64_t cursor = kBase;
  for (int a = 0; a < count; ++a) {
    addrs.push_back(cursor);
    cursor = (cursor + bytes + kPadding + 4095) / 4096 * 4096;
  }
  return addrs;
}

Golden row(std::string name, const RunResult& r, const MemorySystem& memory) {
  return {std::move(name), r.coreCycles, r.uops, r.instructions, r.iterations,
          memory.levelCount(MemLevel::L1), memory.levelCount(MemLevel::L2),
          memory.levelCount(MemLevel::L3), memory.levelCount(MemLevel::Ram)};
}

Golden coldInvoke(const std::string& name, const std::string& asmText, int n,
                  const std::vector<std::uint64_t>& addrs) {
  MachineConfig machine = nehalemX5650DualSocket();
  asmparse::Program program = asmparse::parseAssembly(asmText);
  MemorySystem memory(machine);
  CoreSim core(machine, memory, 0);
  SteadyStateOptions ss;
  ss.enabled = true;
  core.setSteadyState(ss);
  return row(name, core.run(program, n, addrs), memory);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every variant of `xml` at `bytes` per array, n = bytes / 4 as explore's
/// default 4-byte elements give.
void addVariants(std::vector<Golden>& out, const std::string& xml,
                 std::uint64_t bytes) {
  for (const creator::GeneratedProgram& p : testing::generate(xml)) {
    out.push_back(coldInvoke(p.name + "@" + std::to_string(bytes), p.asmText,
                             static_cast<int>(bytes / 4),
                             arrayAddresses(p.arrayCount, bytes)));
  }
}

std::vector<Golden> simulateAll() {
  std::vector<Golden> out;
  for (std::uint64_t bytes : {16 * 1024ull, 512 * 1024ull}) {
    for (const char* file : {"loadstore_small.xml", "fpadd_small.xml"}) {
      addVariants(out, readFile(std::string(MT_EXAMPLES_DIR) + "/" + file),
                  bytes);
    }
    addVariants(out, testing::figure6Xml(1, 3), bytes);
  }

  // The Figure-2 matmul inner kernels behind Figures 3-5: n = 200 doubles,
  // C walked down a column of a 200x200 matrix.
  for (int unroll = 1; unroll <= 7; ++unroll) {
    out.push_back(coldInvoke(
        "matmul_u" + std::to_string(unroll),
        kernels::matmulInnerKernelAsm(unroll, 200 * 8), 200,
        {kBase, kBase + 0x40000000ull, kBase + 0x80000000ull}));
  }

  MachineConfig machine = nehalemX5650DualSocket();
  std::vector<creator::GeneratedProgram> loadstore =
      testing::generate(testing::figure6Xml(2, 2, false));
  asmparse::Program program = asmparse::parseAssembly(loadstore[0].asmText);
  constexpr std::uint64_t kBytes = 512 * 1024;

  // One fork point: two scattered processes, each on its own arrays homed
  // on its socket, two calls each.
  MultiCoreRunner runner(machine);
  std::vector<CoreWork> work(2);
  for (int p = 0; p < 2; ++p) {
    CoreWork& w = work[static_cast<std::size_t>(p)];
    w.program = &program;
    w.n = static_cast<int>(kBytes / 4);
    w.arrayAddrs = {kBase + static_cast<std::uint64_t>(p) * 0x400000000ull};
    w.physicalCore = MultiCoreRunner::scatterPin(machine, p);
    w.calls = 2;
    runner.memory().setHomeSocket(w.arrayAddrs[0], 0x400000000ull,
                                  runner.memory().socketOfCore(w.physicalCore));
  }
  std::vector<RunResult> forked = runner.run(work);
  for (std::size_t p = 0; p < forked.size(); ++p) {
    out.push_back(row("fork2_p" + std::to_string(p), forked[p],
                      runner.memory()));
  }

  // One OpenMP region: four threads over one 512 KiB array.
  OpenMpModel omp(machine);
  OmpRegionResult region = omp.runParallelFor(
      program, static_cast<int>(kBytes / 4), {kBase}, 4, 4);
  RunResult total;
  total.coreCycles = region.regionCoreCycles;
  total.iterations = region.totalIterations;
  for (const RunResult& t : region.threads) {
    total.uops += t.uops;
    total.instructions += t.instructions;
  }
  out.push_back(row("omp4", total, omp.memory()));
  return out;
}

std::string render(const Golden& g) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "    {\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu},",
                g.name.c_str(), static_cast<unsigned long long>(g.coreCycles),
                static_cast<unsigned long long>(g.uops),
                static_cast<unsigned long long>(g.instructions),
                static_cast<unsigned long long>(g.iterations),
                static_cast<unsigned long long>(g.l1),
                static_cast<unsigned long long>(g.l2),
                static_cast<unsigned long long>(g.l3),
                static_cast<unsigned long long>(g.ram));
  return buffer;
}

TEST(SimGolden, EverySimulatedNumberMatchesTheRecordedTable) {
  std::vector<Golden> actual = simulateAll();
  // On a mismatch the actual row is printed in table syntax, so a change
  // that is meant to move numbers can be re-recorded by pasting.
  ASSERT_EQ(actual.size(), kGolden.size()) << [&] {
    std::string all;
    for (const Golden& g : actual) all += render(g) + "\n";
    return all;
  }();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], kGolden[i]) << "expected\n"
                                     << render(kGolden[i]) << "\nactual\n"
                                     << render(actual[i]);
  }
}

}  // namespace
}  // namespace microtools::sim
