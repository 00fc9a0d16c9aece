// Tests of the static performance analyzer (verify/costmodel.*): the
// port-level throughput/latency/frontend bounds against hand-built loops
// with known answers, the muOpTime-style stability verdict, and the
// soundness properties the whole design rests on -- the model dispatches
// exactly the micro-ops the simulator dispatches, and the predicted
// cycles/iteration is a LOWER bound on what the exact simulator measures.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "kernels/matmul.hpp"
#include "launcher/explore.hpp"
#include "launcher/sim_backend.hpp"
#include "sim/arch.hpp"
#include "sim/core.hpp"
#include "test_helpers.hpp"
#include "verify/costmodel.hpp"
#include "verify/stability.hpp"

namespace microtools::verify {
namespace {

namespace fs = std::filesystem;

/// Hand-written counted loop: one load, one store, induction update,
/// compare, branch. 5 dispatch slots at issue width 4 -> 2 frontend
/// cycles; no port pool above 1.0; recurrence is the 1-cycle induction add.
constexpr const char* kLoadStoreLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  movss (%rsi,%rcx,4), %xmm0
  movss %xmm0, (%rdi,%rcx,4)
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

constexpr const char* kDivLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  divss %xmm1, %xmm0
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

constexpr const char* kPointerChaseLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  movq (%rsi), %rsi
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

/// The divider's 14 cycles next to 14 multiplies: the fp-mul and fp-div
/// pools each need 14 cycles per iteration, not 28 together.
constexpr const char* kDivMulLoop = R"(
  .globl kernel
kernel:
  movslq %edi, %rdi
  xor %eax, %eax
.L0:
  divss %xmm0, %xmm1
  mulss %xmm0, %xmm2
  mulss %xmm0, %xmm3
  mulss %xmm0, %xmm4
  mulss %xmm0, %xmm5
  mulss %xmm0, %xmm6
  mulss %xmm0, %xmm7
  mulss %xmm0, %xmm8
  mulss %xmm0, %xmm9
  mulss %xmm0, %xmm10
  mulss %xmm0, %xmm11
  mulss %xmm0, %xmm12
  mulss %xmm0, %xmm13
  mulss %xmm0, %xmm14
  mulss %xmm0, %xmm15
  add $1, %eax
  sub $1, %rdi
  jge .L0
  ret
)";

/// xorps of a register with itself breaks the divide's recurrence.
constexpr const char* kZeroingDivLoop = R"(
  .globl kernel
kernel:
  movslq %edi, %rdi
  xor %eax, %eax
.L0:
  divss %xmm2, %xmm1
  xorps %xmm1, %xmm1
  add $1, %eax
  sub $1, %rdi
  jge .L0
  ret
)";

/// not writes no flags: jge reads them from sub.
constexpr const char* kNotLoop = R"(
  .globl kernel
kernel:
  movslq %edi, %rdi
  xor %eax, %eax
.L0:
  add $1, %eax
  sub $1, %rdi
  not %rdx
  jge .L0
  ret
)";

/// A compare against memory loads its operand.
constexpr const char* kCmpMemoryLoop = R"(
  .globl kernel
kernel:
  movslq %edi, %rdi
  xor %eax, %eax
.L0:
  cmp %eax, (%rsi)
  add $4, %rsi
  add $1, %eax
  sub $1, %rdi
  jge .L0
  ret
)";

CyclePrediction predict(const char* asmText) {
  return predictAssembly(asmText, sim::MachineConfig{});
}

TEST(CostModel, LoadStoreLoopIsFrontendBound) {
  CyclePrediction p = predict(kLoadStoreLoop);
  ASSERT_TRUE(p.valid) << (p.warnings.empty() ? "" : p.warnings.front());
  // 5 micro-op slots (load, store, add, cmp, branch) at issue width 4.
  EXPECT_DOUBLE_EQ(p.frontendBound, 2.0);
  // No pool is oversubscribed: load 1/1, store 1/1, alu 2/3, branch 1/1.
  EXPECT_DOUBLE_EQ(p.throughputBound, 1.0);
  // The only recurrence is the induction add (latency 1, distance 1); the
  // binary search stays a hair below the true ratio, never above.
  EXPECT_LE(p.latencyBound, 1.0);
  EXPECT_GT(p.latencyBound, 0.99);
  EXPECT_EQ(p.binding, "frontend");
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 2.0);
  EXPECT_FALSE(p.loadCarried);
}

TEST(CostModel, LoadStorePortPressureIsReported) {
  CyclePrediction p = predict(kLoadStoreLoop);
  ASSERT_TRUE(p.valid);
  double loadOcc = 0.0, storeOcc = 0.0, aluOcc = 0.0, branchOcc = 0.0;
  for (const PortPressure& port : p.pressure) {
    if (port.unit == "load") loadOcc = port.occupancy;
    if (port.unit == "store") storeOcc = port.occupancy;
    if (port.unit == "alu") aluOcc = port.occupancy;
    if (port.unit == "branch") branchOcc = port.occupancy;
  }
  EXPECT_DOUBLE_EQ(loadOcc, 1.0);
  EXPECT_DOUBLE_EQ(storeOcc, 1.0);
  EXPECT_DOUBLE_EQ(aluOcc, 2.0);   // add + cmp
  EXPECT_DOUBLE_EQ(branchOcc, 1.0);
}

TEST(CostModel, UnpipelinedDividerBindsItsOwnPort) {
  CyclePrediction p = predict(kDivLoop);
  ASSERT_TRUE(p.valid);
  // divss holds a divider port for its full 14-cycle latency.
  EXPECT_DOUBLE_EQ(p.throughputBound, 14.0);
  EXPECT_EQ(p.binding, "fp-div");
  // xmm0 is read-modify-write: the recurrence is the 14-cycle divide.
  EXPECT_GT(p.latencyBound, 13.9);
  EXPECT_LE(p.latencyBound, 14.0);
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 14.0);
  EXPECT_FALSE(p.loadCarried);
}

TEST(CostModel, DividerAndMultipliersUseSeparatePools) {
  CyclePrediction p = predict(kDivMulLoop);
  ASSERT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 14.0);
  EXPECT_EQ(p.uops, 18u);
}

TEST(CostModel, ZeroingIdiomLeavesOnlyTheDividerPort) {
  CyclePrediction p = predict(kZeroingDivLoop);
  ASSERT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 14.0);
  EXPECT_EQ(p.binding, "fp-div");
  EXPECT_LT(p.latencyBound, 14.0);
}

TEST(CostModel, PointerChaseIsLatencyBoundAndLoadCarried) {
  CyclePrediction p = predict(kPointerChaseLoop);
  ASSERT_TRUE(p.valid);
  // The load feeds its own address: recurrence = L1 load-to-use latency.
  EXPECT_TRUE(p.loadCarried);
  EXPECT_GT(p.latencyBound, 3.9);
  EXPECT_LE(p.latencyBound, 4.0);
  EXPECT_EQ(p.binding, "latency");
}

TEST(CostModel, ParseFailureComesBackAsWarningNotThrow) {
  CyclePrediction p = predictAssembly("this is not assembly !!!",
                                      sim::MachineConfig{});
  EXPECT_FALSE(p.valid);
  ASSERT_FALSE(p.warnings.empty());
  EXPECT_NE(p.warnings.front().find("parse error"), std::string::npos);
}

TEST(CostModel, StraightLineCodeHasNoRecognizedLoop) {
  CyclePrediction p = predictAssembly(
      "  .globl kernel\nkernel:\n  ret\n", sim::MachineConfig{});
  EXPECT_FALSE(p.valid);
  ASSERT_FALSE(p.warnings.empty());
  EXPECT_NE(p.warnings.front().find("no recognized single-block loop"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// stability
// ---------------------------------------------------------------------------

TEST(Stability, RegularL1ResidentLoadStoreLoopIsStable) {
  StabilityOptions geometry;
  geometry.footprintBytes = 8 * 1024;  // two 4 KiB arrays: inside 32 KiB L1
  StabilityReport s =
      analyzeStability(kLoadStoreLoop, sim::MachineConfig{}, geometry);
  EXPECT_TRUE(s.regularLoop);
  EXPECT_TRUE(s.fitsL1);
  EXPECT_TRUE(s.steadyDependences);
  EXPECT_TRUE(s.stable());
  EXPECT_DOUBLE_EQ(s.score(), 1.0);
}

TEST(Stability, UnknownOrOversizedFootprintIsNotProvablyStable) {
  StabilityReport unknown =
      analyzeStability(kLoadStoreLoop, sim::MachineConfig{},
                       StabilityOptions{});
  EXPECT_FALSE(unknown.fitsL1);
  EXPECT_FALSE(unknown.stable());

  StabilityOptions big;
  big.footprintBytes = 1 << 20;  // 1 MiB streams far past L1
  StabilityReport streaming =
      analyzeStability(kLoadStoreLoop, sim::MachineConfig{}, big);
  EXPECT_FALSE(streaming.fitsL1);
  EXPECT_FALSE(streaming.stable());
}

TEST(Stability, LoadCarriedDependenceFailsSteadiness) {
  StabilityOptions geometry;
  geometry.footprintBytes = 8 * 1024;
  StabilityReport s =
      analyzeStability(kPointerChaseLoop, sim::MachineConfig{}, geometry);
  EXPECT_TRUE(s.regularLoop);
  EXPECT_TRUE(s.fitsL1);
  EXPECT_FALSE(s.steadyDependences);
  EXPECT_FALSE(s.stable());
  EXPECT_NEAR(s.score(), 2.0 / 3.0, 1e-12);
}

TEST(Stability, ParseFailureScoresZero) {
  StabilityReport s =
      analyzeStability("garbage $$$", sim::MachineConfig{},
                       StabilityOptions{});
  EXPECT_FALSE(s.regularLoop);
  EXPECT_FALSE(s.fitsL1);
  EXPECT_FALSE(s.steadyDependences);
  EXPECT_DOUBLE_EQ(s.score(), 0.0);
}

// ---------------------------------------------------------------------------
// soundness properties: the model dispatches what the simulator dispatches,
// and its bound is at most what the exact simulator measures
// ---------------------------------------------------------------------------

std::vector<std::string> exampleDescriptions() {
  std::vector<std::string> texts;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(MT_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".xml") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

/// One kernel the properties run over, with its arrays and trip count.
struct Kernel {
  std::string name;
  std::string asmText;
  int arrays = 1;
  int n = 4096;
};

/// The kernels that are not generated from a description: the Figure-2
/// matmul inner kernels u1-u7 (n = 200 doubles, C walked down a column)
/// and the hand kernels above.
std::vector<Kernel> directKernels() {
  std::vector<Kernel> out;
  for (int unroll = 1; unroll <= 7; ++unroll) {
    out.push_back({"matmul_u" + std::to_string(unroll),
                   kernels::matmulInnerKernelAsm(unroll, 200 * 8), 3, 200});
  }
  out.push_back({"hand_div_mul", kDivMulLoop, 1, 4096});
  out.push_back({"hand_zeroing_div", kZeroingDivLoop, 1, 4096});
  out.push_back({"hand_not", kNotLoop, 1, 4096});
  out.push_back({"hand_cmp_memory", kCmpMemoryLoop, 1, 4096});
  return out;
}

/// Every variant of examples/descriptions/*.xml and of figure6Xml(1, 5) at
/// 16 KiB, plus directKernels().
std::vector<Kernel> propertyKernels() {
  std::vector<Kernel> out = directKernels();
  std::vector<std::string> descriptions = exampleDescriptions();
  descriptions.push_back(testing::figure6Xml(1, 5));
  for (const std::string& xml : descriptions) {
    for (const creator::GeneratedProgram& p : testing::generate(xml)) {
      out.push_back({p.name, p.asmText, p.arrayCount, 4096});
    }
  }
  return out;
}

/// What one more loop trip costs the exact simulator: the difference of
/// a run with 2n and one with n, per trip of the loop body.
struct SimTrip {
  std::uint64_t trips = 0;
  std::uint64_t uops = 0;        ///< dispatched micro-ops over those trips
  std::uint64_t iterations = 0;  ///< %eax advance over those trips
};

SimTrip simulateTrips(const Kernel& k, const CyclePrediction& pred) {
  sim::MachineConfig machine = sim::nehalemX5650DualSocket();
  asmparse::Program program = asmparse::parseAssembly(k.asmText);
  std::vector<std::uint64_t> addrs;
  for (int a = 0; a < k.arrays; ++a) {
    addrs.push_back(0x100000000ull + static_cast<std::uint64_t>(a) *
                                         0x10000000ull);
  }
  auto run = [&](int n) {
    sim::MemorySystem memory(machine);
    sim::CoreSim core(machine, memory, 0);
    return core.run(program, n, addrs);
  };
  sim::RunResult once = run(k.n);
  sim::RunResult twice = run(2 * k.n);
  std::uint64_t bodyLength = pred.branchIndex - pred.headIndex + 1;
  std::uint64_t instructions = twice.instructions - once.instructions;
  EXPECT_EQ(instructions % bodyLength, 0u) << k.name;
  return {instructions / bodyLength, twice.uops - once.uops,
          twice.iterations - once.iterations};
}

TEST(CostModelProperty, MicroOpsPerIterationMatchTheSimulator) {
  for (const Kernel& k : propertyKernels()) {
    CyclePrediction pred = predictAssembly(k.asmText, sim::MachineConfig{});
    ASSERT_TRUE(pred.valid) << k.name;
    SimTrip trip = simulateTrips(k, pred);
    ASSERT_GT(trip.trips, 0u) << k.name;
    EXPECT_EQ(trip.uops, trip.trips * pred.uops) << k.name;
  }
}

// The predicted cycles/iteration must lower-bound what the exact simulator
// measures. --sim-exact cycle-simulates every invoke (no steady-state
// extrapolation), so the measured minimum is the true simulated cost
// including pipeline fill -- anything the static model misses (ROB
// stalls, mispredicts, cache effects) only ADDS cycles on top of the
// bound. The descriptions run through explore, so the pred_cpi_lo column
// is what gets checked; the other kernels are measured directly, with the
// bound (per loop trip) scaled to the kernel's iterations per trip.
TEST(CostModelProperty, PredictionLowerBoundsExactSimulation) {
  std::vector<std::string> descriptions = exampleDescriptions();
  ASSERT_FALSE(descriptions.empty());
  descriptions.push_back(testing::figure6Xml(1, 5));
  for (const std::string& description : descriptions) {
    launcher::ExploreOptions options;
    options.descriptionText = description;
    options.simExact = true;  // exact per-invoke cycle simulation
    options.useCache = false;
    options.arrayBytes = 16 * 1024;  // L1-resident geometry
    options.campaign.protocol.innerRepetitions = 1;
    options.campaign.protocol.outerRepetitions = 2;
    options.campaign.maxRepetitions = 2;
    launcher::ExploreResult result = launcher::runExplore(options);
    ASSERT_FALSE(result.results.empty());
    for (const launcher::VariantResult& r : result.results) {
      if (r.status != "ok") continue;
      ASSERT_TRUE(std::isfinite(r.predCpiLo))
          << r.name << " has no prediction";
      EXPECT_FALSE(r.predBound.empty()) << r.name;
      EXPECT_LE(r.predCpiLo, r.measurement.cyclesPerIteration.min + 1e-9)
          << r.name << " bound above exact simulation";
      EXPECT_GT(r.predCpiLo, 0.0) << r.name;
    }
  }

  launcher::SimBackendOptions exact;
  exact.steadyState = false;
  exact.memoize = false;
  for (const Kernel& k : directKernels()) {
    CyclePrediction pred = predictAssembly(k.asmText, sim::MachineConfig{});
    ASSERT_TRUE(pred.valid) << k.name;
    SimTrip trip = simulateTrips(k, pred);
    launcher::SimBackend backend(sim::nehalemX5650DualSocket(), exact);
    auto handle = backend.load(k.asmText, "");
    launcher::KernelRequest request;
    request.n = k.n;
    for (int a = 0; a < k.arrays; ++a) {
      request.arrays.push_back(launcher::ArraySpec{16 * 1024, 4096, 0});
    }
    launcher::ProtocolOptions protocol;
    protocol.innerRepetitions = 1;
    protocol.outerRepetitions = 2;
    launcher::Measurement m =
        launcher::measureKernel(backend, *handle, request, protocol);
    double perTrip = m.cyclesPerIteration.min *
                     static_cast<double>(trip.iterations) /
                     static_cast<double>(trip.trips);
    EXPECT_LE(pred.cyclesLowerBound(), perTrip + 1e-9)
        << k.name << " bound above exact simulation";
  }
}

}  // namespace
}  // namespace microtools::verify
