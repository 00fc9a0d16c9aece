#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "launcher/sim_backend.hpp"
#include "sim/core.hpp"
#include "test_helpers.hpp"

// The fast path of the simulated backend (steady-state extrapolation inside
// CoreSim + warm-invoke memoization in SimBackend) promises *bit-identical*
// results to full cycle simulation — not approximately equal. These tests
// drive both paths over the interesting kernel shapes (loadstore, strided
// scalar loads, alignment offsets, L1-resident and streaming working sets)
// and in every invoke mode (plain, fork, OpenMP), comparing exact doubles.

namespace microtools::launcher {
namespace {

using testing::figure6Xml;
using testing::generate;
using testing::movssLoadXml;

SimBackendOptions exactOptions() {
  SimBackendOptions o;
  o.steadyState = false;
  o.memoize = false;
  return o;
}

KernelRequest requestFor(std::uint64_t bytes, std::uint64_t offset,
                         std::uint64_t elementBytes) {
  KernelRequest request;
  request.arrays.push_back(ArraySpec{bytes, 4096, offset});
  request.n = static_cast<int>(bytes / elementBytes);
  return request;
}

/// One invoke's result plus where it left the machine: a replayed invoke
/// must leave the same statistics and the same fingerprint (at the same
/// clock) as simulating it would have. The full-scan reference fingerprint
/// is compared too, so a set the incremental digest missed still shows.
struct Observed {
  InvokeResult result;
  std::uint64_t levels[4] = {0, 0, 0, 0};
  std::uint64_t prefetches = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t reference = 0;
};

Observed observe(SimBackend& backend, const InvokeResult& result) {
  Observed o;
  o.result = result;
  sim::MemorySystem& memory = backend.memory();
  for (int level = 0; level < 4; ++level) {
    o.levels[level] = memory.levelCount(static_cast<sim::MemLevel>(level + 1));
  }
  o.prefetches = memory.prefetchCount();
  o.fingerprint = memory.stateFingerprint(backend.clock());
  o.reference = memory.referenceFingerprint(backend.clock());
  return o;
}

/// Runs `invokes` identical calls on a fresh backend; returns the results.
std::vector<Observed> runSequence(const std::string& asmText,
                                  const KernelRequest& request,
                                  SimBackendOptions options, int invokes,
                                  std::uint64_t* replayed = nullptr) {
  SimBackend backend(sim::nehalemX5650DualSocket(), options);
  auto kernel = backend.load(asmText, "microkernel");
  std::vector<Observed> out;
  for (int i = 0; i < invokes; ++i) {
    out.push_back(observe(backend, backend.invoke(*kernel, request)));
  }
  if (replayed) *replayed = backend.replayedInvokes();
  return out;
}

void expectBitIdentical(const std::vector<InvokeResult>& fast,
                        const std::vector<InvokeResult>& exact) {
  ASSERT_EQ(fast.size(), exact.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // Exact comparison on purpose: same bits, not "close enough".
    EXPECT_EQ(fast[i].tscCycles, exact[i].tscCycles) << "invoke " << i;
    EXPECT_EQ(fast[i].iterations, exact[i].iterations) << "invoke " << i;
  }
}

void expectBitIdentical(const std::vector<Observed>& fast,
                        const std::vector<Observed>& exact) {
  ASSERT_EQ(fast.size(), exact.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].result.tscCycles, exact[i].result.tscCycles)
        << "invoke " << i;
    EXPECT_EQ(fast[i].result.iterations, exact[i].result.iterations)
        << "invoke " << i;
    for (int level = 0; level < 4; ++level) {
      EXPECT_EQ(fast[i].levels[level], exact[i].levels[level])
          << "invoke " << i << " level L" << level + 1;
    }
    EXPECT_EQ(fast[i].prefetches, exact[i].prefetches) << "invoke " << i;
    EXPECT_EQ(fast[i].fingerprint, exact[i].fingerprint) << "invoke " << i;
    EXPECT_EQ(fast[i].reference, exact[i].reference) << "invoke " << i;
  }
}

// ---------------------------------------------------------------------------
// Property: fast path == --sim-exact, across kernels/sizes/alignments
// ---------------------------------------------------------------------------

TEST(SimBackendExactness, LoadStoreKernelsAllSizesAndAlignments) {
  struct Case {
    std::string xml;
    std::uint64_t elementBytes;
    std::uint64_t offset;
  };
  // movaps needs 16-byte alignment; the scalar movss kernel probes the
  // odd-offset space.
  std::vector<Case> cases = {
      {figure6Xml(1, 1, false), 16, 0},   {figure6Xml(4, 4, false), 16, 16},
      {figure6Xml(8, 8, false), 16, 32},  {movssLoadXml(1, 1), 4, 0},
      {movssLoadXml(2, 2), 4, 4},
  };
  // 16 KiB stays L1-resident (steady-state extrapolation territory);
  // 512 KiB lives in L3 and 1 MiB streams through L2/L3 (warm-invoke
  // memoization territory).
  std::vector<std::uint64_t> sizes = {16 * 1024, 512 * 1024, 1 << 20};
  for (const Case& c : cases) {
    std::string asmText = generate(c.xml).at(0).asmText;
    for (std::uint64_t bytes : sizes) {
      KernelRequest request = requestFor(bytes, c.offset, c.elementBytes);
      std::vector<Observed> fast =
          runSequence(asmText, request, SimBackendOptions{}, 12);
      std::vector<Observed> exact =
          runSequence(asmText, request, exactOptions(), 12);
      SCOPED_TRACE("bytes=" + std::to_string(bytes) +
                   " offset=" + std::to_string(c.offset));
      expectBitIdentical(fast, exact);
    }
  }
}

TEST(SimBackendExactness, ForkMode) {
  std::string asmText = generate(figure6Xml(2, 2, false)).at(0).asmText;
  KernelRequest request = requestFor(64 * 1024, 0, 16);
  SimBackend fast(sim::nehalemX5650DualSocket(), SimBackendOptions{});
  SimBackend exact(sim::nehalemX5650DualSocket(), exactOptions());
  auto kf = fast.load(asmText, "microkernel");
  auto ke = exact.load(asmText, "microkernel");
  std::vector<InvokeResult> rf =
      fast.invokeFork(*kf, request, 2, 2, PinPolicy::Scatter);
  std::vector<InvokeResult> re =
      exact.invokeFork(*ke, request, 2, 2, PinPolicy::Scatter);
  expectBitIdentical(rf, re);
  // Second identical fork: served from the pure-function memo, same bits.
  expectBitIdentical(fast.invokeFork(*kf, request, 2, 2, PinPolicy::Scatter),
                     re);
}

TEST(SimBackendExactness, OpenMpMode) {
  std::string asmText = generate(movssLoadXml(1, 1)).at(0).asmText;
  KernelRequest request = requestFor(128 * 1024, 0, 4);
  SimBackend fast(sim::nehalemX5650DualSocket(), SimBackendOptions{});
  SimBackend exact(sim::nehalemX5650DualSocket(), exactOptions());
  auto kf = fast.load(asmText, "microkernel");
  auto ke = exact.load(asmText, "microkernel");
  InvokeResult rf = fast.invokeOpenMp(*kf, request, 4, 2);
  InvokeResult re = exact.invokeOpenMp(*ke, request, 4, 2);
  EXPECT_EQ(rf.tscCycles, re.tscCycles);
  EXPECT_EQ(rf.iterations, re.iterations);
  // Memoized repeat.
  InvokeResult again = fast.invokeOpenMp(*kf, request, 4, 2);
  EXPECT_EQ(again.tscCycles, re.tscCycles);
}

// ---------------------------------------------------------------------------
// The optimizations must actually fire (not just silently fall back)
// ---------------------------------------------------------------------------

TEST(SimBackendExactness, SteadyStateExtrapolationFires) {
  // L1-resident movaps loop, pre-warmed: after the confirmation window the
  // core must stop simulating and extrapolate the remaining iterations.
  std::string asmText =
      "microkernel:\n"
      " mov %rdi, %rax\n"
      ".L6:\n"
      " movaps (%rsi), %xmm0\n"
      " add $16, %rsi\n"
      " sub $4, %rdi\n"
      " jg .L6\n"
      " ret\n";
  asmparse::Program program = asmparse::parseAssembly(asmText);
  sim::MachineConfig machine = sim::nehalemX5650DualSocket();
  std::uint64_t base = 1ull << 32;
  int n = 4096;  // 16 KiB of floats, 1024 loop iterations

  auto runWith = [&](bool enabled, sim::MemorySystem& ms) {
    ms.touch(0, base, static_cast<std::uint64_t>(n) * 4 + 64);
    sim::CoreSim core(machine, ms, 0);
    sim::SteadyStateOptions ss;
    ss.enabled = enabled;
    core.setSteadyState(ss);
    return core.run(program, n, {base});
  };
  sim::MemorySystem msFast(machine), msExact(machine);
  sim::RunResult fast = runWith(true, msFast);
  sim::RunResult exact = runWith(false, msExact);

  EXPECT_GT(fast.extrapolatedFrom, 0u);
  EXPECT_GT(fast.extrapolatedIterations, 0u);
  EXPECT_EQ(exact.extrapolatedFrom, 0u);
  EXPECT_EQ(fast.tscCycles, exact.tscCycles);
  EXPECT_EQ(fast.coreCycles, exact.coreCycles);
  EXPECT_EQ(fast.iterations, exact.iterations);
  // The machine must end up where full simulation would have left it.
  EXPECT_EQ(msFast.stateFingerprint(fast.coreCycles),
            msExact.stateFingerprint(exact.coreCycles));
  EXPECT_EQ(msFast.levelCount(sim::MemLevel::L1),
            msExact.levelCount(sim::MemLevel::L1));
}

TEST(SimBackendExactness, WarmInvokeMemoizationFires) {
  // 1 MiB streaming loadstore: every invoke misses into L2/L3, steady-state
  // extrapolation never confirms — warm-invoke memoization must carry the
  // speedup once the machine state starts cycling.
  std::string asmText = generate(figure6Xml(1, 1, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);
  std::uint64_t replayed = 0;
  std::vector<Observed> fast =
      runSequence(asmText, request, SimBackendOptions{}, 12, &replayed);
  std::vector<Observed> exact =
      runSequence(asmText, request, exactOptions(), 12);
  expectBitIdentical(fast, exact);
  EXPECT_GT(replayed, 0u);
}

TEST(SimBackendExactness, InterleavedRequestsAndReset) {
  // Two kernels, two sizes and two cores on different sockets take turns,
  // so every replay writes its recorded delta onto a machine state that
  // other requests produced; then the same sequence runs again after
  // reset(), which must behave like a freshly built machine.
  std::string a = generate(figure6Xml(2, 2, false)).at(0).asmText;
  std::string b = generate(movssLoadXml(1, 1)).at(0).asmText;
  struct Step {
    bool kernelB;
    KernelRequest request;
  };
  std::vector<Step> steps;
  for (int round = 0; round < 6; ++round) {
    KernelRequest small = requestFor(16 * 1024, 0, 16);
    KernelRequest large = requestFor(512 * 1024, 4, 4);
    large.core = 6;  // first core of the second socket
    steps.push_back({false, small});
    steps.push_back({true, large});
    steps.push_back({round % 2 == 1, small});
  }
  auto runAll = [&](SimBackendOptions options, std::uint64_t* replayed) {
    SimBackend backend(sim::nehalemX5650DualSocket(), options);
    auto ka = backend.load(a, "microkernel");
    auto kb = backend.load(b, "microkernel");
    std::vector<Observed> out;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) backend.reset();
      for (const Step& step : steps) {
        KernelHandle& kernel = step.kernelB ? *kb : *ka;
        out.push_back(observe(backend, backend.invoke(kernel, step.request)));
      }
    }
    if (replayed) *replayed = backend.replayedInvokes();
    return out;
  };
  std::uint64_t replayed = 0;
  std::vector<Observed> fast = runAll(SimBackendOptions{}, &replayed);
  std::vector<Observed> exact = runAll(exactOptions(), nullptr);
  expectBitIdentical(fast, exact);
  EXPECT_GT(replayed, 0u);
}

// ---------------------------------------------------------------------------
// reset() contract: memoized results must not survive into the cold machine
// ---------------------------------------------------------------------------

TEST(SimBackendReset, ResetWorkerReproducesColdNumbers) {
  std::string asmText = generate(figure6Xml(2, 2, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);

  SimBackend fresh(sim::nehalemX5650DualSocket());
  auto kFresh = fresh.load(asmText, "microkernel");
  std::vector<InvokeResult> cold;
  for (int i = 0; i < 4; ++i) cold.push_back(fresh.invoke(*kFresh, request));

  SimBackend worker(sim::nehalemX5650DualSocket());
  auto kWorker = worker.load(asmText, "microkernel");
  KernelRequest otherSocket = request;
  otherSocket.core = 7;
  for (int i = 0; i < 8; ++i) {  // warm both sockets up
    worker.invoke(*kWorker, request);
    worker.invoke(*kWorker, otherSocket);
  }
  worker.reset();
  EXPECT_EQ(worker.replayedInvokes(), 0u);
  // reset() empties the machine in place; it must equal a freshly built one.
  sim::MemorySystem machine(sim::nehalemX5650DualSocket());
  EXPECT_EQ(worker.clock(), 0u);
  EXPECT_EQ(worker.memory().stateFingerprint(0), machine.stateFingerprint(0));
  EXPECT_EQ(worker.memory().referenceFingerprint(0),
            machine.referenceFingerprint(0));
  for (sim::MemLevel level : {sim::MemLevel::L1, sim::MemLevel::L2,
                              sim::MemLevel::L3, sim::MemLevel::Ram}) {
    EXPECT_EQ(worker.memory().levelCount(level), 0u);
  }
  EXPECT_EQ(worker.memory().prefetchCount(), 0u);
  // A reset worker is indistinguishable from a brand-new backend: the first
  // invokes replay the cold-machine transient, not the memoized warm state.
  std::vector<InvokeResult> after;
  for (int i = 0; i < 4; ++i) after.push_back(worker.invoke(*kWorker, request));
  expectBitIdentical(after, cold);
}

TEST(SimBackendReset, SetMachineInvalidatesMemo) {
  std::string asmText = generate(figure6Xml(1, 1, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);
  sim::MachineConfig machine = sim::nehalemX5650DualSocket();

  SimBackend backend(machine);
  auto kernel = backend.load(asmText, "microkernel");
  for (int i = 0; i < 8; ++i) backend.invoke(*kernel, request);
  backend.setMachine(machine);  // same config, still a full cold reset
  EXPECT_EQ(backend.replayedInvokes(), 0u);

  SimBackend fresh(machine);
  auto kFresh = fresh.load(asmText, "microkernel");
  EXPECT_EQ(backend.invoke(*kernel, request).tscCycles,
            fresh.invoke(*kFresh, request).tscCycles);
}

}  // namespace
}  // namespace microtools::launcher
