#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "asmparse/program_cache.hpp"
#include "launcher/backend.hpp"
#include "sim/machine.hpp"
#include "sim/memsys.hpp"

namespace microtools::launcher {

/// Performance knobs of the simulated backend. Both default on; the
/// `--sim-exact` escape hatch turns them off to force full cycle-by-cycle
/// simulation of every invoke. Results are bit-identical either way — the
/// options only trade simulation time (see DESIGN.md "Steady-state model").
struct SimBackendOptions {
  /// In-loop steady-state extrapolation inside CoreSim.
  bool steadyState = true;

  /// Warm-invoke memoization: every simulated invoke is recorded together
  /// with the machine state it changed; an identical invoke starting from a
  /// fingerprint-equal machine state replays the recorded result and writes
  /// that change back instead of re-simulating.
  bool memoize = true;
};

/// Simulator-backed execution: kernels run on the micro-architecture model
/// of `src/sim`, against one persistent MemorySystem whose clock only moves
/// forward — so the warm-up + repetition protocol behaves exactly like on
/// hardware (first call cold, later calls warm).
class SimBackend final : public Backend {
 public:
  explicit SimBackend(sim::MachineConfig config,
                      SimBackendOptions options = {});

  std::string name() const override { return "sim:" + config_.name; }

  const sim::MachineConfig& machine() const { return config_; }

  /// Re-parameterizes the simulated machine (e.g. the frequency sweep of
  /// Figure 13). Resets all warm state, including memoized results.
  void setMachine(sim::MachineConfig config);

  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& functionName) override;
  using Backend::load;

  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override;

  double timerOverheadCycles() const override { return kTimerOverhead; }

  std::vector<InvokeResult> invokeFork(KernelHandle& kernel,
                                       const KernelRequest& request,
                                       int processes, int calls,
                                       PinPolicy policy) override;

  InvokeResult invokeOpenMp(KernelHandle& kernel,
                            const KernelRequest& request, int threads,
                            int repetitions) override;

  void reset() override;

  /// Access to the shared memory system (tests and cache-statistics
  /// benches).
  sim::MemorySystem& memory() { return memsys_; }

  /// Simulated core cycle the next invoke starts at.
  std::uint64_t clock() const { return clock_; }

  /// Number of invokes served from the warm-invoke memo since construction
  /// or the last reset()/setMachine() (observability for tests and bench).
  std::uint64_t replayedInvokes() const { return replayedInvokes_; }

  /// Simulated cost constants, exposed for tests of the protocol's
  /// overhead subtraction.
  static constexpr double kCallOverhead = 40.0;   // call/ret + launcher glue
  static constexpr double kTimerOverhead = 24.0;  // rdtsc read-read

 private:
  struct SimKernel final : public KernelHandle {
    std::shared_ptr<const asmparse::Program> program;
    std::uint64_t contentId = 0;  // ProgramCache content hash
  };

  /// One memoized invoke, keyed by (program content, request, pre-state
  /// fingerprint). Because simulation is deterministic and translation-
  /// invariant, hitting the same key from a fingerprint-equal machine
  /// state must reproduce this result bit for bit — so replay returns
  /// `result` and applies the recorded post-state delta, shifted forward
  /// by the elapsed clock difference. Warm protocols commonly settle into
  /// short state cycles (period 1 or 2), so a small table rather than a
  /// single slot.
  struct MemoEntry {
    std::uint64_t coreCycles = 0;
    std::uint64_t preClock = 0;     // clock_ when the invoke started
    std::uint64_t levelDeltas[5] = {0, 0, 0, 0, 0};  // statistics it added
    std::uint64_t prefetchDelta = 0;
    std::uint64_t postStateKey = 0;  // fingerprint after the run, at its clock
    sim::MemorySystem::Delta postState;  // what the run changed
    InvokeResult result;
  };

  /// Validates origin and downcasts without RTTI (the handle was created by
  /// this backend's load(), so it is a SimKernel by construction).
  SimKernel& checkedHandle(KernelHandle& kernel) const;

  /// Lays out the request's arrays in the simulated address space (stable
  /// per (arrays, process) so repeated invocations hit the same addresses).
  std::vector<std::uint64_t> planAddresses(const KernelRequest& request,
                                           int processIndex);

  std::uint64_t invokeKey(const SimKernel& handle,
                          const KernelRequest& request) const;
  std::uint64_t stateKey();

  sim::MachineConfig config_;
  SimBackendOptions options_;
  sim::MemorySystem memsys_;
  std::uint64_t clock_ = 0;

  /// hash(invoke key, pre-state fingerprint) -> recorded invoke. Bounded:
  /// warm protocols need only transient + cycle length entries (a handful);
  /// the cap just guards against adversarial request streams filling RAM
  /// with state deltas.
  static constexpr std::size_t kMaxMemoEntries = 32;
  std::map<std::uint64_t, MemoEntry> memo_;
  /// Cached memsys fingerprint at clock_; reset whenever simulation mutates
  /// the machine, set to the recorded post fingerprint on replays (which
  /// restore a recorded state whose fingerprint is known).
  std::optional<std::uint64_t> stateKeyCache_;
  /// Fork and OpenMP runs use fresh runners — pure functions of
  /// (config, program, request) — so their memo needs no fingerprint.
  std::map<std::uint64_t, std::vector<InvokeResult>> forkMemo_;
  std::map<std::uint64_t, InvokeResult> ompMemo_;
  std::uint64_t replayedInvokes_ = 0;
};

}  // namespace microtools::launcher
