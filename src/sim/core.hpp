#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "sim/arch.hpp"
#include "sim/memsys.hpp"

namespace microtools::sim {

/// Knobs of the steady-state loop extrapolation (DESIGN.md "Steady-state
/// model"). Off by default: only the single-core launcher path opts in,
/// because lockstep multi-core runs share one MemorySystem and must tick
/// every cycle.
struct SteadyStateOptions {
  bool enabled = false;

  /// Same-phase loop-boundary confirmations required before the per-period
  /// state delta counts as established.
  int confirmPeriods = 6;

  /// Smallest number of iterations worth skipping; below this the loop is
  /// nearly done and detection shuts off to keep the hot path clean.
  std::uint64_t minSkipIterations = 64;

  /// Budget for the L1-residency precheck of the skipped address stream;
  /// exceeding it bails (never extrapolates) rather than scanning forever.
  std::uint64_t maxPrecheckLines = 1ull << 22;
};

/// Outcome of one simulated kernel invocation.
struct RunResult {
  std::uint64_t coreCycles = 0;    ///< wall time in core-clock cycles
  std::uint64_t instructions = 0;  ///< dynamic instruction count
  std::uint64_t uops = 0;          ///< dynamic uop count
  std::uint64_t iterations = 0;    ///< %eax at ret (§4.4 contract)
  double tscCycles = 0.0;          ///< invariant-TSC cycles (what rdtsc sees)

  /// Audit trail of the steady-state extrapolation: 0 when every iteration
  /// was cycle-simulated; otherwise the loop iteration at which the
  /// simulator proved periodicity and analytically skipped
  /// `extrapolatedIterations` iterations (the tail after the skip is again
  /// cycle-simulated).
  std::uint64_t extrapolatedFrom = 0;
  std::uint64_t extrapolatedIterations = 0;

  /// Estimated energy of the run (§7's "power utilization" output):
  /// dynamic uop + cache/DRAM access energies plus static leakage over the
  /// run's cycles, per the machine's energy parameters.
  double energyPj = 0.0;

  /// Average power over the run in watts (0 for an empty run).
  double averageWatts(const MachineConfig& config) const {
    if (coreCycles == 0) return 0.0;
    double seconds = static_cast<double>(coreCycles) /
                     (config.coreGHz * 1e9);
    return energyPj * 1e-12 / seconds;
  }
};

/// Simplified out-of-order core in the spirit of Nehalem: in-order dispatch
/// of up to issueWidth uops/cycle into a ROB window, dataflow issue to typed
/// execution ports, a fill-buffer cap on outstanding misses (MLP), in-order
/// retirement, predicted-taken loop branches, 4 KiB store/load aliasing
/// penalties, and a one-time mispredict bubble at loop exit.
///
/// Instructions are executed *functionally at dispatch* (register values,
/// addresses and branch directions are architecturally exact) while timing is
/// resolved through the dependency graph — the same decoupling llvm-mca
/// uses, plus real cache state from the shared MemorySystem.
///
/// Loaded data values are not tracked (they never influence control flow in
/// MicroCreator kernels); a GPR load produces zero. This is the one
/// documented functional approximation.
class CoreSim {
 public:
  CoreSim(const MachineConfig& config, MemorySystem& memsys, int coreId);

  /// Prepares execution of `program` with arguments (n, arrays...) per the
  /// SysV ABI. `startCycle` is the global cycle at which the call begins.
  void start(const asmparse::Program& program, int n,
             const std::vector<std::uint64_t>& arrayAddrs,
             std::uint64_t startCycle);

  bool finished() const { return finished_; }

  /// Advances the core by one cycle (retire, issue, dispatch).
  void tick(std::uint64_t cycle);

  /// Earliest future cycle at which tick() can make progress; used for
  /// fast-forwarding. Always > the cycle passed to the last tick().
  std::uint64_t nextEvent() const { return nextEvent_; }

  /// Valid once finished().
  RunResult result() const;

  /// Convenience: runs to completion on a private clock; returns the result.
  RunResult run(const asmparse::Program& program, int n,
                const std::vector<std::uint64_t>& arrayAddrs,
                std::uint64_t startCycle = 0);

  int coreId() const { return coreId_; }

  /// Optional pipeline trace: when set, one line per uop issue/retire event
  /// is written to the stream (debugging aid, also exercised by tests).
  void setTrace(std::FILE* stream) { trace_ = stream; }

  /// Enables/configures steady-state loop extrapolation for subsequent
  /// runs. Takes effect at the next start().
  void setSteadyState(const SteadyStateOptions& opts) { ss_ = opts; }

 private:
  // Register-file ids are isa::RegSet slots: 0-15 GPR, 16-31 XMM, 32 flags.
  struct Uop {
    isa::ExecUnit unit = isa::ExecUnit::Alu;
    int dst = -1;
    std::array<int, 4> deps{};  // producer uop global ids; -1 = none
    int depCount = 0;
    int latency = 1;
    bool isMem = false;
    std::uint8_t occupancy = 1;  // cycles the uop holds its port
    std::uint64_t addr = 0;
    int bytes = 0;
    bool issued = false;
    std::uint64_t completeCycle = 0;  // valid when issued
  };

  struct RecentStore {
    std::uint64_t addr = 0;
    std::uint64_t cycle = 0;
  };

  // -- pipeline stages -------------------------------------------------------
  void retire(std::uint64_t cycle);
  void issue(std::uint64_t cycle);
  void dispatch(std::uint64_t cycle);
  void computeNextEvent(std::uint64_t cycle, bool progressed);

  bool depsReady(const Uop& uop, std::uint64_t cycle) const;
  bool tryIssueOne(Uop& uop, std::uint64_t globalId, std::uint64_t cycle);

  // -- functional execution --------------------------------------------------
  std::int64_t readGpr(const isa::PhysReg& reg) const;
  void writeGpr(const isa::PhysReg& reg, std::int64_t value);
  std::uint64_t effectiveAddress(const asmparse::DecodedMem& mem) const;
  std::int64_t operandValue(const asmparse::DecodedOperand& op) const;
  void executeFunctional(const asmparse::DecodedInsn& insn, bool& branchTaken);
  bool evaluateCondition(isa::Condition cond) const;

  // -- dispatch helpers ------------------------------------------------------
  void addDep(Uop& uop, int reg) const;
  void noteWrite(int reg, std::uint64_t producerId);
  std::uint64_t pushUop(Uop uop);

  // -- steady-state extrapolation (see DESIGN.md) ----------------------------
  /// One loop-boundary snapshot, taken right after a backward-taken branch
  /// dispatches. Slots are grouped by the invariant they must satisfy for
  /// the loop to count as steady:
  ///  - shape:  equal at lag p (ROB structure, pc, non-L1 counters),
  ///  - arch:   constant first difference at lag 1 (registers, flags,
  ///            retired-work counters — the slots the exit solve reads),
  ///  - timing: constant first difference at lag p (cycle clock, port and
  ///            fill-buffer busy times, ROB addresses/completions, the
  ///            recent-store ring, whose natural period is 16/stores-per-
  ///            iteration rather than 1).
  struct SsBoundary {
    std::vector<std::uint64_t> shape;
    std::vector<std::uint64_t> arch;
    std::vector<std::uint64_t> timing;
  };
  struct SsMemOp {
    std::size_t pc = 0;
    std::uint64_t addr = 0;    // address at the first post-boundary iteration
    std::int64_t stride = 0;   // per-iteration address delta
    int bytes = 0;
    bool isStore = false;
  };
  /// One recorded L1 access (issue order), for LRU replay of skipped
  /// iterations: the skipped accesses can never miss, but the order in
  /// which they refresh recency determines the final LRU state.
  struct SsAccess {
    std::uint64_t addr = 0;
    int bytes = 0;
  };

  void ssOnBoundary(std::uint64_t cycle);
  SsBoundary ssCapture(std::uint64_t cycle);
  template <typename Fn>
  void ssVisitArch(Fn&& fn);
  template <typename Fn>
  void ssVisitTiming(Fn&& fn);
  bool ssConfirm(int period) const;
  void ssTryExtrapolate(std::uint64_t cycle, int period);
  bool ssCollectMemOps(std::vector<SsMemOp>& ops);
  bool ssCheckAliasing(const std::vector<SsMemOp>& ops,
                       std::uint64_t perIterCycles, std::uint64_t now,
                       std::uint64_t windowCycles) const;
  bool ssPrecheckL1(const std::vector<SsMemOp>& ops,
                    std::uint64_t skip) const;

  SteadyStateOptions ss_;
  bool ssDisabled_ = false;
  std::deque<SsBoundary> ssHistory_;
  /// Issue-order access log, one window per captured boundary, aligned
  /// with ssHistory_. Recording starts one boundary before capture does,
  /// so every logged window is complete.
  bool ssRecording_ = false;
  std::vector<SsAccess> ssCurWindow_;
  std::deque<std::vector<SsAccess>> ssAccessLog_;
  std::size_t ssBranchPc_ = ~std::size_t{0};
  std::size_t ssTargetPc_ = ~std::size_t{0};
  std::uint64_t ssIterations_ = 0;  // backward-taken branches seen this run
  std::uint64_t ssLevelMark_[5] = {0, 0, 0, 0, 0};
  int ssCleanStreak_ = 0;  // consecutive all-L1 boundaries
  bool ssBoundaryPending_ = false;
  std::uint64_t extrapolatedFrom_ = 0;
  std::uint64_t extrapolatedIterations_ = 0;

  const MachineConfig& config_;
  MemorySystem& memsys_;
  int coreId_;

  const asmparse::Program* program_ = nullptr;
  std::size_t pc_ = 0;

  // Architectural state (exact at the dispatch frontier).
  std::array<std::int64_t, 16> gprs_{};
  std::int64_t flagsResult_ = 0;     // signed wide result of last flag setter
  std::uint64_t flagsA_ = 0;         // unsigned dst operand (for jb/ja)
  std::uint64_t flagsB_ = 0;         // unsigned src operand

  // Timing state.
  std::deque<Uop> rob_;
  std::uint64_t headId_ = 0;                 // global id of rob_.front()
  std::array<std::int64_t, isa::RegSet::kSlots> lastWriter_{};  // -1 = none
  std::vector<std::uint64_t> portFree_[isa::kExecUnitCount];  // per unit
  std::vector<std::uint64_t> fillBufferFree_;
  std::array<RecentStore, 16> recentStores_{};
  std::size_t recentStoreNext_ = 0;
  std::uint64_t dispatchStallUntil_ = 0;
  bool doneDispatching_ = false;
  bool finished_ = false;
  std::uint64_t startCycle_ = 0;
  std::uint64_t endCycle_ = 0;
  std::uint64_t lastCompletion_ = 0;
  std::uint64_t nextEvent_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t uopCount_ = 0;
  std::uint64_t levelAccesses_[5] = {0, 0, 0, 0, 0};  // indexed by MemLevel
  std::FILE* trace_ = nullptr;
};

}  // namespace microtools::sim
