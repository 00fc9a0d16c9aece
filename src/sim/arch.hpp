#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instructions.hpp"

namespace microtools::sim {

/// One private cache level (L1 or L2): latency is expressed in *core* clock
/// cycles because these structures run in the core clock domain — the
/// property Figure 13 of the paper demonstrates (L1/L2 timings scale with
/// core frequency, L3/RAM do not).
struct PrivateCacheConfig {
  std::string name;
  std::uint64_t sizeBytes = 0;
  int ways = 8;
  int latencyCycles = 4;  // load-to-use in core cycles
};

/// The shared last-level cache: latency in nanoseconds (uncore domain).
struct SharedCacheConfig {
  std::string name = "L3";
  std::uint64_t sizeBytes = 0;
  int ways = 16;
  double latencyNs = 15.0;
};

/// Complete machine description used by the simulator, the static cost
/// model and the launcher's architecture registry (Table 1 of the paper).
struct MachineConfig {
  std::string name;

  // -- topology -------------------------------------------------------------
  int sockets = 1;
  int coresPerSocket = 4;

  // -- clock domains ----------------------------------------------------------
  double nominalGHz = 2.67;  ///< TSC / rated frequency (rdtsc is invariant)
  double coreGHz = 2.67;     ///< current core clock (DVFS, Figure 13)
  double uncoreGHz = 2.67;   ///< L3 + memory controller clock

  // -- memory hierarchy -------------------------------------------------------
  int lineBytes = 64;
  PrivateCacheConfig l1{"L1", 32 * 1024, 8, 4};
  PrivateCacheConfig l2{"L2", 256 * 1024, 8, 10};
  SharedCacheConfig l3{"L3", 12 * 1024 * 1024, 16, 15.0};
  double memLatencyNs = 60.0;       ///< DRAM load-to-use latency
  int memChannelsPerSocket = 3;
  double channelGBs = 10.6;         ///< peak bandwidth per channel
  int fillBuffers = 10;             ///< outstanding L1 misses per core (MLP)
  int prefetchDegree = 12;          ///< L2 streamer lookahead (lines)
  int prefetchTrigger = 2;          ///< consecutive ascending misses to arm
  int l2FillCycles = 7;             ///< L2->L1 line transfer occupancy
  int l3FillCycles = 8;             ///< L3->L2 line transfer occupancy (shared)

  // -- core ---------------------------------------------------------------
  int issueWidth = 4;       ///< uops dispatched per cycle
  int robSize = 128;        ///< in-flight window (Nehalem ROB)
  int rsEntries = 36;       ///< scheduler window: oldest un-issued uops
                            ///< eligible for issue each cycle
  int loadPorts = 1;
  int storePorts = 1;
  int aluPorts = 3;
  int fpAddPorts = 1;
  int fpMulPorts = 1;
  int branchPorts = 1;
  int mispredictPenalty = 15;
  int aliasing4kPenalty = 5;  ///< load vs recent-store 4 KiB aliasing stall
  int splitLinePenalty = 2;   ///< extra cycles for a line-crossing access

  // -- parallel runtime model ---------------------------------------------
  double ompForkJoinNs = 2500.0;   ///< per parallel-region constant overhead
  double ompPerThreadNs = 350.0;   ///< additional overhead per thread

  // -- energy model (the paper's "performance or power utilization", §7) ---
  // Event energies in picojoules, Nehalem-class estimates; static power per
  // core in watts. Energy per run = uops*uopPj + sum(level accesses *
  // access energy) + cycles * static energy per cycle.
  double uopEnergyPj = 25.0;
  double l1AccessPj = 12.0;
  double l2AccessPj = 40.0;
  double l3AccessPj = 150.0;
  double dramAccessPj = 2200.0;   ///< per line fetched from memory
  double staticWattsPerCore = 2.0;

  /// Static (leakage + clock tree) energy per core cycle, in picojoules:
  /// watts / (cycles/second) = joules/cycle; scaled to pJ.
  double staticEnergyPjPerCycle() const {
    return staticWattsPerCore / coreGHz * 1000.0;
  }

  int totalCores() const { return sockets * coresPerSocket; }

  /// Ports serving one execution unit (at least 1). The unpipelined
  /// divider has a pool of its own, as many ports as the FP multiplier.
  int ports(isa::ExecUnit unit) const;

  /// Core-cycle conversions.
  double coreCyclesPerNs() const { return coreGHz; }
  std::uint64_t nsToCoreCycles(double ns) const {
    return static_cast<std::uint64_t>(ns * coreGHz + 0.5);
  }

  /// Converts a core-cycle count to invariant-TSC cycles (what rdtsc-based
  /// MicroLauncher reports; §4.2 and Figure 13).
  double coreCyclesToTsc(double coreCycles) const {
    return coreCycles * (nominalGHz / coreGHz);
  }

  /// Channel occupancy per cache line, in core cycles.
  std::uint64_t channelOccupancyCycles() const {
    double ns = static_cast<double>(lineBytes) / channelGBs;
    return nsToCoreCycles(ns);
  }
};

/// The three machines of Table 1.
MachineConfig sandyBridgeE31240();
MachineConfig nehalemX5650DualSocket();
MachineConfig nehalemX7550QuadSocket();

/// Looks up a machine by registry name ("sandy_bridge_e31240",
/// "nehalem_x5650_2s", "nehalem_x7550_4s"); throws McError when unknown.
MachineConfig machineByName(const std::string& name);

/// Names of all registered machines.
std::vector<std::string> machineNames();

}  // namespace microtools::sim
