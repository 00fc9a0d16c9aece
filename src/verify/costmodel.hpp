#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "verify/cfg.hpp"

namespace microtools::sim {
struct MachineConfig;
}

namespace microtools::verify {

/// Summed micro-op occupancy of one loop iteration on one port pool.
/// bound() is the pool's contribution to the throughput lower bound:
/// occupancy divided by the number of ports serving the pool.
struct PortPressure {
  std::string unit;       ///< isa::execUnitName: "load", "fp-div", ...
  double occupancy = 0.0; ///< port-cycles demanded per iteration
  int ports = 1;

  double bound() const {
    return ports > 0 ? occupancy / ports : occupancy;
  }
};

/// Static cycles/iteration lower bound for one single-block loop, priced
/// against a sim::MachineConfig from the same instruction recipes
/// (asmparse::UopRecipe) the simulator dispatches.
///
/// Three independent bounds, each sound against the simulator's exact
/// core model on L1-resident streaming kernels (cache misses, aliasing
/// stalls, and mispredict bubbles only add cycles on top):
///   - frontendBound: dispatch cycles per iteration (greedy issue-width
///     packing; a taken backward branch ends its dispatch cycle, so
///     iterations never share one),
///   - throughputBound: max over port pools of occupancy / ports
///     (the LP relaxation of port binding; the divider is its own pool),
///   - latencyBound: maximum dependence-cycle mean over the loop-carried
///     def-use graph (the classic recurrence-constrained MII), including
///     load-feeds-address chains at L1-hit load latency.
/// The predicted interval is [cyclesLowerBound(), +inf).
struct CyclePrediction {
  bool valid = false;        ///< false: unsupported loop shape
  std::size_t headIndex = 0;
  std::size_t branchIndex = 0;
  std::size_t headLine = 0;  ///< 1-based source line of the loop head

  double frontendBound = 0.0;
  double throughputBound = 0.0;
  double latencyBound = 0.0;
  std::vector<PortPressure> pressure;

  /// Micro-ops dispatched per iteration.
  std::size_t uops = 0;

  /// Which bound is binding: "frontend", "latency", or a port pool name.
  std::string binding;

  /// A load micro-op sits on a loop-carried dependence cycle (pointer
  /// chase / load-feeds-address): the recurrence length then depends on
  /// where the data lives, not just on core latencies.
  bool loadCarried = false;

  /// Why the prediction is invalid.
  std::vector<std::string> warnings;

  double cyclesLowerBound() const;
};

/// Whole-program prediction: valid only when the program has exactly one
/// recognized single-block loop and no unanalyzed branches (the shape every
/// MicroCreator kernel has).
CyclePrediction predictProgram(const asmparse::Program& program,
                               const sim::MachineConfig& machine);

/// Parses and predicts; parse failures come back as an invalid prediction
/// with a warning rather than an exception.
CyclePrediction predictAssembly(std::string_view asmText,
                                const sim::MachineConfig& machine);

}  // namespace microtools::verify
