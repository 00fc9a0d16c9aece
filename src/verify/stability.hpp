#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "asmparse/asmparse.hpp"
#include "verify/costmodel.hpp"

namespace microtools::verify {

/// Launch-geometry facts the static analysis cannot read off the assembly.
struct StabilityOptions {
  /// Total bytes of the arrays the kernel traverses per call (sum over the
  /// launch context). 0: unknown -- the footprint criterion then fails,
  /// because a kernel that may stream past L1 is not provably stable.
  std::uint64_t footprintBytes = 0;
};

/// muOpTime-style static stability verdict: three independent criteria
/// that together predict low run-to-run variance, so a planner can screen
/// the variant with fewer repetitions without changing its verdict.
struct StabilityReport {
  /// Exactly one single-block counted loop: constant-delta induction, no
  /// unanalyzed branches, and the trip test reads the post-update value.
  bool regularLoop = false;

  /// The traversed working set provably fits in L1, so per-iteration
  /// memory time does not depend on what earlier repetitions left cached.
  bool fitsL1 = false;

  /// No load micro-op on a loop-carried dependence cycle: the recurrence
  /// length is fixed by core latencies, not by where the data lives.
  bool steadyDependences = false;

  double score() const {
    return (static_cast<int>(regularLoop) + static_cast<int>(fitsL1) +
            static_cast<int>(steadyDependences)) /
           3.0;
  }
  bool stable() const { return regularLoop && fitsL1 && steadyDependences; }
};

/// Scores `program` against the three criteria. `prediction` must come
/// from predictProgram/predictAssembly on the same program (an invalid
/// prediction fails every criterion that depends on the dependence graph).
StabilityReport analyzeStability(const asmparse::Program& program,
                                 const sim::MachineConfig& machine,
                                 const CyclePrediction& prediction,
                                 const StabilityOptions& options);

/// Parse-and-score convenience; parse failures score zero.
StabilityReport analyzeStability(std::string_view asmText,
                                 const sim::MachineConfig& machine,
                                 const StabilityOptions& options);

}  // namespace microtools::verify
