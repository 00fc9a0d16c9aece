#pragma once

#include <memory>
#include <string>
#include <vector>

#include "launcher/backend.hpp"
#include "launcher/protocol.hpp"
#include "support/csv.hpp"

namespace microtools::launcher {

/// Specification of an array-alignment sweep (§5.2.2: "MicroLauncher tests
/// a variety of alignment settings for each allocated array").
struct AlignmentSweepSpec {
  std::uint64_t minOffset = 0;
  std::uint64_t maxOffset = 4096;  ///< exclusive
  std::uint64_t step = 64;
  std::size_t maxConfigs = 2500;   ///< the paper tests "upwards of 2500"
};

/// One point of an alignment sweep.
struct AlignmentSample {
  std::vector<std::uint64_t> offsets;  ///< per-array byte offsets
  Measurement measurement;
};

/// Enumerates per-array offset tuples for a sweep. When the full cartesian
/// product exceeds maxConfigs the space is sampled deterministically and
/// uniformly (stride-decoded mixed-radix walk), so every array's offset
/// varies across the returned configurations.
std::vector<std::vector<std::uint64_t>> alignmentConfigurations(
    std::size_t arrayCount, const AlignmentSweepSpec& spec);

/// The request each sweep configuration runs: `request` with the
/// configuration's offsets applied to its arrays.
std::vector<KernelRequest> alignmentRequests(const KernelRequest& request,
                                             const AlignmentSweepSpec& spec);

/// MicroLauncher facade: "executes a benchmark program in a contained and
/// controlled environment" (§4). Owns a backend and exposes the study types
/// the paper's evaluation uses: single measurements, alignment sweeps,
/// fork-based multi-core runs and OpenMP runs, all reporting
/// cycles-per-iteration CSV rows (§4.3).
class MicroLauncher {
 public:
  explicit MicroLauncher(std::unique_ptr<Backend> backend);

  Backend& backend() { return *backend_; }

  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& functionName);
  std::unique_ptr<KernelHandle> load(const creator::GeneratedProgram& p);

  /// Single-kernel measurement with the Figure-10 protocol.
  Measurement measure(KernelHandle& kernel, const KernelRequest& request,
                      const ProtocolOptions& options = {});

  /// Alignment sweep: measures every configuration of alignmentRequests().
  std::vector<AlignmentSample> alignmentSweep(
      KernelHandle& kernel, const KernelRequest& request,
      const AlignmentSweepSpec& spec, const ProtocolOptions& options = {});

  /// Fork mode (§4.6): per-process aggregate results.
  std::vector<InvokeResult> fork(KernelHandle& kernel,
                                 const KernelRequest& request, int processes,
                                 int calls, PinPolicy policy);

  /// OpenMP mode (§5.2.3).
  InvokeResult openmp(KernelHandle& kernel, const KernelRequest& request,
                      int threads, int repetitions);

  /// Renders measurements into the launcher's CSV output format (§4.3):
  /// one row per configuration with min/mean/median/max cycles/iteration.
  static csv::Table toCsv(
      const std::vector<std::pair<std::string, Measurement>>& rows);

 private:
  std::unique_ptr<Backend> backend_;
};

}  // namespace microtools::launcher
