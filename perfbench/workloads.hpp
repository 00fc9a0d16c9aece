#pragma once

// The benchmark's four workloads. Each draws its inputs from a seed during
// set-up, runs one timed pass of the tool (the product code path, or the
// traced composition of the same public parts), and reports every measured
// configuration in a canonical form that the output checks compare.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "launcher/campaign.hpp"
#include "trace.hpp"

namespace perfbench {

/// One measured configuration: one variant at one array size, or one
/// fork/OpenMP point.
struct ConfigOutcome {
  std::string id;         ///< "16384:loadstore_u3_seqLSL", "fork:6", ...
  std::string canonical;  ///< bit-exact result fields (reference compare)
  bool ok = true;         ///< status ok and the workload's own checks held
  std::string problem;    ///< why !ok
};

/// What one timed pass produced.
struct Outcome {
  std::vector<ConfigOutcome> configs;
  std::string digest;  ///< FNV-1a over every deterministic result field
  std::string report;  ///< ranked report / study table of the last pass
  /// Rows of the measured configurations (explore workloads only).
  std::vector<microtools::launcher::VariantResult> rows;
  /// native::spawnCount() delta of each explore pass.
  std::vector<std::uint64_t> passSpawns;
};

/// Reference results, computed once per seed outside the timed phase.
struct Reference {
  std::map<std::string, std::string> canonical;  ///< id -> canonical
  double wallSeconds = 0.0;  ///< memo-off run time (0: no such run)
  std::size_t setMismatches = 0;  ///< generated-set differences (native)

  void write(const std::string& path) const;
  static Reference read(const std::string& path);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Draws the inputs from the seed, writes the description and creates
  /// fresh directories under `dir` (which must not exist yet).
  virtual void setup(const std::string& dir) = 0;

  /// One timed pass over the last set-up's inputs. With a tracer, runs the
  /// traced composition; without, the product path.
  virtual Outcome run(Tracer* tracer) = 0;

  /// Computes the reference for the drawn inputs, working under `dir`.
  virtual Reference reference(const std::string& dir) = 0;

  /// Digest of the last set-up's drawn inputs: seeds that draw the same
  /// inputs share one reference.
  virtual std::string inputKey() const = 0;

  /// Threads the timed pass runs at most (main thread included).
  virtual int threads() const = 0;
};

/// Builds a workload by name; `dataDir` holds the benchmark's recorded
/// files. Throws McError on an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& dataDir);

/// The Figure-6 description's generated set as sorted "name contentId"
/// lines — what fig6_variants.txt records.
std::vector<std::string> figure6Set();

}  // namespace perfbench
