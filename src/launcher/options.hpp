#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "launcher/backend.hpp"
#include "launcher/protocol.hpp"
#include "support/cli.hpp"

namespace microtools::launcher {

/// The launcher's full option surface (§4.2: "more than thirty options in
/// the MicroLauncher tool for behavior tweaking").
struct LauncherOptions {
  // -- input -----------------------------------------------------------------
  std::string inputFile;             ///< assembly/C/shared-object kernel
  std::string inputKind = "auto";    ///< auto|asm|c|so|exec (§4.1)
  std::string function = "microkernel";  ///< kernel entry point
  std::string standaloneProgram;     ///< fork-and-time a whole program

  // -- arrays (--nbvectors & friends, §4.4) -----------------------------------
  int nbVectors = 1;
  std::uint64_t arrayBytes = 1 << 20;
  std::vector<std::uint64_t> arrayBytesPerVector;  ///< overrides per array
  std::uint64_t alignment = 4096;
  std::uint64_t alignOffset = 0;
  std::uint64_t elementBytes = 4;  ///< element size (4 = float, 8 = double)

  // -- alignment sweep ---------------------------------------------------------
  bool sweepAlignment = false;
  std::uint64_t alignMin = 0;
  std::uint64_t alignMax = 4096;
  std::uint64_t alignStep = 64;
  std::uint64_t maxAlignConfigs = 2500;

  // -- protocol ---------------------------------------------------------------
  std::optional<int> tripCount;  ///< kernel n; default from array size
  int innerRepetitions = 8;
  int outerRepetitions = 10;
  bool noWarmup = false;
  bool noOverheadSubtraction = false;
  bool reportFullKernelTime = false;  ///< §4.3 "full kernel execution" option

  // -- placement ----------------------------------------------------------------
  int pinCore = 0;
  int processes = 1;            ///< fork mode core count (§4.6)
  std::string pinPolicy = "scatter";  ///< scatter|compact
  int forkCalls = 4;

  // -- OpenMP -------------------------------------------------------------------
  bool useOpenMp = false;
  int threads = 4;
  int ompRepetitions = 10;

  // -- campaign mode ------------------------------------------------------------
  std::string campaignDir;     ///< directory of .s/.c variants; "" = off
  int jobs = 1;                ///< campaign worker threads
  double maxCv = 0.05;         ///< adaptive repetition CV target
  int maxRepetitions = 40;     ///< total outer-repetition budget per variant
  int variantTimeoutMs = 0;    ///< per-variant wall-clock budget (0 = none)
  int compileJobs = 0;         ///< compile-stage threads (0 = compile inline)
  int compileBatch = 8;        ///< variants per batched compiler invocation
  std::string compileCacheDir; ///< persistent .so cache ("" = no cache)
  std::string verifyMode = "strict";  ///< pre-flight check: off|warn|strict
  std::string searchMode = "full";    ///< variant walk: full|halving
  std::string budget;          ///< halving budget: "<seconds>s" or variants
  int screenRepetitions = 1;   ///< halving round-0 screening outer reps
  int stableScreenRepetitions = 1;  ///< screening reps for provably-stable
                                    ///< variants (--stable-screen-reps)
  bool predict = true;         ///< static cost-model annotation/ordering
  std::string connectAddr;     ///< serve daemon address ("" = standalone)
  std::string workerName;      ///< telemetry name at the daemon ("": pid)

  // -- backend / machine ---------------------------------------------------------
  std::string backend = "sim";   ///< sim|native
  bool perfCounters = true;  ///< perf_event counter groups (native backend)
  std::string arch = "nehalem_x5650_2s";
  std::optional<double> coreGHz;  ///< DVFS override (Figure 13)

  // -- output -------------------------------------------------------------------
  std::string csvOutput;  ///< path; empty = stdout
  bool verbose = false;
  bool listArch = false;

  /// Derives the trip count: explicit --n, else elements that fit the first
  /// array at --element-bytes per element (default 4, the movss convention;
  /// 8 for double-precision kernels).
  int effectiveTripCount() const;

  /// Builds the KernelRequest implied by these options.
  KernelRequest toRequest() const;

  /// Protocol options implied by these options.
  ProtocolOptions toProtocol() const;
};

/// Registers every option on a CLI parser (also serves as the --help page).
cli::Parser makeLauncherParser();

/// Extracts LauncherOptions from a parsed command line; throws ParseError
/// on invalid combinations.
LauncherOptions optionsFromParser(const cli::Parser& parser);

}  // namespace microtools::launcher
