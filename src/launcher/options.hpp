#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "launcher/explore.hpp"
#include "support/cli.hpp"

namespace microtools::launcher {

// ---------------------------------------------------------------------------
// The option surface microlauncher and microtools explore share
// ---------------------------------------------------------------------------

/// Registers the array-shape flags: --nbvectors and --array-bytes. The
/// --nbvectors default is the one that differs per tool: microlauncher
/// passes 1, while explore, lint and analyze pass 0 (as many arrays as the
/// generated programs use).
void addArrayShapeFlags(cli::Parser& parser, int defaultNbVectors);

/// Registers the array-geometry flags: the array shape plus --alignment,
/// --align-offset, --element-bytes and --n.
void addGeometryFlags(cli::Parser& parser, int defaultNbVectors);

/// Registers every flag microlauncher and microtools explore share: the
/// geometry flags plus backend, arch and frequency, protocol, adaptive
/// repetition and timeout, compile stage, verify, search, budget and
/// screening repetitions, prediction, --connect, counters, --jobs, --csv,
/// --verbose and --input, whose help (`inputHelp`) is per tool.
void addExploreFlags(cli::Parser& parser, int defaultNbVectors,
                     const std::string& inputHelp);

/// Reads the array-shape flags into `options`; throws ParseError on an
/// --nbvectors outside 0..5 or a negative --array-bytes.
void arrayShapeFromParser(const cli::Parser& parser, ExploreOptions& options);

/// Reads the geometry flags into `options`; throws ParseError on an invalid
/// array shape, a negative alignment or offset, or --element-bytes 0.
void geometryFromParser(const cli::Parser& parser, ExploreOptions& options);

/// Reads, validates and applies every flag addExploreFlags registered,
/// except --input, whose meaning is per tool. Throws ParseError on any
/// invalid value; --verbose turns on info logging.
ExploreOptions exploreOptionsFromParser(const cli::Parser& parser);

// ---------------------------------------------------------------------------
// microlauncher
// ---------------------------------------------------------------------------

/// The launcher's full option surface (§4.2: "more than thirty options in
/// the MicroLauncher tool for behavior tweaking"): the flags it shares with
/// explore, parsed into `explore`, plus its own.
struct LauncherOptions {
  ExploreOptions explore;  ///< the shared flags

  // -- input (§4.1) ----------------------------------------------------------
  std::string inputFile;             ///< --input: assembly/C/.so kernel
  std::string inputKind = "auto";    ///< auto|asm|c|so|exec
  std::string function = "microkernel";  ///< kernel entry point
  std::string standaloneProgram;     ///< fork-and-time a whole program

  // -- arrays (§4.4) ----------------------------------------------------------
  std::vector<std::uint64_t> arrayBytesPerVector;  ///< overrides per array

  // -- alignment sweep --------------------------------------------------------
  bool sweepAlignment = false;
  std::uint64_t alignMin = 0;
  std::uint64_t alignMax = 4096;
  std::uint64_t alignStep = 64;
  std::uint64_t maxAlignConfigs = 2500;

  // -- output and placement ---------------------------------------------------
  bool reportFullKernelTime = false;  ///< §4.3 "full kernel execution" option
  int pinCore = 0;
  int processes = 1;            ///< fork mode core count (§4.6)
  std::string pinPolicy = "scatter";  ///< scatter|compact
  int forkCalls = 4;

  // -- OpenMP -----------------------------------------------------------------
  bool useOpenMp = false;
  int threads = 4;
  int ompRepetitions = 10;

  std::string campaignDir;  ///< directory of .s/.c variants; "" = off
  bool listArch = false;

  /// The request for one kernel: the shared geometry with the per-array
  /// --array-bytes-n overrides, pinned to --pin.
  KernelRequest toRequest() const;
};

/// Registers every option on a CLI parser (also serves as the --help page).
cli::Parser makeLauncherParser();

/// Extracts LauncherOptions from a parsed command line; throws ParseError
/// on invalid values.
LauncherOptions optionsFromParser(const cli::Parser& parser);

}  // namespace microtools::launcher
