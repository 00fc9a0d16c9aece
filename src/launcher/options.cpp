#include "launcher/options.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

namespace {

/// --name as an int; ParseError when it is below `min` or does not fit.
int intFlag(const cli::Parser& parser, const std::string& name,
            int min = std::numeric_limits<int>::min()) {
  std::int64_t value = parser.getInt(name);
  if (value < min) {
    throw ParseError("--" + name + " must be >= " + std::to_string(min));
  }
  if (value > std::numeric_limits<int>::max()) {
    throw ParseError("--" + name + " is out of range");
  }
  return static_cast<int>(value);
}

/// --name as a byte count (or count); ParseError when it is negative.
std::uint64_t bytesFlag(const cli::Parser& parser, const std::string& name) {
  std::int64_t value = parser.getInt(name);
  if (value < 0) throw ParseError("--" + name + " must be >= 0");
  return static_cast<std::uint64_t>(value);
}

}  // namespace

// ---------------------------------------------------------------------------
// The shared option surface
// ---------------------------------------------------------------------------

void addArrayShapeFlags(cli::Parser& parser, int defaultNbVectors) {
  parser.addInt("nbvectors",
                defaultNbVectors > 0
                    ? "Arrays passed to the kernel (0 to 5)"
                    : "Arrays passed to the kernel, 0 to 5 (0 = as many as "
                      "the generated programs use; 5 for bare .s files)",
                defaultNbVectors);
  parser.addInt("array-bytes", "Size of each array in bytes", 1 << 20);
}

void addGeometryFlags(cli::Parser& parser, int defaultNbVectors) {
  addArrayShapeFlags(parser, defaultNbVectors);
  parser.addInt("alignment", "Array base alignment in bytes", 4096);
  parser.addInt("align-offset", "Extra offset added to each array base", 0);
  parser.addInt("element-bytes",
                "Bytes per array element (4 = float, 8 = double)", 4);
  parser.addInt("n", "Kernel trip count (default: first array's elements)");
}

void addExploreFlags(cli::Parser& parser, int defaultNbVectors,
                     const std::string& inputHelp) {
  parser.addString("input", inputHelp);
  parser.addString("backend", "Execution backend: sim|native", "sim");
  parser.addString("arch", "Simulated machine (see microlauncher --list-arch)",
                   "nehalem_x5650_2s");
  parser.addDouble("core-ghz", "Override the core frequency (DVFS study)");
  parser.addFlag("no-perf-counters",
                 "Do not open perf_event counter groups around native "
                 "kernel calls (rdtsc timing only; counter-derived CSV "
                 "columns stay empty)");
  addGeometryFlags(parser, defaultNbVectors);
  parser.addInt("inner", "Inner repetitions per timed experiment", 8);
  parser.addInt("outer", "Outer (stability) repetitions", 10);
  parser.addFlag("no-warmup", "Skip the cache warm-up call");
  parser.addFlag("no-overhead", "Do not subtract timer overhead");
  parser.addInt("jobs", "Campaign: parallel worker threads", 1);
  parser.addDouble("max-cv",
                   "Campaign: re-run a variant while its cycles/iteration CV "
                   "exceeds this (0 disables)",
                   0.05);
  parser.addInt("max-repetitions",
                "Campaign: total outer-repetition budget per variant", 40);
  parser.addInt("variant-timeout-ms",
                "Campaign: per-variant wall-clock budget (0 = none)", 0);
  parser.addInt("compile-jobs",
                "Campaign: compile-stage threads that batch-compile "
                "variants ahead of the measurement workers, with or without "
                "--stream (native backend; 0 = compile inline)",
                0);
  parser.addInt("compile-batch",
                "Campaign: variants grouped into one compiler invocation", 8);
  parser.addString("compile-cache-dir",
                   "Content-addressed cache of compiled .so artifacts "
                   "(native backend; default: none for microlauncher, "
                   "<--cache>/so for explore unless --no-cache)");
  parser.addString("verify",
                   "Campaign: static pre-flight verification of assembly "
                   "variants — strict skips variants with error-level "
                   "diagnostics (ABI clobbers, provable out-of-bounds) "
                   "before they can crash the campaign; warn only annotates "
                   "the CSV; off disables the check",
                   "strict");
  parser.addString("search",
                   "Campaign: variant-space walk — full measures every "
                   "variant at the baseline protocol; halving screens "
                   "everything cheaply, keeps the best half per round, and "
                   "finishes the survivors at full fidelity",
                   "full");
  parser.addString("budget",
                   "Halving budget: '<seconds>s' wall-clock (e.g. 30s) or a "
                   "count of fresh variant measurements (cache hits are "
                   "free); on exhaustion the best-so-far ranking is "
                   "reported");
  parser.addInt("screen-reps",
                "Halving: outer repetitions of the round-0 screening pass",
                1);
  parser.addInt("stable-screen-reps",
                "Halving: screening repetitions for variants the static "
                "stability analysis proves tight (regular L1-resident loop, "
                "no loop-carried load); only applies when below "
                "--screen-reps",
                1);
  parser.addFlag("no-predict",
                 "Disable the static cost model: no pred_cpi_lo/pred_bound "
                 "CSV columns, no predicted screening order, no "
                 "stability-reduced screening repetitions");
  parser.addString("connect",
                   "Campaign: shard against a `microtools serve` daemon at "
                   "host:port or unix:/path — the daemon owns the "
                   "measurement cache and hands out work leases, so several "
                   "workers split one campaign without duplicating "
                   "measurements (full sweeps only)");
  parser.addString("worker-name",
                   "Name reported in the serve daemon's telemetry "
                   "(default: the worker's pid)");
  parser.addString("csv",
                   "Write the CSV to this file; a campaign streams its rows "
                   "there and, rerun, resumes: variants already terminal in "
                   "the file are not re-measured or re-appended");
  parser.addFlag("verbose", "Enable info logging");
}

void arrayShapeFromParser(const cli::Parser& parser, ExploreOptions& options) {
  std::int64_t nbVectors = parser.getInt("nbvectors");
  if (nbVectors < 0 || nbVectors > 5) {
    throw ParseError("--nbvectors must be between 0 and 5");
  }
  options.nbVectors = static_cast<int>(nbVectors);
  options.arrayBytes = bytesFlag(parser, "array-bytes");
}

void geometryFromParser(const cli::Parser& parser, ExploreOptions& options) {
  arrayShapeFromParser(parser, options);
  options.alignment = bytesFlag(parser, "alignment");
  options.alignOffset = bytesFlag(parser, "align-offset");
  std::int64_t elementBytes = parser.getInt("element-bytes");
  if (elementBytes <= 0) throw ParseError("--element-bytes must be > 0");
  options.elementBytes = static_cast<std::uint64_t>(elementBytes);
  if (parser.has("n")) options.tripCount = intFlag(parser, "n");
}

ExploreOptions exploreOptionsFromParser(const cli::Parser& parser) {
  ExploreOptions o;
  o.backend = parser.getString("backend");
  if (o.backend != "sim" && o.backend != "native") {
    throw ParseError("--backend must be sim or native");
  }
  o.arch = parser.getString("arch");
  if (parser.has("core-ghz")) o.coreGHz = parser.getDouble("core-ghz");
  o.perfCounters = !parser.getFlag("no-perf-counters");
  geometryFromParser(parser, o);

  CampaignOptions& campaign = o.campaign;
  campaign.protocol.innerRepetitions = intFlag(parser, "inner", 1);
  campaign.protocol.outerRepetitions = intFlag(parser, "outer", 1);
  campaign.protocol.warmup = !parser.getFlag("no-warmup");
  campaign.protocol.subtractOverhead = !parser.getFlag("no-overhead");
  campaign.jobs = intFlag(parser, "jobs", 1);
  campaign.maxCv = parser.getDouble("max-cv");
  campaign.maxRepetitions = intFlag(parser, "max-repetitions");
  campaign.variantTimeoutMs = intFlag(parser, "variant-timeout-ms", 0);
  campaign.compileJobs = intFlag(parser, "compile-jobs", 0);
  campaign.compileBatch = intFlag(parser, "compile-batch", 1);
  if (parser.has("compile-cache-dir")) {
    o.compileCacheDir = parser.getString("compile-cache-dir");
  }
  campaign.verify = verifyModeFromName(parser.getString("verify"));
  // Native workers time on real cores: spread them so they don't fight
  // over one. The simulator pins inside its own machine model instead.
  campaign.pinWorkers = o.backend == "native";

  o.search = searchModeFromName(parser.getString("search"));
  // Checked on full sweeps too, which do not use it: a typo must not pass.
  o.planner.budget =
      parseBudget(parser.has("budget") ? parser.getString("budget") : "");
  o.planner.screenRepetitions = intFlag(parser, "screen-reps", 1);
  o.planner.stableScreenRepetitions =
      intFlag(parser, "stable-screen-reps", 1);
  o.predict = !parser.getFlag("no-predict");
  if (parser.has("connect")) o.connectAddr = parser.getString("connect");
  if (parser.has("worker-name")) o.workerName = parser.getString("worker-name");
  if (parser.has("csv")) o.csvPath = parser.getString("csv");
  if (parser.getFlag("verbose")) log::setLevel(log::Level::Info);
  return o;
}

// ---------------------------------------------------------------------------
// microlauncher
// ---------------------------------------------------------------------------

KernelRequest LauncherOptions::toRequest() const {
  KernelRequest request =
      kernelRequest(explore, explore.nbVectors, arrayBytesPerVector);
  request.core = pinCore;
  return request;
}

cli::Parser makeLauncherParser() {
  cli::Parser parser(
      "microlauncher",
      "Executes microbenchmark kernels in a stable, controlled environment "
      "and reports cycles per iteration as CSV.");
  addExploreFlags(parser, 1, "Kernel file (assembly, C, or shared object)");
  parser.addString("input-kind", "Input kind: auto|asm|c|so", "auto");
  parser.addString("function", "Kernel entry-point symbol", "microkernel");
  parser.addString("standalone", "Fork and time a stand-alone program");
  parser.addRepeated("array-bytes-n", "Per-array size override (repeatable)");
  parser.addFlag("sweep-alignment", "Sweep array alignment offsets");
  parser.addInt("align-min", "Sweep: first offset", 0);
  parser.addInt("align-max", "Sweep: last offset (exclusive)", 4096);
  parser.addInt("align-step", "Sweep: offset step", 64);
  parser.addInt("max-align-configs", "Sweep: configuration cap", 2500);
  parser.addFlag("full-time", "Report full kernel time, not cycles/iteration");
  parser.addInt("pin", "Core to pin the kernel to", 0);
  parser.addInt("cores", "Fork mode: number of processes/cores", 1);
  parser.addString("pin-policy", "Fork pinning: scatter|compact", "scatter");
  parser.addInt("fork-calls", "Fork mode: kernel calls per process", 4);
  parser.addFlag("openmp", "Run the kernel as an OpenMP parallel-for");
  parser.addInt("threads", "OpenMP threads", 4);
  parser.addInt("omp-repetitions", "OpenMP parallel regions to time", 10);
  parser.addString("campaign",
                   "Run every .s/.c kernel in this directory as a campaign");
  parser.addFlag("list-arch", "List the Table-1 architectures and exit");
  return parser;
}

LauncherOptions optionsFromParser(const cli::Parser& parser) {
  LauncherOptions o;
  o.explore = exploreOptionsFromParser(parser);
  if (parser.has("input")) o.inputFile = parser.getString("input");
  o.inputKind = parser.getString("input-kind");
  o.function = parser.getString("function");
  if (parser.has("standalone")) {
    o.standaloneProgram = parser.getString("standalone");
  }
  for (const std::string& v : parser.getRepeated("array-bytes-n")) {
    auto parsed = strings::parseInt(v);
    if (!parsed || *parsed <= 0) {
      throw ParseError("--array-bytes-n expects a positive integer");
    }
    o.arrayBytesPerVector.push_back(static_cast<std::uint64_t>(*parsed));
  }
  o.sweepAlignment = parser.getFlag("sweep-alignment");
  o.alignMin = bytesFlag(parser, "align-min");
  o.alignMax = bytesFlag(parser, "align-max");
  o.alignStep = bytesFlag(parser, "align-step");
  o.maxAlignConfigs = bytesFlag(parser, "max-align-configs");
  o.reportFullKernelTime = parser.getFlag("full-time");
  o.pinCore = static_cast<int>(parser.getInt("pin"));
  o.processes = static_cast<int>(parser.getInt("cores"));
  o.pinPolicy = parser.getString("pin-policy");
  if (o.pinPolicy != "scatter" && o.pinPolicy != "compact") {
    throw ParseError("--pin-policy must be scatter or compact");
  }
  o.forkCalls = static_cast<int>(parser.getInt("fork-calls"));
  o.useOpenMp = parser.getFlag("openmp");
  o.threads = static_cast<int>(parser.getInt("threads"));
  o.ompRepetitions = static_cast<int>(parser.getInt("omp-repetitions"));
  if (parser.has("campaign")) o.campaignDir = parser.getString("campaign");
  o.listArch = parser.getFlag("list-arch");
  return o;
}

}  // namespace microtools::launcher
