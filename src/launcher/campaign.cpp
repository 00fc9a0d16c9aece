#include "launcher/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "verify/verify.hpp"

namespace microtools::launcher {

namespace fs = std::filesystem;

namespace {

SourceUnit unitOf(const CampaignVariant& v) {
  return SourceUnit{v.kind, v.source, v.functionName};
}

}  // namespace

VerifyMode verifyModeFromName(const std::string& name) {
  if (name == "off") return VerifyMode::Off;
  if (name == "warn") return VerifyMode::Warn;
  if (name == "strict") return VerifyMode::Strict;
  throw ParseError("--verify must be off, warn, or strict (got '" + name +
                   "')");
}

verify::VerifyOptions preflightOptions(const KernelRequest& request) {
  verify::VerifyOptions options;
  verify::LaunchContext context;
  context.tripCount = request.n;
  context.slackBytes = static_cast<std::size_t>(kArraySlackBytes);
  context.arrays.reserve(request.arrays.size());
  for (const ArraySpec& spec : request.arrays) {
    verify::ArrayExtent extent;
    extent.bytes = static_cast<std::size_t>(spec.bytes);
    extent.alignment = static_cast<std::size_t>(spec.alignment);
    extent.offset = static_cast<std::size_t>(spec.offset);
    context.arrays.push_back(extent);
  }
  options.arrayCount = static_cast<int>(request.arrays.size());
  options.context = std::move(context);
  return options;
}

// ---------------------------------------------------------------------------
// CampaignCsvSink
// ---------------------------------------------------------------------------

CampaignCsvSink::CampaignCsvSink(const std::string& path,
                                 const std::string& preamble) {
  // Append-safe: an interrupted campaign can be rerun against the same file
  // and only the header is deduplicated. Before appending to an existing
  // file, two resume hazards are checked: a header from an older (or newer)
  // schema, and a last row torn mid-write by a crash.
  std::error_code ec;
  bool hasContent = fs::exists(path, ec) && fs::file_size(path, ec) > 0;
  bool existingHeader = false;
  bool missingFinalNewline = false;
  if (hasContent) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw McError("cannot read campaign CSV file: " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (strings::startsWith(strings::trim(line), "#")) continue;  // preamble
      if (csv::parseLine(line) != CampaignRunner::csvHeader()) {
        throw McError("campaign CSV header of '" + path +
                      "' does not match the current schema; refusing to mix "
                      "schemas in one file (move the old file aside)");
      }
      existingHeader = true;
      break;
    }
    in.clear();
    in.seekg(-1, std::ios::end);
    char last = '\n';
    if (in.get(last) && last != '\n') missingFinalNewline = true;
  }
  auto file = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::app);
  if (!*file) throw McError("cannot open campaign CSV file: " + path);
  owned_ = std::move(file);
  os_ = owned_.get();
  headerWritten_ = existingHeader;
  if (missingFinalNewline) {
    // Repair a crash-truncated final row: terminate the torn line so the
    // next append starts fresh. The partial row itself stays (parsers skip
    // short rows), but nothing concatenates onto it.
    *os_ << '\n';
    os_->flush();
  }
  if (!hasContent && !preamble.empty()) {
    *os_ << preamble;
    os_->flush();
  }
}

CampaignCsvSink::CampaignCsvSink(std::ostream& os) : os_(&os) {}

CampaignCsvSink::~CampaignCsvSink() = default;

void CampaignCsvSink::writeLine(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += csv::quoteField(cells[i]);
  }
  line += '\n';
  *os_ << line;
  os_->flush();  // one flush per row: a crash loses at most the row in flight
}

void CampaignCsvSink::append(const VariantResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!headerWritten_) {
    writeLine(CampaignRunner::csvHeader());
    headerWritten_ = true;
  }
  writeLine(CampaignRunner::csvRow(result));
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(BackendFactory factory, CampaignOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  if (!factory_) throw McError("campaign runner requires a backend factory");
  if (options_.jobs < 1) throw McError("campaign requires --jobs >= 1");
  if (options_.compileJobs < 0) {
    throw McError("campaign requires --compile-jobs >= 0");
  }
  if (options_.compileBatch < 1) {
    throw McError("campaign requires --compile-batch >= 1");
  }
}

void CampaignRunner::runOne(Backend& backend, const CampaignVariant& variant,
                            const SourceUnit& unit,
                            const KernelRequest& request,
                            VariantResult& result) {
  DeadlineCheck outOfTime;
  if (options_.variantTimeoutMs > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.variantTimeoutMs);
    outOfTime = [deadline] {
      return std::chrono::steady_clock::now() > deadline;
    };
  }

  // Stability-directed screening: the override caps both the protocol's
  // outer repetitions and the adaptive budget for this variant. explore's
  // cacheKey() applies the same cap, so the entry is keyed by the protocol
  // that actually ran.
  ProtocolOptions protocol = options_.protocol;
  int maxRepetitions = options_.maxRepetitions;
  if (options_.repOverride) {
    int cap = options_.repOverride(variant);
    if (cap > 0) {
      protocol.outerRepetitions = std::min(protocol.outerRepetitions, cap);
      maxRepetitions = std::min(maxRepetitions, cap);
    }
  }

  AdaptivePolicy policy;
  policy.maxCv = options_.maxCv;
  policy.maxRepetitions = std::max(maxRepetitions, protocol.outerRepetitions);

  for (int attempt = 1; attempt <= 2; ++attempt) {
    result.attempts = attempt;
    try {
      backend.reset();  // every variant starts from post-construction state
      std::unique_ptr<KernelHandle> kernel =
          backend.loadSource(unit.kind, unit.text, unit.functionName);
      AdaptiveMeasurement am = measureKernelAdaptive(
          backend, *kernel, request, protocol, policy, outOfTime);
      result.measurement = am.measurement;
      result.repetitions = am.repetitions;
      result.finalCv = am.measurement.cyclesPerIteration.cv;
      result.converged = am.converged;
      if (std::isnan(result.finalCv)) {
        // Zero-mean sample set (every sample clamped to 0 after overhead
        // subtraction): the CV is undefined, so this variant must never be
        // reported as converged, whatever the adaptive policy says.
        result.converged = false;
        result.note = "cv undefined: zero-mean samples";
      }
      result.status = "ok";
      result.error.clear();
      return;
    } catch (const TimeoutError& e) {
      result.status = "timeout";
      result.error = e.message();
      return;  // out of time: retrying would also time out
    } catch (const ExecutionError& e) {
      result.status = "error";
      result.error = e.message();
      // Transient execution failures get exactly one retry.
    } catch (const McError& e) {
      result.status = "error";
      result.error = e.message();
      return;  // structural error: a retry cannot change the outcome
    }
  }
}

bool CampaignRunner::resolveUpfront(const CampaignVariant& variant,
                                    std::size_t sequence,
                                    const verify::VerifyOptions& verifyOptions,
                                    VariantResult& r, CampaignCsvSink* sink) {
  r.sequence = sequence;
  r.round = options_.round;
  r.name = variant.name;
  if (options_.completed.count({sequence, variant.name})) {
    r.status = "skipped";
    r.note = "already completed in resumed CSV";
    return true;  // its row already exists in the file being resumed
  }
  // Static prediction annotates every row this run appends (strict skips,
  // cache hits, fresh measurements). Cache hits get theirs recomputed here
  // because predictions never enter the measurement cache.
  auto annotate = [&](VariantResult& row) {
    if (options_.predict) options_.predict(variant, row);
  };
  std::string verdict;
  if (options_.verify != VerifyMode::Off && variant.kind == "asm") {
    verify::VerifyReport report =
        verify::verifyAssembly(variant.source, verifyOptions);
    verdict = report.shortSummary();
    if (!report.ok()) {
      std::string detail;
      for (const verify::Diagnostic& d : report.diagnostics) {
        if (d.severity != verify::Severity::Error) continue;
        if (!detail.empty()) detail += "; ";
        detail += "[" + d.rule + "] " + d.message;
      }
      if (options_.verify == VerifyMode::Strict) {
        r.status = "skipped";
        r.verify = verdict;
        r.error = "static verification failed: " + detail;
        r.note = "skipped by --verify=strict";
        annotate(r);
        log::warn("variant '" + r.name + "' skipped by verification: " +
                  verdict);
        if (options_.rowObserver) options_.rowObserver(variant, r);
        if (sink) sink->append(r);
        return true;  // never compiled, loaded, or measured
      }
      log::warn("variant '" + r.name + "' failed verification (" + verdict +
                "); measuring anyway (--verify=warn)");
    }
  }
  VariantResult hit = r;  // the probe sees this row's identity
  if (options_.cacheLookup && options_.cacheLookup(variant, hit)) {
    // Re-label the cached payload with this run's identity.
    hit.sequence = sequence;
    hit.round = options_.round;
    hit.name = variant.name;
    r = std::move(hit);
    r.cached = true;
    r.verify = verdict;
    annotate(r);
    if (options_.rowObserver) options_.rowObserver(variant, r);
    if (sink) sink->append(r);
    return true;
  }
  r.verify = std::move(verdict);
  annotate(r);
  return false;
}

std::vector<VariantResult> CampaignRunner::run(
    const std::vector<CampaignVariant>& variants,
    const KernelRequest& request, CampaignCsvSink* sink) {
  return runStream(vectorSource(variants), request, sink);
}

std::vector<VariantResult> CampaignRunner::runStream(
    const VariantSource& source, const KernelRequest& request,
    CampaignCsvSink* sink) {
  if (!source) throw McError("streaming campaign requires a variant source");
  const verify::VerifyOptions verifyOptions = preflightOptions(request);

  // One heap slot per pulled variant. A task keeps its slot's address while
  // the calling thread goes on appending, so growing `slots` never moves
  // anything a worker reads.
  struct Slot {
    CampaignVariant variant;
    VariantResult result;
    bool pending = false;  ///< dispatched and not yet measured
  };
  std::vector<std::unique_ptr<Slot>> slots;

  // Each pool's backends are built on the calling thread when the pool
  // starts (at the first miss, at the first compile group), so a fully
  // cached run builds none. Measurement workers own [0, jobs), compile
  // workers [jobs, jobs + compileJobs).
  const int jobs = options_.jobs;
  std::vector<std::unique_ptr<Backend>> backends(
      static_cast<std::size_t>(jobs + options_.compileJobs));
  auto startPool = [&](int first, int workers) {
    for (int w = first; w < first + workers; ++w) {
      std::unique_ptr<Backend>& backend = backends[static_cast<std::size_t>(w)];
      backend = factory_(w);
      if (!backend) throw McError("backend factory returned null");
    }
    return std::make_unique<threads::ThreadPool>(workers);
  };
  std::mutex mutex;  // guards `failure`
  std::exception_ptr failure;
  std::atomic<bool> failed{false};
  auto fail = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    if (!failure) failure = std::current_exception();
    failed = true;
  };

  std::unique_ptr<threads::ThreadPool> measurePool;
  std::unique_ptr<threads::ThreadPool> compilePool;

  // Measures slot `s` from `unit`: its own source, or the unit the compile
  // stage prepared from it. Everything else (the repetition override, the
  // cache, the row observer) sees the ORIGINAL variant: a prepared "so"
  // unit is a process-local artifact and must never leak into the
  // content-addressed cache key.
  auto measure = [&](int worker, Slot& s, const SourceUnit& unit) {
    if (failed) return;
    try {
      KernelRequest workerRequest = request;
      if (options_.pinWorkers) workerRequest.core = worker;
      runOne(*backends[static_cast<std::size_t>(worker)], s.variant, unit,
             workerRequest, s.result);
      s.pending = false;
      if (s.result.status == "ok" && options_.cacheStore) {
        options_.cacheStore(s.variant, s.result);
      }
      if (options_.rowObserver) options_.rowObserver(s.variant, s.result);
      if (sink) sink->append(s.result);
    } catch (...) {
      fail();
    }
  };

  // The compile stage: one prepareBatch() call per group of consecutive
  // misses, then each unit goes to the measurement pool on its own, for
  // worker load balance. A group whose preparation failed is measured
  // unprepared and fails, with the real diagnostic, in the measurement
  // worker's own loadSource.
  auto compile = [&](int worker, const std::vector<Slot*>& group) {
    if (failed) return;
    try {
      Backend& backend = *backends[static_cast<std::size_t>(jobs + worker)];
      std::vector<SourceUnit> units;
      units.reserve(group.size());
      for (const Slot* s : group) units.push_back(unitOf(s->variant));
      std::vector<SourceUnit> prepared;
      try {
        prepared = backend.prepareBatch(units);
      } catch (const std::exception& e) {
        log::warn(std::string("prepareBatch failed (") + e.what() +
                  "); measuring unprepared sources");
      } catch (...) {
        log::warn("prepareBatch failed (unknown exception); measuring "
                  "unprepared sources");
      }
      if (prepared.size() != units.size()) prepared = std::move(units);
      for (std::size_t k = 0; k < group.size(); ++k) {
        measurePool->submit(
            [&measure, s = group[k], unit = std::move(prepared[k])](int w) {
              measure(w, *s, unit);
            });
      }
    } catch (...) {
      fail();
    }
  };

  // Resolve each variant on the calling thread as it arrives; a miss goes
  // to the measurement pool, or joins the compile stage's next group.
  std::vector<Slot*> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    if (!compilePool) compilePool = startPool(jobs, options_.compileJobs);
    compilePool->submit(
        [&compile, group = std::move(batch)](int w) { compile(w, group); });
    batch.clear();
  };
  try {
    for (std::optional<CampaignVariant> next; !failed && (next = source());) {
      slots.push_back(std::make_unique<Slot>());
      Slot& s = *slots.back();
      if (resolveUpfront(*next, slots.size() - 1, verifyOptions, s.result,
                         sink)) {
        continue;  // only a dispatched slot keeps its variant
      }
      s.variant = std::move(*next);
      s.pending = true;
      if (!measurePool) measurePool = startPool(0, jobs);
      if (options_.compileJobs == 0) {
        measurePool->submit(
            [&measure, &s](int w) { measure(w, s, unitOf(s.variant)); });
        continue;
      }
      batch.push_back(&s);
      if (batch.size() == static_cast<std::size_t>(options_.compileBatch)) {
        flush();
      }
    }
    flush();
  } catch (...) {
    fail();
  }
  // Compile tasks submit into the measurement pool, so drain them first.
  if (compilePool) compilePool->wait();
  if (measurePool) measurePool->wait();
  if (failure) std::rethrow_exception(failure);

  std::vector<VariantResult> results;
  results.reserve(slots.size());
  for (const std::unique_ptr<Slot>& s : slots) {
    if (s->pending) {
      // Every task measures its slot or fails the campaign, so this is a
      // guard: surface a lost variant as an error row, never as a phantom
      // success.
      s->result.status = "error";
      s->result.error = "never measured: campaign dispatch aborted";
      if (options_.rowObserver) options_.rowObserver(s->variant, s->result);
      if (sink) sink->append(s->result);
    }
    results.push_back(std::move(s->result));
  }
  return results;
}

std::vector<std::string> CampaignRunner::csvHeader() {
  return {"sequence",
          "round",
          "variant",
          "status",
          "iterations_per_call",
          "cycles_per_iteration_min",
          "cycles_per_iteration_mean",
          "cycles_per_iteration_median",
          "cycles_per_iteration_max",
          "cv",
          "instructions_per_iteration",
          "ipc",
          "l1_miss_rate",
          "llc_miss_rate",
          "stall_ratio",
          "repetitions",
          "converged",
          "attempts",
          "verify",
          "error",
          "cached",
          "note",
          "pred_cpi_lo",
          "pred_bound",
          "pred_err"};
}

std::vector<std::string> CampaignRunner::csvRow(const VariantResult& r) {
  std::vector<std::string> cells;
  cells.push_back(std::to_string(r.sequence));
  cells.push_back(std::to_string(r.round));
  cells.push_back(r.name);
  cells.push_back(r.status);
  // A counter metric cell is empty whenever the value is absent — the
  // rdtsc-only degradation path (no perf, VM without PMU, sim backend) and
  // individual events dropped from the PMU group both surface as NaN.
  auto metricCell = [&cells](double value, const char* fmt) {
    cells.push_back(std::isfinite(value) ? strings::format(fmt, value) : "");
  };
  if (r.status == "ok") {
    const stats::Summary& s = r.measurement.cyclesPerIteration;
    cells.push_back(std::to_string(r.measurement.iterationsPerCall));
    cells.push_back(strings::format("%.4f", s.min));
    cells.push_back(strings::format("%.4f", s.mean));
    cells.push_back(strings::format("%.4f", s.median));
    cells.push_back(strings::format("%.4f", s.max));
    cells.push_back(strings::format("%.6f", r.finalCv));
    const CounterMetrics& c = r.measurement.counters;
    metricCell(c.instructionsPerIteration, "%.4f");
    metricCell(c.ipc, "%.4f");
    metricCell(c.l1MissRate, "%.6f");
    metricCell(c.llcMissRate, "%.6f");
    metricCell(c.stallRatio, "%.6f");
  } else {
    for (int i = 0; i < 11; ++i) cells.push_back("");
  }
  cells.push_back(std::to_string(r.repetitions));
  cells.push_back(r.converged ? "1" : "0");
  cells.push_back(std::to_string(r.attempts));
  cells.push_back(r.verify);
  cells.push_back(r.error);
  cells.push_back(r.cached ? "1" : "0");
  cells.push_back(r.note);
  // Static cost-model columns: the prediction is independent of measurement
  // status, so even error/skipped rows keep their bound. pred_err is the
  // relative gap of the measured best over the static lower bound,
  // (min - pred) / pred — available only when both sides exist.
  metricCell(r.predCpiLo, "%.4f");
  cells.push_back(r.predBound);
  double predErr = std::numeric_limits<double>::quiet_NaN();
  if (r.status == "ok" && std::isfinite(r.predCpiLo) && r.predCpiLo > 0.0) {
    predErr =
        (r.measurement.cyclesPerIteration.min - r.predCpiLo) / r.predCpiLo;
  }
  metricCell(predErr, "%.4f");
  return cells;
}

csv::Table CampaignRunner::toCsv(const std::vector<VariantResult>& results) {
  std::vector<const VariantResult*> ordered;
  ordered.reserve(results.size());
  for (const VariantResult& r : results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const VariantResult* a, const VariantResult* b) {
              return a->sequence < b->sequence;
            });
  csv::Table table(csvHeader());
  for (const VariantResult* r : ordered) table.addRow(csvRow(*r));
  return table;
}

// ---------------------------------------------------------------------------
// Variant sources
// ---------------------------------------------------------------------------

std::vector<CampaignVariant> loadCampaignDirectory(
    const std::string& dir, const std::string& functionName) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw McError("campaign directory not found: " + dir);
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext == ".s" || ext == ".c") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic sequence
  std::vector<CampaignVariant> variants;
  variants.reserve(files.size());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw McError("cannot read campaign kernel: " + path.string());
    std::ostringstream oss;
    oss << in.rdbuf();
    CampaignVariant v;
    v.name = path.stem().string();
    v.kind = path.extension() == ".c" ? "c" : "asm";
    v.source = oss.str();
    v.functionName = functionName;
    variants.push_back(std::move(v));
  }
  if (variants.empty()) {
    throw McError("campaign directory holds no .s or .c kernels: " + dir);
  }
  return variants;
}

std::vector<CampaignVariant> variantsFromPrograms(
    std::vector<creator::GeneratedProgram> programs) {
  std::vector<CampaignVariant> variants;
  variants.reserve(programs.size());
  for (creator::GeneratedProgram& p : programs) {
    CampaignVariant v;
    v.name = std::move(p.name);
    v.kind = "asm";
    v.source = std::move(p.asmText);
    v.functionName = std::move(p.functionName);
    v.contentId = std::move(p.contentId);
    variants.push_back(std::move(v));
  }
  return variants;
}

VariantSource vectorSource(const std::vector<CampaignVariant>& variants,
                           std::size_t offset) {
  return [&variants, offset, next = std::size_t{0}]() mutable
         -> std::optional<CampaignVariant> {
    if (next >= variants.size()) return std::nullopt;
    return variants[(offset + next++) % variants.size()];
  };
}

namespace {

/// Shared body of the two readCompletedVariants overloads. A negative
/// `roundFilter` accepts every row; otherwise only rows whose `round`
/// column matches are returned (a file without a round column counts every
/// row as round 0).
std::set<std::pair<std::size_t, std::string>> readCompletedImpl(
    const std::string& csvPath, int roundFilter) {
  std::set<std::pair<std::size_t, std::string>> completed;
  std::ifstream in(csvPath, std::ios::binary);
  if (!in) return completed;

  // Skip the "# env.*" preamble (and any other comment lines) before the
  // header.
  std::string line;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (strings::startsWith(strings::trim(line), "#")) continue;
    header = csv::parseLine(line);
    break;
  }
  if (header.empty()) return completed;
  auto column = [&header](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  std::ptrdiff_t seqCol = column("sequence");
  std::ptrdiff_t nameCol = column("variant");
  std::ptrdiff_t statusCol = column("status");
  std::ptrdiff_t roundCol = column("round");
  if (seqCol < 0 || nameCol < 0 || statusCol < 0) return completed;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (strings::startsWith(strings::trim(line), "#")) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    // The runner always writes full-width rows (missing metrics are empty
    // cells, not absent ones), so any shorter row is the torn remnant of a
    // crash mid-write — its data is gone; re-measure it.
    if (cells.size() < header.size()) continue;
    // Every status the runner writes is terminal: a failed variant already
    // consumed its retry and a verify-strict skip is a verdict. Only rows
    // with an unknown status (foreign file, torn row) are re-run.
    const std::string& status = cells[static_cast<std::size_t>(statusCol)];
    if (status != "ok" && status != "error" && status != "timeout" &&
        status != "skipped") {
      continue;
    }
    if (roundFilter >= 0) {
      int rowRound = 0;
      if (roundCol >= 0) {
        auto parsed =
            strings::parseInt(cells[static_cast<std::size_t>(roundCol)]);
        if (!parsed) continue;  // unparsable round: torn or foreign row
        rowRound = static_cast<int>(*parsed);
      }
      if (rowRound != roundFilter) continue;
    }
    auto seq = strings::parseInt(cells[static_cast<std::size_t>(seqCol)]);
    if (!seq || *seq < 0) continue;
    completed.emplace(static_cast<std::size_t>(*seq),
                      cells[static_cast<std::size_t>(nameCol)]);
  }
  return completed;
}

}  // namespace

std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath) {
  return readCompletedImpl(csvPath, -1);
}

std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath, int round) {
  if (round < 0) throw McError("readCompletedVariants: round must be >= 0");
  return readCompletedImpl(csvPath, round);
}

}  // namespace microtools::launcher
