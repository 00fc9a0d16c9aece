#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "creator/creator.hpp"
#include "creator/description.hpp"
#include "launcher/arch_registry.hpp"
#include "launcher/explore.hpp"
#include "launcher/predict.hpp"
#include "launcher/result_store.hpp"
#include "launcher/sim_backend.hpp"
#include "native/compile.hpp"
#include "native/native_backend.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace microtools;
using launcher::CampaignVariant;
using launcher::VariantResult;

namespace {

constexpr int kMaxUnroll = 8;
constexpr int kReportTop = 10;
const char* const kSimArch = "nehalem_x5650_2s";
const char* const kDescriptionFile = "loadstore.xml";

/// The (Load|Store)+ description of the paper's Figure 6 (§5.1): one movaps
/// whose operands are swapped independently in every unrolled copy, giving
/// 2 + 4 + ... + 256 = 510 variants over unroll 1..8. Without the swap and
/// with a single unroll level it is the all-load kernel of Figure 14.
std::string figure6Xml(int unrollMin, int unrollMax, bool swapAfter) {
  return std::string(R"(<description>
  <benchmark_name>loadstore</benchmark_name>
  <kernel>
    <instruction>
      <operation>movaps</operation>
      <memory><register><name>r1</name></register><offset>0</offset></memory>
      <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
      )") + (swapAfter ? "<swap_after_unroll/>" : "") + R"(
    </instruction>
    <unrolling><min>)" + std::to_string(unrollMin) + "</min><max>" +
         std::to_string(unrollMax) + R"(</max></unrolling>
    <induction>
      <register><name>r1</name></register>
      <increment>16</increment>
      <offset>16</offset>
    </induction>
    <induction>
      <register><name>r0</name></register>
      <increment>-1</increment>
      <linked><register><name>r1</name></register></linked>
      <last_induction/>
    </induction>
    <branch_information><label>L6</label><test>jge</test></branch_information>
  </kernel>
</description>
)";
}

/// Name of the Figure-6 variant with unroll `u` whose copies are swapped
/// into stores where `mask` has a bit set (bit b = copy b), and its position
/// in MicroCreator's output: unroll levels in order, masks ascending.
std::string variantName(int u, std::uint64_t mask) {
  std::string seq;
  for (int b = 0; b < u; ++b) seq += (mask >> b) & 1 ? 'S' : 'L';
  return "loadstore_u" + std::to_string(u) + "_seq" + seq;
}
std::size_t variantSequence(int u, std::uint64_t mask) {
  return (std::size_t{1} << u) - 2 + static_cast<std::size_t>(mask);
}

int unrollOf(const std::string& name) {
  std::size_t at = name.find("_u");
  return at == std::string::npos ? 0 : std::atoi(name.c_str() + at + 2);
}

/// The kernels' trip-count contract: n = arrayBytes / 4 elements, the
/// count-down loop retires 4u elements per iteration and exits once the
/// counter goes negative, so one call runs floor(n / 4u) + 1 iterations.
std::uint64_t expectedIterations(std::uint64_t arrayBytes, int u) {
  if (u <= 0) return 0;
  return arrayBytes / 4 / (4 * static_cast<std::uint64_t>(u)) + 1;
}

std::string hex(double v) { return strings::format("%a", v); }

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw McError("cannot write " + path);
}

/// A seeded array base offset: one of `choices` evenly spaced cache-line
/// multiples within a 4 KiB page (a power of two from 1 to 64).
std::uint64_t drawOffset(Rng& rng, std::uint64_t choices) {
  return 4096 / choices * rng.nextBelow(choices);
}

/// Draws per unroll level 1..maxUnroll: all 2^u variants when `count` is
/// 0, else a largest-remainder split of `count` in proportion to 2^u, so
/// every seed draws the same unroll mix and run cost does not depend on
/// which seed is used.
std::vector<int> unrollQuota(int maxUnroll, int count) {
  std::vector<int> quota(static_cast<std::size_t>(maxUnroll) + 1, 0);
  double total = static_cast<double>((2 << maxUnroll) - 2);
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int u = 1; u <= maxUnroll; ++u) {
    double share = count ? count * static_cast<double>(1 << u) / total
                         : static_cast<double>(1 << u);
    quota[u] = static_cast<int>(share);
    assigned += quota[u];
    remainders.emplace_back(share - quota[u], u);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; assigned < count; ++i, ++assigned) {
    ++quota[remainders[static_cast<std::size_t>(i)].second];
  }
  return quota;
}

/// The pre-flight verification context the campaign runner derives from
/// a request (launcher/campaign.cpp), mirrored for the traced composition.
verify::VerifyOptions verifyOptionsFor(const launcher::KernelRequest& request) {
  verify::VerifyOptions options;
  verify::LaunchContext context;
  context.tripCount = request.n;
  context.slackBytes = static_cast<std::size_t>(launcher::kArraySlackBytes);
  for (const launcher::ArraySpec& spec : request.arrays) {
    context.arrays.push_back(verify::ArrayExtent{
        static_cast<std::size_t>(spec.bytes),
        static_cast<std::size_t>(spec.alignment),
        static_cast<std::size_t>(spec.offset)});
  }
  options.arrayCount = static_cast<int>(request.arrays.size());
  options.context = std::move(context);
  return options;
}

/// runExplore's kernel request (launcher/explore.cpp), mirrored.
launcher::KernelRequest buildRequest(const launcher::ExploreOptions& o,
                                     int nbVectors) {
  launcher::KernelRequest request;
  request.chunkStrideBytes = o.elementBytes;
  request.n = static_cast<int>(o.arrayBytes / o.elementBytes);
  for (int i = 0; i < nbVectors; ++i) {
    request.arrays.push_back(
        launcher::ArraySpec{o.arrayBytes, o.alignment, o.alignOffset});
  }
  return request;
}

std::string renderReport(const std::vector<VariantResult>& rows) {
  return launcher::topKReport(rows, kReportTop).toString();
}

/// The product path: `microtools explore` as a library call.
std::vector<VariantResult> exploreProduct(const launcher::ExploreOptions& o,
                                          std::string& report) {
  launcher::ExploreResult r = launcher::runExplore(o);
  report = renderReport(r.results);
  return std::move(r.results);
}

/// The traced run: the same batch path composed from public parts, with a
/// span around every call into a layer. runExplore installs its own cache
/// hooks, so they cannot be wrapped from outside; everything here mirrors
/// launcher/explore.cpp's full sweep, except that the strict pre-flight
/// verification runs here (traced) instead of inside the runner.
std::vector<VariantResult> exploreComposed(const launcher::ExploreOptions& o,
                                           Tracer& tr, std::string& report) {
  ScopedSpan root(tr, "perfbench.explore");
  creator::Description description;
  {
    ScopedSpan s(tr, "creator.parse");
    description = creator::parseDescriptionFile(o.descriptionFile);
  }
  std::vector<creator::GeneratedProgram> programs;
  std::vector<CampaignVariant> variants;
  {
    ScopedSpan s(tr, "creator.generate");
    creator::MicroCreator creator;
    creator.setGenerateJobs(o.generateJobs);
    programs = creator.generate(description);
    variants = launcher::variantsFromPrograms(programs);
    s.span.items = programs.size();
  }
  auto index = std::make_shared<VariantIndex>();
  int nbVectors = 1;
  for (const creator::GeneratedProgram& p : programs) {
    nbVectors = std::max(nbVectors, p.arrayCount);
  }
  for (const CampaignVariant& v : variants) index->add(v.source, v.name);
  launcher::KernelRequest request = buildRequest(o, nbVectors);

  std::shared_ptr<launcher::MeasurementCache> cache;
  {
    ScopedSpan s(tr, "launcher.result_store.open");
    cache = std::make_shared<launcher::MeasurementCache>(o.cacheDir);
  }
  std::shared_ptr<launcher::StaticAnnotator> annotator;
  {
    ScopedSpan s(tr, "verify.predict");
    annotator = launcher::makeStaticAnnotator(o.arch, request);
  }

  launcher::CampaignOptions campaign = o.campaign;
  campaign.verify = launcher::VerifyMode::Off;
  verify::VerifyOptions verifyOptions = verifyOptionsFor(request);
  std::vector<std::string> verdicts(variants.size());
  std::vector<char> rejected(variants.size(), 0);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const CampaignVariant& v = variants[i];
    if (o.campaign.completed.count({i, v.name})) continue;
    ScopedSpan s(tr, "verify.preflight", tr.intern(v.name));
    verify::VerifyReport vr = verify::verifyAssembly(v.source, verifyOptions);
    verdicts[i] = vr.shortSummary();
    if (!vr.ok()) {
      rejected[i] = 1;
      s.span.rejected = true;
      campaign.completed.insert({i, v.name});  // never measured
    }
  }

  launcher::installPredict(campaign, annotator);
  launcher::Predictor predict = campaign.predict;
  campaign.predict = [&tr, predict](const CampaignVariant& v,
                                    VariantResult& out) {
    ScopedSpan s(tr, "verify.predict", tr.intern(v.name));
    predict(v, out);
  };

  // Cache hooks keyed exactly like runExplore's cache binder.
  launcher::CampaignOptions keyOptions = o.campaign;
  keyOptions.cacheLookup = nullptr;
  keyOptions.cacheStore = nullptr;
  keyOptions.rowObserver = nullptr;
  keyOptions.predict = nullptr;
  keyOptions.completed.clear();
  std::string backendId = o.backendId.empty()
                              ? "sim:" + o.arch + (o.simExact ? ":exact" : "")
                              : o.backendId;
  campaign.cacheLookup = [&tr, cache, keyOptions, backendId, request](
                             const CampaignVariant& v, VariantResult& out) {
    ScopedSpan s(tr, "launcher.result_store.probe", tr.intern(v.name));
    std::optional<VariantResult> hit =
        cache->load(launcher::cacheKey(v, keyOptions, backendId, request));
    if (!hit) return false;
    s.span.items = 1;
    out = std::move(*hit);
    return true;
  };
  campaign.cacheStore = [&tr, cache, keyOptions, backendId, request](
                            const CampaignVariant& v,
                            const VariantResult& result) {
    ScopedSpan s(tr, "launcher.result_store.store", tr.intern(v.name));
    cache->store(launcher::cacheKey(v, keyOptions, backendId, request),
                 result);
  };

  launcher::BackendFactory inner = o.backendFactory;
  if (!inner) {
    sim::MachineConfig config = launcher::archByName(o.arch).config;
    launcher::SimBackendOptions simOptions;
    if (o.simExact) simOptions = {false, false};
    inner = [config, simOptions](int) {
      return std::make_unique<launcher::SimBackend>(config, simOptions);
    };
  }
  launcher::BackendFactory factory = [&tr, inner, index](int worker) {
    return std::make_unique<TracedBackend>(inner(worker), tr, index, worker);
  };

  std::vector<VariantResult> rows;
  {
    ScopedSpan s(tr, "launcher.campaign.run");
    tr.setAmbient(s.id());
    launcher::CampaignRunner runner(factory, campaign);
    rows = runner.run(variants, request);
    tr.setAmbient(-1);
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (o.campaign.completed.count({i, variants[i].name})) continue;
    rows[i].verify = verdicts[i];
    if (rejected[i]) {
      // The runner's --verify=strict row, which it never produced here.
      rows[i].status = "skipped";
      rows[i].error = "static verification failed";
      rows[i].note = "skipped by --verify=strict";
      ScopedSpan s(tr, "verify.predict", tr.intern(variants[i].name));
      annotator->annotate(variants[i], rows[i]);
    }
  }
  {
    ScopedSpan s(tr, "launcher.campaign.report");
    report = renderReport(rows);
  }
  return rows;
}

/// The CLI's explore defaults (`microtools explore`): strict pre-flight
/// verification, static prediction, and the Figure-10 protocol with
/// adaptive repetition (inner 8, outer 10, CV target 5%, budget 40).
launcher::ExploreOptions exploreDefaults(const std::string& dir) {
  launcher::ExploreOptions o;
  o.descriptionFile = dir + "/" + kDescriptionFile;
  o.arch = kSimArch;
  o.cacheDir = dir + "/cache";
  o.campaign.verify = launcher::VerifyMode::Strict;
  return o;
}

/// Canonical form of one explore row: every field the output checks
/// compare bit for bit against the reference.
std::string canonicalRow(const VariantResult& r) {
  const stats::Summary& s = r.measurement.cyclesPerIteration;
  return strings::format(
      "%s|%d|%s|%s|%s|%s|%llu", r.status.c_str(), r.repetitions,
      hex(s.min).c_str(), hex(s.mean).c_str(), hex(s.cv).c_str(),
      hex(r.measurement.totalCycles).c_str(),
      static_cast<unsigned long long>(r.measurement.iterationsPerCall));
}

/// Appends the configurations of one explore pass: every expected variant
/// must have a measured row, and no other variant may have been measured.
/// `deterministic` rows (the simulator) carry their full canonical form;
/// native rows only the fields a noisy host cannot change.
void addExploreConfigs(Outcome& out, const std::vector<VariantResult>& rows,
                       const std::set<std::string>& expected,
                       std::uint64_t arrayBytes, bool deterministic) {
  std::string prefix = std::to_string(arrayBytes) + ":";
  std::set<std::string> seen;
  for (const VariantResult& r : rows) {
    bool wanted = expected.count(r.name) > 0;
    if (!wanted && r.status == "skipped") continue;  // not drawn
    ConfigOutcome c;
    c.id = prefix + r.name;
    c.canonical = deterministic
                      ? canonicalRow(r)
                      : strings::format("%s|%llu", r.status.c_str(),
                                        static_cast<unsigned long long>(
                                            r.measurement.iterationsPerCall));
    if (!wanted) {
      c.ok = false;
      c.problem = "measured a variant that was not drawn";
    } else if (r.status != "ok") {
      c.ok = false;
      c.problem = "status " + r.status + ": " + r.error;
    } else if (r.measurement.iterationsPerCall !=
               expectedIterations(arrayBytes, unrollOf(r.name))) {
      c.ok = false;
      c.problem = "iterations per call break the trip-count contract";
    } else if (deterministic &&
               !(r.predCpiLo <= r.measurement.cyclesPerIteration.min)) {
      c.ok = false;
      c.problem = "pred_cpi_lo is above the measured minimum";
    }
    seen.insert(r.name);
    out.rows.push_back(r);
    out.configs.push_back(std::move(c));
  }
  for (const std::string& name : expected) {
    if (seen.count(name)) continue;
    ConfigOutcome c;
    c.id = prefix + name;
    c.ok = false;
    c.problem = "drawn variant has no result";
    out.configs.push_back(std::move(c));
  }
}

/// FNV-1a over every configuration's deterministic fields plus `extra`.
std::string digestOf(const Outcome& out, const std::string& extra) {
  hash::Fnv1a h;
  for (const ConfigOutcome& c : out.configs) h.str(c.id).str(c.canonical);
  for (const VariantResult& r : out.rows) {
    h.str(r.name).str(r.verify).str(r.predBound).f64(r.predCpiLo);
  }
  h.str(extra);
  return h.hex();
}

/// A span only when tracing.
struct MaybeSpan {
  MaybeSpan(Tracer* tracer, const char* name) {
    if (tracer) span.emplace(*tracer, name);
  }
  std::optional<ScopedSpan> span;
};

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// explore_sim_l1 / explore_sim_l3
// ---------------------------------------------------------------------------

/// A cold sim explore (fresh cache dir) of Figure-6 variants. With
/// `draws` > 0 the seed draws that many variants of unroll 1..8; the drawn
/// set reaches the tool as the explore request, every other variant being
/// marked already completed (exactly like a resumed campaign CSV), so the
/// tool generates the full description and measures only the draw. With
/// `draws` == 0 the description itself stops at `maxUnroll` and every
/// variant is measured. The seed also draws the arrays' cache-line offset
/// within a page, out of `offsetChoices` (1: always offset 0).
class SimExplore final : public Workload {
 public:
  SimExplore(std::uint64_t seed, std::uint64_t arrayBytes, int maxUnroll,
             int draws, std::uint64_t offsetChoices)
      : seed_(seed), arrayBytes_(arrayBytes), maxUnroll_(maxUnroll),
        draws_(draws), offsetChoices_(offsetChoices) {}

  void setup(const std::string& dir) override {
    Rng rng(seed_ ^ (arrayBytes_ * 0x9e3779b97f4a7c15ull));
    alignOffset_ = drawOffset(rng, offsetChoices_);
    std::vector<int> quota = unrollQuota(maxUnroll_, draws_);
    drawn_.clear();
    completed_.clear();
    for (int u = 1; u <= maxUnroll_; ++u) {
      // Partial Fisher-Yates: the first quota[u] masks of a seeded shuffle.
      std::vector<std::uint64_t> masks(std::size_t{1} << u);
      for (std::size_t m = 0; m < masks.size(); ++m) masks[m] = m;
      for (int k = 0; k < quota[u]; ++k) {
        std::size_t pick =
            static_cast<std::size_t>(k) +
            static_cast<std::size_t>(rng.nextBelow(masks.size() - k));
        std::swap(masks[static_cast<std::size_t>(k)], masks[pick]);
      }
      for (std::size_t k = 0; k < masks.size(); ++k) {
        std::string name = variantName(u, masks[k]);
        if (k < static_cast<std::size_t>(quota[u])) {
          drawn_.insert(name);
        } else {
          completed_.insert({variantSequence(u, masks[k]), name});
        }
      }
    }
    fs::create_directories(dir + "/cache");
    writeFile(dir + "/" + kDescriptionFile, figure6Xml(1, maxUnroll_, true));
    dir_ = dir;
  }

  Outcome run(Tracer* tracer) override {
    launcher::ExploreOptions o = options(false);
    std::string report;
    Outcome out;
    std::vector<VariantResult> rows = tracer
                                          ? exploreComposed(o, *tracer, report)
                                          : exploreProduct(o, report);
    addExploreConfigs(out, rows, drawn_, arrayBytes_, true);
    out.report = report;
    out.digest = digestOf(out, report);
    return out;
  }

  Reference reference(const std::string& dir) override {
    launcher::ExploreOptions o = options(true);
    o.cacheDir = dir + "/exact-cache";
    auto t0 = std::chrono::steady_clock::now();
    launcher::ExploreResult r = launcher::runExplore(o);
    Reference ref;
    ref.wallSeconds = secondsSince(t0);
    for (const VariantResult& row : r.results) {
      if (drawn_.count(row.name)) {
        ref.canonical[std::to_string(arrayBytes_) + ":" + row.name] =
            canonicalRow(row);
      }
    }
    return ref;
  }

  std::string inputKey() const override {
    hash::Fnv1a h;
    h.u64(arrayBytes_).i64(maxUnroll_).u64(alignOffset_);
    for (const std::string& name : drawn_) h.str(name);
    return h.hex();
  }

  int threads() const override { return 1 + kJobs; }

 private:
  static constexpr int kJobs = 2;

  launcher::ExploreOptions options(bool exact) const {
    launcher::ExploreOptions o = exploreDefaults(dir_);
    o.backend = "sim";
    o.simExact = exact;
    o.arrayBytes = arrayBytes_;
    o.alignOffset = alignOffset_;
    o.campaign.jobs = kJobs;
    o.campaign.completed = completed_;
    return o;
  }

  std::uint64_t seed_;
  std::uint64_t arrayBytes_;
  int maxUnroll_;
  int draws_;
  std::uint64_t offsetChoices_;
  std::string dir_;
  std::uint64_t alignOffset_ = 0;
  std::set<std::string> drawn_;
  std::set<std::pair<std::size_t, std::string>> completed_;
};

// ---------------------------------------------------------------------------
// explore_native
// ---------------------------------------------------------------------------

/// The faithful MicroLauncher path: a cold native explore of all 510
/// Figure-6 variants, twice over one fresh cache dir (16 KiB arrays, then
/// 128 KiB, whose shared objects all come from the first pass's compile
/// cache). The seed draws the arrays' cache-line offset within a page.
class NativeExplore final : public Workload {
 public:
  NativeExplore(std::uint64_t seed, std::string dataDir)
      : seed_(seed), dataDir_(std::move(dataDir)) {
    for (int u = 1; u <= kMaxUnroll; ++u) {
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << u); ++m) {
        names_.insert(variantName(u, m));
      }
    }
  }

  void setup(const std::string& dir) override {
    Rng rng(seed_ ^ 0x6e61746976650000ull);
    alignOffset_ = drawOffset(rng, 64);
    fs::create_directories(dir + "/cache");
    writeFile(dir + "/" + kDescriptionFile, figure6Xml(1, kMaxUnroll, true));
    dir_ = dir;
  }

  Outcome run(Tracer* tracer) override {
    Outcome out;
    for (std::uint64_t bytes : kPassBytes) {
      launcher::ExploreOptions o = options(bytes);
      std::string report;
      std::uint64_t spawns = native::spawnCount();
      std::vector<VariantResult> rows =
          tracer ? exploreComposed(o, *tracer, report)
                 : exploreProduct(o, report);
      out.passSpawns.push_back(native::spawnCount() - spawns);
      addExploreConfigs(out, rows, names_, bytes, false);
      out.report = report;
    }
    // Host timings differ run to run; the digest covers what must not.
    out.digest = digestOf(out, "");
    return out;
  }

  /// The generated set (names and contentIds) must equal the one recorded
  /// for the description in fig6_variants.txt.
  Reference reference(const std::string&) override {
    std::vector<std::string> lines = figure6Set();
    std::set<std::string> generated(lines.begin(), lines.end());
    std::set<std::string> recorded;
    std::ifstream in(dataDir_ + "/fig6_variants.txt");
    if (!in) throw McError("missing " + dataDir_ + "/fig6_variants.txt");
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') recorded.insert(line);
    }
    Reference ref;
    for (const std::string& g : generated) {
      ref.setMismatches += recorded.count(g) ? 0 : 1;
    }
    for (const std::string& r : recorded) {
      ref.setMismatches += generated.count(r) ? 0 : 1;
    }
    return ref;
  }

  std::string inputKey() const override {
    return hash::Fnv1a().u64(alignOffset_).hex();
  }

  int threads() const override { return 1 + kJobs + kCompileJobs; }

 private:
  static constexpr int kJobs = 1;
  static constexpr int kCompileJobs = 2;
  static constexpr std::uint64_t kPassBytes[2] = {16 * 1024, 128 * 1024};

  launcher::ExploreOptions options(std::uint64_t bytes) const {
    launcher::ExploreOptions o = exploreDefaults(dir_);
    o.backend = "native";
    o.backendId = "native";
    o.arrayBytes = bytes;
    o.alignOffset = alignOffset_;
    o.campaign.jobs = kJobs;
    o.campaign.compileJobs = kCompileJobs;
    o.campaign.pinWorkers = true;
    std::string soDir = o.cacheDir + "/so";
    o.backendFactory = [soDir](int) {
      native::NativeBackendOptions nb;
      nb.compileCacheDir = soDir;
      return std::make_unique<native::NativeBackend>(std::move(nb));
    };
    return o;
  }

  std::uint64_t seed_;
  std::string dataDir_;
  std::string dir_;
  std::uint64_t alignOffset_ = 0;
  std::set<std::string> names_;
};

// ---------------------------------------------------------------------------
// multicore_sim
// ---------------------------------------------------------------------------

/// A reduced Figure 14 + Table 2 study: fork points of an all-load kernel
/// on one socket and across both, with private arrays past L2 and two
/// back-to-back calls per process, plus an OpenMP region — the only path
/// into sim's MultiCoreRunner lockstep loop. The seed draws the arrays'
/// cache-line offset; kernel and points are fixed so every seed costs the
/// same (fork time grows steeply with core count and array size).
class MulticoreStudy final : public Workload {
 public:
  explicit MulticoreStudy(std::uint64_t seed) : seed_(seed) {}

  void setup(const std::string& dir) override {
    Rng rng(seed_ ^ 0x6d756c7469636f72ull);
    alignOffset_ = drawOffset(rng, 64);
    fs::create_directories(dir);
    writeFile(dir + "/" + kDescriptionFile,
              figure6Xml(kUnroll, kUnroll, false));
    dir_ = dir;
  }

  Outcome run(Tracer* tracer) override {
    return study(tracer, launcher::SimBackendOptions{});
  }

  /// Memo and steady-state off: every call cycle-simulated.
  Reference reference(const std::string&) override {
    auto t0 = std::chrono::steady_clock::now();
    Outcome exact = study(nullptr, launcher::SimBackendOptions{false, false});
    Reference ref;
    ref.wallSeconds = secondsSince(t0);
    for (const ConfigOutcome& c : exact.configs) ref.canonical[c.id] = c.canonical;
    return ref;
  }

  std::string inputKey() const override {
    return hash::Fnv1a().u64(alignOffset_).hex();
  }

  int threads() const override { return 1; }

 private:
  static constexpr int kUnroll = 8;  // Figure 14's 8-load kernel
  static constexpr int kCalls = 2;
  static constexpr int kOmpThreads = 6;
  static constexpr int kOmpRepetitions = 2;
  // The simulated Nehalem's L2 is 256 KiB per core.
  static constexpr std::uint64_t kForkBytes = 288 * 1024;
  static constexpr std::uint64_t kOmpBytes = 512 * 1024;

  Outcome study(Tracer* tracer, launcher::SimBackendOptions simOptions) {
    MaybeSpan root(tracer, "perfbench.study");
    creator::Description description;
    {
      MaybeSpan s(tracer, "creator.parse");
      description =
          creator::parseDescriptionFile(dir_ + "/" + kDescriptionFile);
    }
    std::vector<creator::GeneratedProgram> programs;
    {
      MaybeSpan s(tracer, "creator.generate");
      programs = creator::MicroCreator().generate(description);
      if (s.span) s.span->span.items = programs.size();
    }
    if (programs.size() != 1) {
      throw McError("the study description must generate one kernel");
    }
    std::unique_ptr<launcher::Backend> backend =
        std::make_unique<launcher::SimBackend>(
            launcher::archByName(kSimArch).config, simOptions);
    if (tracer) {
      backend = std::make_unique<TracedBackend>(std::move(backend), *tracer,
                                                nullptr, -1);
    }
    std::unique_ptr<launcher::KernelHandle> kernel =
        backend->load(programs[0]);

    Outcome out;
    csv::Table table({"mode", "width", "array_bytes", "worst_cpi",
                      "mean_cpi"});
    auto record = [&](const std::string& mode, int width,
                      std::uint64_t bytes,
                      const std::vector<launcher::InvokeResult>& results) {
      ConfigOutcome c;
      c.id = mode + ":" + std::to_string(width);
      double worst = 0.0, sum = 0.0;
      for (const launcher::InvokeResult& r : results) {
        c.canonical += hex(r.tscCycles) + "/" + std::to_string(r.iterations) +
                       ";";
        double cpi = r.iterations ? r.tscCycles / r.iterations : 0.0;
        worst = std::max(worst, cpi);
        sum += cpi;
        if (r.iterations == 0 || !(r.tscCycles > 0)) {
          c.ok = false;
          c.problem = "a process ran no iterations";
        }
      }
      table.beginRow()
          .add(mode)
          .add(width)
          .add(bytes)
          .add(worst)
          .add(results.empty() ? 0.0 : sum / results.size())
          .commit();
      out.configs.push_back(std::move(c));
    };
    // One socket (compact pinning fills socket 0 first) and both sockets
    // (scatter pinning alternates them), private arrays past L2.
    const std::pair<const char*, launcher::PinPolicy> kPolicies[] = {
        {"fork_compact", launcher::PinPolicy::Compact},
        {"fork_scatter", launcher::PinPolicy::Scatter}};
    launcher::KernelRequest forkRequest = requestFor(kForkBytes);
    for (auto [mode, policy] : kPolicies) {
      record(mode, 2, kForkBytes,
             backend->invokeFork(*kernel, forkRequest, 2, kCalls, policy));
    }
    record("fork_scatter", 4, kForkBytes,
           backend->invokeFork(*kernel, forkRequest, 4, kCalls,
                               launcher::PinPolicy::Scatter));
    record("openmp", kOmpThreads, kOmpBytes,
           {backend->invokeOpenMp(*kernel, requestFor(kOmpBytes),
                                  kOmpThreads, kOmpRepetitions)});
    out.report = table.toString();
    out.digest = digestOf(out, out.report);
    return out;
  }

  launcher::KernelRequest requestFor(std::uint64_t bytes) const {
    launcher::KernelRequest request;
    request.n = static_cast<int>(bytes / 4);
    request.arrays.push_back(launcher::ArraySpec{bytes, 4096, alignOffset_});
    return request;
  }

  std::uint64_t seed_;
  std::string dir_;
  std::uint64_t alignOffset_ = 0;
};

}  // namespace

std::vector<std::string> figure6Set() {
  std::vector<std::string> lines;
  for (const creator::GeneratedProgram& p :
       creator::MicroCreator().generateFromText(
           figure6Xml(1, kMaxUnroll, true))) {
    lines.push_back(p.name + " " + p.contentId);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void Reference::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << "wall_seconds " << strings::format("%.9f", wallSeconds) << "\n";
  out << "set_mismatches " << setMismatches << "\n";
  for (const auto& [id, canonical] : canonical) {
    out << "config " << id << " " << canonical << "\n";
  }
  if (!out) throw McError("cannot write " + path);
}

Reference Reference::read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw McError("cannot read reference " + path);
  Reference ref;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "wall_seconds") {
      fields >> ref.wallSeconds;
    } else if (key == "set_mismatches") {
      fields >> ref.setMismatches;
    } else if (key == "config") {
      std::string id, canonical;
      fields >> id >> canonical;
      ref.canonical[id] = canonical;
    }
  }
  return ref;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& dataDir) {
  // Array sizes follow §5.1's convention on the simulated Nehalem (32 KiB
  // L1, 256 KiB L2): L1 = half the L1 size, L3 = twice the L2 size. At L3
  // the 14 variants are the fixed unroll 1..3 set rather than a draw: some
  // longer load/store patterns never settle into a replayable memo state
  // and cost up to 10x more per variant, so a drawn set would make the run
  // cost depend on the seed far beyond the benchmark's bounds.
  // At L3 the array offset is fixed too: it moves the run's peak memory by
  // about 12% (the memo holds more or fewer machine snapshots), and one
  // input set lets every seed share the reference, a --sim-exact run that
  // takes over ten times a pass.
  if (name == "explore_sim_l1") {
    return std::make_unique<SimExplore>(seed, 16 * 1024, kMaxUnroll, 60, 64);
  }
  if (name == "explore_sim_l3") {
    return std::make_unique<SimExplore>(seed, 512 * 1024, 3, 0, 1);
  }
  if (name == "explore_native") {
    return std::make_unique<NativeExplore>(seed, dataDir);
  }
  if (name == "multicore_sim") return std::make_unique<MulticoreStudy>(seed);
  throw McError("unknown workload '" + name + "'");
}

}  // namespace perfbench
