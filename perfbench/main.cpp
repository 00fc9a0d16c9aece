// perfbench_harness: the measuring half of the tool benchmark (run.py builds
// it and drives it). Two modes:
//
//   perfbench_harness reference --workload W --seed S --dir D --cache-dir C
//       Draws the seed's inputs and computes the reference results the
//       output checks compare against, once per distinct input set; prints
//       the reference file's path.
//
//   perfbench_harness generated-set
//       Prints the Figure-6 generated set (fig6_variants.txt's contents).
//
//   perfbench_harness run --workload W --seed S --seconds T --trace 0|1
//                         --dir D --ref FILE [--trace-out FILE]
//       Repeats set-up + one timed pass of the workload until T seconds
//       have passed, checks every pass against the reference, and prints
//       one JSON line: the result (correct/attempted/failed/metrics) plus a
//       "record" of per-pass figures and the host environment. With
//       --trace 1 it alternates product-path passes with traced passes and
//       reports per-layer metrics instead of the end-to-end ones.

#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "native/compile.hpp"
#include "support/envinfo.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using microtools::McError;
using microtools::strings::format;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  return std::isfinite(v) ? format("%.17g", v) : "null";
}

std::string jsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += jsonNumber(values[i]);
  }
  return out + "]";
}

/// Peak resident set of this process (VmHWM) since start or the last
/// resetPeakRss(), in MiB.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Lowers VmHWM to the current resident set (Linux clear_refs "5"), so the
/// next peakRssMb() reads one pass's peak. Without it, the peak covers the
/// whole process so far.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Creates `dir` and asks the filesystem to place each of its
/// subdirectories in a block group of its own, as it does for top-level
/// directories (ext4's TOPDIR flag; other filesystems ignore the request).
///
/// ext4 without a journal skips, on every inode allocation, each inode of
/// the group freed in the last minute (five more while its inode-table
/// block is dirty), one lookup per freed inode. Once a run has deleted a
/// few thousand files, every file created in the same group costs about
/// 1 ms of kernel time, and how much depends on what ran in the minutes
/// before. Spread pass directories keep a run's files out of the groups an
/// earlier run has just emptied.
void makeSpreadDirectory(const std::string& dir) {
  fs::create_directories(dir);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  int flags = 0;
  if (::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0) {
    flags |= FS_TOPDIR_FL;
    ::ioctl(fd, FS_IOC_SETFLAGS, &flags);
  }
  ::close(fd);
}

/// This machine's CPU time so far (the cpu line of /proc/stat), in ticks:
/// all of it, and the part the hypervisor gave to other guests ("steal",
/// the 8th field; 0 where it is not reported).
struct StealClock {
  double steal = 0, total = 0;

  static StealClock now() {
    StealClock c;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (int field = 0; field < 8; ++field) {
      double ticks = 0;
      stat >> ticks;
      c.total += ticks;
      if (field == 7) c.steal = ticks;
    }
    return c;
  }

  /// Share of the CPU time since `before` that was stolen.
  double shareSince(const StealClock& before) const {
    double dt = total - before.total;
    return dt > 0 ? (steal - before.steal) / dt : 0.0;
  }
};

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args parseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) throw McError("usage: perfbench_harness reference|run --key value ...");
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw McError(std::string("unexpected argument ") + argv[i]);
    }
    args.values[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from one traced pass
// ---------------------------------------------------------------------------

bool named(const Span& s, std::string_view name) { return s.name == name; }

bool isSimCall(const Span& s) {
  return named(s, "launcher.sim_backend.invoke") ||
         named(s, "launcher.sim_backend.fork") ||
         named(s, "launcher.sim_backend.openmp");
}

/// Calls a measurement worker makes on its own backend (everything but
/// the compile producers' batch preparation).
bool isWorkerCall(const Span& s) {
  return s.worker >= 0 && !named(s, "native.compile") &&
         !named(s, "launcher.sim_backend.prepare");
}

std::map<std::string, double> layerMetrics(const std::vector<Span>& spans,
                                           const Outcome& out) {
  std::map<std::string, double> m;
  std::map<std::string, double> total;
  std::map<std::string, double> count;
  for (const Span& s : spans) {
    total[s.name] += s.seconds();
    count[s.name] += 1;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  m["creator.generate_s"] = total["creator.parse"] + total["creator.generate"];
  double variants = 0, rejected = 0, hits = 0;
  for (const Span& s : spans) {
    if (named(s, "creator.generate")) variants += static_cast<double>(s.items);
    if (named(s, "verify.preflight") && s.rejected) ++rejected;
    if (named(s, "launcher.result_store.probe")) hits += static_cast<double>(s.items);
  }
  m["creator.variants"] = variants;
  m["verify.preflight_s"] = total["verify.preflight"];
  m["verify.predict_s"] = total["verify.predict"];
  m["verify.rejected_ratio"] = ratio(rejected, count["verify.preflight"]);
  m["asmparse.load_s"] = total["asmparse.load"];

  const std::string sb = "launcher.sim_backend.";
  std::vector<double> replayUs, simulateUs;
  double simulatedSeconds = 0, simulatedCycles = 0, allCycles = 0;
  for (const Span& s : spans) {
    if (!isSimCall(s)) continue;
    allCycles += s.cycles;
    bool invoke = named(s, "launcher.sim_backend.invoke");
    if (invoke && s.replayed) {
      replayUs.push_back(s.seconds() * 1e6);
      continue;
    }
    if (invoke) simulateUs.push_back(s.seconds() * 1e6);
    simulatedSeconds += s.seconds();
    simulatedCycles += s.cycles;
  }
  m[sb + "invoke_s"] = total[sb + "invoke"];
  m[sb + "invokes"] = count[sb + "invoke"];
  m[sb + "replay_ratio"] = ratio(replayUs.size(), count[sb + "invoke"]);
  m[sb + "replay_us_p50"] = median(replayUs);
  Tail replayTail = tailOf(replayUs);
  m[sb + "replay_us_tail"] = replayTail.value;
  m[sb + "replay_us_tail_pct"] = replayTail.percentile;
  m[sb + "simulate_us_p50"] = median(simulateUs);
  Tail simulateTail = tailOf(simulateUs);
  m[sb + "simulate_us_tail"] = simulateTail.value;
  m[sb + "simulate_us_tail_pct"] = simulateTail.percentile;
  m[sb + "reset_s"] = total[sb + "reset"];
  m[sb + "fork_s"] = total[sb + "fork"];
  m[sb + "openmp_s"] = total[sb + "openmp"];
  m["sim.host_ns_per_cycle"] = ratio(simulatedSeconds * 1e9, simulatedCycles);
  m["sim.simulated_cycles"] = allCycles;

  const std::string rs = "launcher.result_store.";
  m[rs + "open_s"] = total[rs + "open"];
  m[rs + "probe_s"] = total[rs + "probe"];
  m[rs + "store_s"] = total[rs + "store"];
  m[rs + "hit_ratio"] = ratio(hits, count[rs + "probe"]);

  // Campaign: self time is run time not covered by any child span (hooks
  // on the campaign thread, backend calls on the workers). Worker idle time
  // is, per measurement-worker thread, run time outside every span on that
  // thread (backend calls and the cache stores it makes) — mostly waiting
  // for compiled batches on the native pipeline.
  double self = 0, idle = 0;
  for (const Span& run : spans) {
    if (!named(run, "launcher.campaign.run")) continue;
    std::vector<std::pair<double, double>> children;
    std::set<int> workerThreads;
    for (const Span& s : spans) {
      if (s.parent != run.id) continue;
      children.emplace_back(s.start, s.end);
      if (isWorkerCall(s)) workerThreads.insert(s.thread);
    }
    self += run.seconds() - coveredSeconds(children, run.start, run.end);
    for (int thread : workerThreads) {
      std::vector<std::pair<double, double>> busy;
      for (const Span& s : spans) {
        if (s.thread == thread && s.parent == run.id) {
          busy.emplace_back(s.start, s.end);
        }
      }
      idle += run.seconds() - coveredSeconds(busy, run.start, run.end);
    }
  }
  const std::string cp = "launcher.campaign.";
  m[cp + "run_s"] = total[cp + "run"];
  m[cp + "self_s"] = self;
  m[cp + "worker_idle_s"] = idle;
  double repetitions = 0;
  std::vector<double> nativeCv;
  for (const auto& r : out.rows) {
    if (r.status == "ok" && !r.cached) repetitions += r.repetitions;
  }
  m[cp + "repetitions"] = repetitions;

  m["native.compile_s"] = total["native.compile"];
  double spawns = 0;
  for (std::uint64_t s : out.passSpawns) spawns += static_cast<double>(s);
  m["native.spawns"] = spawns;
  m["native.spawns_pass2"] =
      out.passSpawns.size() > 1 ? static_cast<double>(out.passSpawns[1]) : 0.0;
  m["native.load_s"] = total["native.load"];
  m["native.invoke_s"] = total["native.invoke"];
  if (count["native.invoke"] > 0) {
    for (const auto& r : out.rows) {
      if (r.status == "ok") nativeCv.push_back(r.finalCv);
    }
  }
  m["native.cv_median"] = median(nativeCv);

  // Share of traced wall time outside every named layer span.
  double rootSeconds = 0, covered = 0;
  for (const Span& root : spans) {
    if (root.layer() != "perfbench") continue;
    std::vector<std::pair<double, double>> inside;
    for (const Span& s : spans) {
      if (s.layer() != "perfbench") inside.emplace_back(s.start, s.end);
    }
    rootSeconds += root.seconds();
    covered += coveredSeconds(inside, root.start, root.end);
  }
  m["trace.unattributed_ratio"] = ratio(rootSeconds - covered, rootSeconds);
  m["trace.traced_wall_s"] = rootSeconds;
  return m;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// Computes the reference for the seed's inputs into --cache-dir, unless a
/// seed that drew the same inputs already did, and prints its path.
int referenceMode(const Args& args) {
  const std::string workload = args.get("workload");
  std::unique_ptr<Workload> w = makeWorkload(
      workload, std::stoull(args.get("seed", "1")), args.get("data"));
  std::string dir = args.get("dir");
  fs::remove_all(dir);
  w->setup(dir + "/inputs");
  fs::create_directories(args.get("cache-dir"));
  std::string path =
      args.get("cache-dir") + "/" + workload + "-" + w->inputKey() + ".txt";
  if (!fs::exists(path)) {
    Reference ref = w->reference(dir);
    ref.write(path + ".tmp");
    fs::rename(path + ".tmp", path);
    std::printf("reference: %zu configuration(s), memo-off wall %.3f s\n",
                ref.canonical.size(), ref.wallSeconds);
  }
  fs::remove_all(dir);
  std::printf("%s\n", path.c_str());
  return 0;
}

/// Outcome checks against the reference: returns the failed configuration
/// count and prints the first few problems.
std::size_t check(const Outcome& out, const Reference& ref, int& printed) {
  std::size_t failed = 0;
  for (const ConfigOutcome& c : out.configs) {
    std::string problem = c.problem;
    if (c.ok && !ref.canonical.empty()) {
      auto it = ref.canonical.find(c.id);
      if (it == ref.canonical.end()) {
        problem = "no reference result";
      } else if (it->second != c.canonical) {
        problem = "differs from the reference: " + c.canonical + " vs " +
                  it->second;
      }
    }
    if (!c.ok || !problem.empty()) {
      ++failed;
      if (printed++ < 5) {
        std::fprintf(stderr, "check failed: %s: %s\n", c.id.c_str(),
                     problem.c_str());
      }
    }
  }
  return failed;
}

int runMode(const Args& args) {
  const std::string workload = args.get("workload");
  const std::uint64_t seed = std::stoull(args.get("seed", "1"));
  const double seconds = std::stod(args.get("seconds", "10"));
  const bool trace = args.get("trace", "0") == "1";
  const std::string dir = args.get("dir");
  std::unique_ptr<Workload> w =
      makeWorkload(workload, seed, args.get("data"));

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (w->threads() > nproc) {
    std::fprintf(stderr,
                 "error: %s needs %d threads but this host has %ld CPUs\n",
                 workload.c_str(), w->threads(), nproc);
    return 3;
  }
  Reference ref = Reference::read(args.get("ref"));

  std::vector<double> setups, walls, rates, peaks, steals, tracedWalls;
  std::map<std::string, std::vector<double>> layer;
  std::size_t attempted = 0, failed = 0;
  int printed = 0;
  std::set<std::string> untracedDigests, tracedDigests;
  // The last traced pass's tracer owns the variant ids its spans point to.
  std::unique_ptr<Tracer> lastTracer;
  std::vector<Span> lastSpans;
  std::string lastReport;
  fs::remove_all(dir);
  makeSpreadDirectory(dir);
  // The filesystem picks a subdirectory's group from a hash of its name:
  // names unique to this run keep its passes out of the groups where an
  // earlier run's passes were just deleted.
  const std::string runTag = std::to_string(::getpid()) + "-";
  constexpr int kSetupsPerPass = 3;

  auto loopStart = Clock::now();
  for (int pass = 0;; ++pass) {
    auto passStart = Clock::now();
    bool traced = trace && pass % 2 == 1;
    std::string passDir = dir + "/pass" + runTag + std::to_string(pass);
    // The kernel compiles' temporaries ($TMPDIR) get a fresh directory per
    // pass as well: each pass creates and deletes about a thousand.
    std::string tmpDir = dir + "/tmp" + runTag + std::to_string(pass);
    fs::create_directories(tmpDir);
    ::setenv("TMPDIR", tmpDir.c_str(), 1);
    // Set-up is timed kSetupsPerPass times before every pass, in fresh
    // subdirectories of the pass directory; the pass runs in the last one.
    // Samples taken this way are alike whatever the pass count, and spread
    // over the whole run.
    fs::create_directories(passDir);
    std::string workDir;
    for (int i = 0; i < kSetupsPerPass; ++i) {
      workDir = passDir + "/" + std::to_string(i);
      auto t0 = Clock::now();
      w->setup(workDir);
      setups.push_back(since(t0));
    }
    std::unique_ptr<Tracer> tracer;
    if (traced) tracer = std::make_unique<Tracer>();
    resetPeakRss();
    StealClock c1 = StealClock::now();
    auto t1 = Clock::now();
    Outcome out = w->run(tracer.get());
    double wall = since(t1);
    double stolen = StealClock::now().shareSince(c1);
    double peak = peakRssMb();

    attempted += out.configs.size();
    failed += check(out, ref, printed);
    lastReport = out.report;
    if (traced) {
      tracedWalls.push_back(wall);
      tracedDigests.insert(out.digest);
      lastSpans = tracer->spans();
      for (auto& [name, value] : layerMetrics(lastSpans, out)) {
        layer[name].push_back(value);
      }
      lastTracer = std::move(tracer);
    } else {
      walls.push_back(wall);
      steals.push_back(stolen);
      rates.push_back(static_cast<double>(out.configs.size()) / wall);
      peaks.push_back(peak);
      untracedDigests.insert(out.digest);
    }
    fs::remove_all(passDir);
    fs::remove_all(tmpDir);
    // Stop before a pass (a traced pair in trace mode) that would end past
    // the deadline; a traced run always ends on a traced pass.
    double ahead = since(passStart) * (trace ? 2 : 1);
    if ((!trace || traced) && since(loopStart) + ahead > seconds) break;
  }
  fs::remove_all(dir);
  if (ref.setMismatches) {
    std::fprintf(stderr, "check failed: the generated set differs from the "
                         "recorded one in %zu line(s)\n",
                 ref.setMismatches);
    failed += ref.setMismatches;
  }

  // A digest is a pure function of the seed's inputs: every pass of a run,
  // traced or not, must produce the same one.
  bool digestsAgree = untracedDigests.size() == 1 &&
                      (!trace || tracedDigests == untracedDigests);
  if (!digestsAgree) {
    std::fprintf(stderr, "check failed: result digests differ across passes "
                         "(%zu untraced, %zu traced)\n",
                 untracedDigests.size(), tracedDigests.size());
  }
  bool correct = failed == 0 && digestsAgree;

  std::map<std::string, double> metrics;
  if (!trace) {
    metrics["wall_s"] = median(walls);
    metrics["configs_per_s"] = median(rates);
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = median(peaks);
  } else {
    for (auto& [name, values] : layer) metrics[name] = median(values);
    metrics["trace.overhead_s"] = median(tracedWalls) - median(walls);
    metrics["trace.overhead_ratio"] =
        metrics["trace.overhead_s"] / median(walls);
    metrics["trace.digest_match"] = digestsAgree ? 1.0 : 0.0;

    std::printf("%s", lastReport.c_str());
    std::printf("per-layer spans of the last traced pass (%s, seed %llu):\n",
                workload.c_str(), static_cast<unsigned long long>(seed));
    std::printf("%s", renderTable(summarize(lastSpans)).c_str());
    std::printf("unattributed share of traced wall time: %.4f\n",
                metrics["trace.unattributed_ratio"]);
    std::string traceOut = args.get("trace-out");
    if (!traceOut.empty()) {
      std::ofstream(traceOut, std::ios::binary) << chromeTraceJson(lastSpans);
      std::printf("chrome trace: %s\n", traceOut.c_str());
    }
  }

  // The host record: support::envinfo fields plus the compiler identities.
  microtools::env::EnvSnapshot env = microtools::env::captureEnv();
  env.set("kernel_compiler", microtools::native::compilerIdentity());
  env.set("build_compiler", __VERSION__);
  env.set("nproc", std::to_string(nproc));
  env.set("workload_threads", std::to_string(w->threads()));

  std::string metricsJson;
  for (const auto& [name, value] : metrics) {
    metricsJson += (metricsJson.empty() ? "" : ",") + jsonString(name) +
                   ":" + jsonNumber(value);
  }
  std::string envJson;
  for (const auto& f : env.fields) {
    envJson += (envJson.empty() ? "" : ",") + jsonString(f.key) + ":" +
               jsonString(f.value);
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s},"
      "\"record\":{\"workload\":%s,\"seed\":%llu,\"passes\":%zu,"
      "\"wall_s\":%s,\"steal_share\":%s,\"traced_wall_s\":%s,"
      "\"setup_s\":%s,\"peak_rss_mb\":%s,"
      "\"failed_ratio\":%s,\"memo_off_wall_s\":%s,\"digest\":%s,"
      "\"env\":{%s}}}\n",
      correct ? "true" : "false", attempted, failed, metricsJson.c_str(),
      jsonString(workload).c_str(), static_cast<unsigned long long>(seed),
      walls.size() + tracedWalls.size(), jsonList(walls).c_str(),
      jsonList(steals).c_str(), jsonList(tracedWalls).c_str(),
      jsonList(setups).c_str(), jsonList(peaks).c_str(),
      jsonNumber(attempted ? static_cast<double>(failed) / attempted : 1.0)
          .c_str(),
      jsonNumber(ref.wallSeconds).c_str(),
      jsonString(untracedDigests.empty() ? "" : *untracedDigests.begin())
          .c_str(),
      envJson.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parseArgs(argc, argv);
    if (args.mode == "reference") return referenceMode(args);
    if (args.mode == "run") return runMode(args);
    if (args.mode == "generated-set") {
      for (const std::string& line : figure6Set()) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    throw McError("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
