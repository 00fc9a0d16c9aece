#pragma once

#include <memory>
#include <mutex>
#include <thread>

#include "launcher/backend.hpp"
#include "native/compile.hpp"
#include "native/perf_counters.hpp"

namespace microtools::launcher {
struct ExploreOptions;
class CampaignCsvSink;
}  // namespace microtools::launcher

namespace microtools::native {

/// Construction knobs for NativeBackend.
struct NativeBackendOptions {
  /// Passed through to every compilation (see CompileOptions::cacheDir):
  /// content-addressed .so cache directory; empty = no persistent cache.
  std::string compileCacheDir;

  /// Open a perf::CounterGroup around every invoke() to derive IPC and
  /// cache-miss metrics. When the group cannot be opened (no perf support,
  /// perf_event_paranoid, VM without a PMU) measurement silently degrades
  /// to rdtsc-only and InvokeResult::counters stays invalid.
  bool perfCounters = true;
};

/// Hardware-backed execution: the faithful MicroLauncher path. Kernels are
/// compiled to shared objects at run time, pinned with sched_setaffinity and
/// timed with a serialized rdtsc; fork mode synchronizes child processes
/// through a pipe barrier before any child starts timing (§4.6); OpenMP mode
/// splits the trip count across an `omp parallel` region.
///
/// Absolute numbers reflect the host this runs on, not the paper's 2010-era
/// Nehalems — use the sim backend to regenerate the paper's figures.
class NativeBackend final : public launcher::Backend {
 public:
  NativeBackend();
  explicit NativeBackend(NativeBackendOptions options);

  std::string name() const override { return "native"; }

  std::unique_ptr<launcher::KernelHandle> load(
      const std::string& asmText, const std::string& functionName) override;
  using Backend::load;

  /// Loads a kernel from C source instead of assembly.
  std::unique_ptr<launcher::KernelHandle> loadCSource(
      const std::string& cText, const std::string& functionName);

  /// Loads a pre-built shared object.
  std::unique_ptr<launcher::KernelHandle> loadSharedObject(
      const std::string& path, const std::string& functionName);

  /// Accepts "asm", "c" and "so" (for "so" the text is the .so path).
  std::unique_ptr<launcher::KernelHandle> loadSource(
      const std::string& kind, const std::string& text,
      const std::string& functionName) override;

  /// Batch compilation: all units in ONE compiler invocation / one shared
  /// object (see CompileBatch). Falls back to per-unit compilation when the
  /// batched invocation fails, so one broken variant cannot take down its
  /// batch mates; a unit that still fails comes back as a null entry.
  std::vector<std::unique_ptr<launcher::KernelHandle>> loadBatch(
      const std::vector<launcher::SourceUnit>& units) override;

  /// Batch-compiles asm/c units and rewrites them as "so" units pointing at
  /// the compiled artifact, so the campaign's pinned measurement workers pay
  /// only a dlopen. Thread-safe with respect to invoke()/loadSource(). With
  /// no compile cache dir, this backend retains the temporary shared objects
  /// until it is destroyed so the returned paths stay loadable.
  std::vector<launcher::SourceUnit> prepareBatch(
      std::vector<launcher::SourceUnit> units) override;

  launcher::InvokeResult invoke(launcher::KernelHandle& kernel,
                                const launcher::KernelRequest& request) override;

  double timerOverheadCycles() const override;

  std::vector<launcher::InvokeResult> invokeFork(
      launcher::KernelHandle& kernel, const launcher::KernelRequest& request,
      int processes, int calls, launcher::PinPolicy policy) override;

  launcher::InvokeResult invokeOpenMp(launcher::KernelHandle& kernel,
                                      const launcher::KernelRequest& request,
                                      int threads, int repetitions) override;

 private:
  struct NativeKernel;
  static NativeKernel& unwrap(launcher::KernelHandle& kernel);

  /// The counter group for the CURRENT thread. perf_event_open with pid=0
  /// binds to the calling thread, but this backend is typically constructed
  /// on the campaign's main thread and invoked on a pinned worker — so the
  /// group is created lazily inside invoke() and recreated whenever the
  /// invoking thread changes. Returns nullptr when counters are disabled.
  perf::CounterGroup* threadCounters();

  NativeBackendOptions options_;

  std::unique_ptr<perf::CounterGroup> counterGroup_;
  std::thread::id counterThread_;
  bool counterUnavailableLogged_ = false;

  /// Shared objects kept alive for prepareBatch()'s "so" paths when there is
  /// no persistent cache to hold them (see prepareBatch). Guarded: the
  /// campaign calls prepareBatch from several compile workers at once.
  std::mutex retainedMutex_;
  std::vector<std::shared_ptr<SharedObject>> retainedObjects_;
};

/// The `--backend native` wiring of microlauncher and microtools explore:
/// when options.backend is "native", every worker gets its own NativeBackend
/// (options.compileCacheDir, options.perfCounters) under the "native" cache
/// identity. Any other backend is left to launcher::backendFactoryFor.
void useNativeBackend(launcher::ExploreOptions& options);

/// Opens the campaign CSV at options.csvPath (null when it is empty) and
/// wires its resume: a full sweep skips the variants already terminal in
/// the file, a halving search resumes round by round. A new file starts
/// with the environment preamble, which names the compiler on the native
/// backend (the reason this lives on the native side).
std::unique_ptr<launcher::CampaignCsvSink> openCampaignCsv(
    launcher::ExploreOptions& options);

}  // namespace microtools::native
