#include "native/native_backend.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "launcher/explore.hpp"
#include "native/affinity.hpp"
#include "native/timing.hpp"
#include "support/envinfo.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace microtools::native {

using launcher::ArraySpec;
using launcher::InvokeResult;
using launcher::KernelRequest;

namespace {

/// An allocation honoring an (alignment, offset) request.
struct AlignedBuffer {
  void* raw = nullptr;
  void* base = nullptr;

  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& o) noexcept : raw(o.raw), base(o.base) {
    o.raw = nullptr;
    o.base = nullptr;
  }
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    std::swap(raw, o.raw);
    std::swap(base, o.base);
    return *this;
  }
  ~AlignedBuffer() { std::free(raw); }

  static AlignedBuffer allocate(const ArraySpec& spec) {
    // Past 2^63 no power of two is left to round up to: the doubling would
    // wrap to 0 and spin forever.
    if (spec.alignment > (std::uint64_t{1} << 63)) {
      throw ExecutionError("array alignment " +
                           std::to_string(spec.alignment) +
                           " has no power of two to round up to");
    }
    std::size_t alignment = 64;
    while (alignment < spec.alignment) alignment <<= 1;
    AlignedBuffer buf;
    std::size_t total = 0;
    if (__builtin_add_overflow(spec.bytes, spec.offset, &total) ||
        __builtin_add_overflow(total, launcher::kArraySlackBytes, &total)) {
      throw ExecutionError("array size plus offset overflows");
    }
    if (posix_memalign(&buf.raw, alignment, total) != 0) {
      throw ExecutionError("cannot allocate kernel array");
    }
    std::memset(buf.raw, 0, total);
    buf.base = static_cast<char*>(buf.raw) + spec.offset;
    return buf;
  }
};

bool sameSpecs(const std::vector<ArraySpec>& a,
               const std::vector<ArraySpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bytes != b[i].bytes || a[i].alignment != b[i].alignment ||
        a[i].offset != b[i].offset) {
      return false;
    }
  }
  return true;
}

int nativeScatterPin(int processIndex, int processes) {
  // Without a topology library, approximate scatter by spreading processes
  // evenly over the online CPUs (compact packs them consecutively).
  int cores = availableCores();
  if (processes <= 0) processes = 1;
  int stride = std::max(1, cores / processes);
  return (processIndex * stride) % cores;
}

}  // namespace

struct NativeBackend::NativeKernel final : public launcher::KernelHandle {
  explicit NativeKernel(CompiledKernel k) : kernel(std::move(k)) {}

  CompiledKernel kernel;
  std::vector<ArraySpec> cachedSpecs;
  std::vector<AlignedBuffer> buffers;
  std::vector<void*> pointers;

  void ensureBuffers(const KernelRequest& request) {
    if (sameSpecs(cachedSpecs, request.arrays)) return;
    buffers.clear();
    pointers.clear();
    for (const ArraySpec& spec : request.arrays) {
      buffers.push_back(AlignedBuffer::allocate(spec));
      pointers.push_back(buffers.back().base);
    }
    cachedSpecs = request.arrays;
  }

  int call(int n) {
    return kernel.call(n, pointers.data(),
                       static_cast<int>(pointers.size()));
  }
};

NativeBackend::NativeBackend() = default;

NativeBackend::NativeBackend(NativeBackendOptions options)
    : options_(std::move(options)) {}

NativeBackend::NativeKernel& NativeBackend::unwrap(
    launcher::KernelHandle& kernel) {
  return dynamic_cast<NativeKernel&>(kernel);
}

std::unique_ptr<launcher::KernelHandle> NativeBackend::load(
    const std::string& asmText, const std::string& functionName) {
  auto handle = std::make_unique<NativeKernel>(CompiledKernel(
      asmText, "asm", functionName, CompileOptions{options_.compileCacheDir}));
  handle->origin = this;
  return handle;
}

std::unique_ptr<launcher::KernelHandle> NativeBackend::loadCSource(
    const std::string& cText, const std::string& functionName) {
  auto handle = std::make_unique<NativeKernel>(CompiledKernel(
      cText, "c", functionName, CompileOptions{options_.compileCacheDir}));
  handle->origin = this;
  return handle;
}

std::unique_ptr<launcher::KernelHandle> NativeBackend::loadSharedObject(
    const std::string& path, const std::string& functionName) {
  auto handle = std::make_unique<NativeKernel>(
      CompiledKernel::fromSharedObject(path, functionName));
  handle->origin = this;
  return handle;
}

std::unique_ptr<launcher::KernelHandle> NativeBackend::loadSource(
    const std::string& kind, const std::string& text,
    const std::string& functionName) {
  if (kind == "asm") return load(text, functionName);
  if (kind == "c") return loadCSource(text, functionName);
  if (kind == "so") return loadSharedObject(text, functionName);
  throw ExecutionError("native backend cannot load '" + kind + "' kernels");
}

std::vector<std::unique_ptr<launcher::KernelHandle>> NativeBackend::loadBatch(
    const std::vector<launcher::SourceUnit>& units) {
  // Pre-built "so" units can't be batch-compiled; only asm/c batches where
  // every unit is compilable go through the single-invocation path.
  bool compilable = !units.empty();
  for (const launcher::SourceUnit& unit : units) {
    if (unit.kind != "asm" && unit.kind != "c") compilable = false;
  }
  if (compilable) {
    try {
      CompileBatch batch(CompileOptions{options_.compileCacheDir});
      auto kernels = batch.compile(units);
      std::vector<std::unique_ptr<launcher::KernelHandle>> handles;
      handles.reserve(kernels.size());
      bool allResolved = true;
      for (auto& kernel : kernels) {
        if (!kernel) {
          allResolved = false;
          break;
        }
        auto handle = std::make_unique<NativeKernel>(std::move(*kernel));
        handle->origin = this;
        handles.push_back(std::move(handle));
      }
      if (allResolved) return handles;
      // A unit's symbol didn't resolve — recompile individually below so the
      // bad unit gets its own diagnostic (null entry) without poisoning the
      // rest.
    } catch (const McError&) {
      // The batched invocation failed as a whole (one bad variant breaks the
      // single compiler run): isolate it by falling back to per-unit loads.
    }
  }
  return Backend::loadBatch(units);
}

std::vector<launcher::SourceUnit> NativeBackend::prepareBatch(
    std::vector<launcher::SourceUnit> units) {
  bool compilable = !units.empty();
  for (const launcher::SourceUnit& unit : units) {
    if (unit.kind != "asm" && unit.kind != "c") compilable = false;
  }
  if (!compilable) return units;

  CompileBatch batch(CompileOptions{options_.compileCacheDir});
  std::vector<std::optional<CompiledKernel>> kernels;
  bool batched = true;
  try {
    kernels = batch.compile(units);
  } catch (const McError&) {
    // Whole-batch compile failed; try each unit alone so only the broken
    // one stays unprepared (its loadSource in the measurement worker will
    // then produce the real diagnostic).
    batched = false;
    kernels.clear();
    for (const launcher::SourceUnit& unit : units) {
      try {
        kernels.emplace_back(batch.compileOne(unit));
      } catch (const McError&) {
        kernels.emplace_back(std::nullopt);
      }
    }
  }

  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!kernels[i]) continue;
    std::string path = kernels[i]->sharedObjectPath();
    std::string fn = batched
                         ? CompileBatch::uniquifiedName(units[i].functionName, i)
                         : units[i].functionName;
    if (options_.compileCacheDir.empty()) {
      // No cache dir: the .so is a temporary owned by the SharedObject.
      // Retain it so the file outlives this call and the returned path
      // stays dlopen-able for the measurement workers.
      std::lock_guard<std::mutex> lock(retainedMutex_);
      retainedObjects_.push_back(kernels[i]->sharedObject());
    }
    units[i] = launcher::SourceUnit{"so", std::move(path), std::move(fn)};
  }
  return units;
}

perf::CounterGroup* NativeBackend::threadCounters() {
  if (!options_.perfCounters) return nullptr;
  std::thread::id self = std::this_thread::get_id();
  if (!counterGroup_ || counterThread_ != self) {
    // pid=0 binds the group to the calling thread; the backend may have been
    // constructed elsewhere, so (re)create on the thread that measures.
    counterGroup_ = std::make_unique<perf::CounterGroup>(
        perf::CounterGroup::defaultHardwareEvents());
    counterThread_ = self;
    if (!counterGroup_->available() && !counterUnavailableLogged_) {
      log::debug("perf counters unavailable, measuring rdtsc-only: " +
                 counterGroup_->unavailableReason());
      counterUnavailableLogged_ = true;
    }
  }
  return counterGroup_.get();
}

InvokeResult NativeBackend::invoke(launcher::KernelHandle& kernel,
                                   const KernelRequest& request) {
  NativeKernel& k = unwrap(kernel);
  k.ensureBuffers(request);
  if (!pinToCore(request.core)) {
    log::warn("sched_setaffinity failed; running unpinned");
  }
  perf::CounterGroup* counters = threadCounters();
  // The counter window wraps the rdtsc window (not the other way round) so
  // the tsc timing path is bit-identical with counters on or off.
  if (counters) counters->start();
  std::uint64_t t0 = readTsc();
  int iterations = k.call(request.n);
  std::uint64_t t1 = readTsc();
  InvokeResult out;
  if (counters) {
    perf::CounterSample sample = counters->stop();
    if (sample.valid) {
      const auto& events = counters->events();
      out.counters.valid = true;
      out.counters.cycles = sample.value(events, "cycles");
      out.counters.instructions = sample.value(events, "instructions");
      out.counters.l1dAccesses = sample.value(events, "l1d_accesses");
      out.counters.l1dMisses = sample.value(events, "l1d_misses");
      out.counters.llcAccesses = sample.value(events, "llc_accesses");
      out.counters.llcMisses = sample.value(events, "llc_misses");
      out.counters.stalledCycles = sample.value(events, "stalled_cycles");
    }
  }
  out.tscCycles = static_cast<double>(t1 - t0);
  out.iterations = static_cast<std::uint64_t>(iterations < 0 ? 0 : iterations);
  return out;
}

double NativeBackend::timerOverheadCycles() const {
  return tscOverheadCycles();
}

std::vector<InvokeResult> NativeBackend::invokeFork(
    launcher::KernelHandle& kernel, const KernelRequest& request,
    int processes, int calls, launcher::PinPolicy policy) {
  NativeKernel& k = unwrap(kernel);
  if (processes < 1) throw ExecutionError("fork mode needs processes >= 1");
  if (calls < 1) throw ExecutionError("fork mode needs calls >= 1");

  struct ChildResult {
    double cycles;
    std::uint64_t iterations;
  };

  // Barrier: children report readiness on their result pipe, then block on
  // the shared "go" pipe until the parent closes it (§4.6: "after
  // synchronization, it records the time taken").
  int goPipe[2];
  if (pipe(goPipe) != 0) throw ExecutionError("pipe failed");

  std::vector<std::array<int, 2>> resultPipes(
      static_cast<std::size_t>(processes));
  std::vector<pid_t> children;
  for (int p = 0; p < processes; ++p) {
    auto& rp = resultPipes[static_cast<std::size_t>(p)];
    if (pipe(rp.data()) != 0) throw ExecutionError("pipe failed");
    pid_t pid = ::fork();
    if (pid < 0) throw ExecutionError("fork failed");
    if (pid == 0) {
      // Child.
      close(goPipe[1]);
      close(rp[0]);
      int core = policy == launcher::PinPolicy::Compact
                     ? p % availableCores()
                     : nativeScatterPin(p, processes);
      pinToCore(core);
      // Child-private arrays (first touch on this core).
      std::vector<AlignedBuffer> buffers;
      std::vector<void*> pointers;
      for (const ArraySpec& spec : request.arrays) {
        buffers.push_back(AlignedBuffer::allocate(spec));
        pointers.push_back(buffers.back().base);
      }
      auto call = [&] {
        return k.kernel.call(request.n, pointers.data(),
                             static_cast<int>(pointers.size()));
      };
      call();  // warm-up
      char ready = 'r';
      if (write(rp[1], &ready, 1) != 1) _exit(2);
      char go;
      (void)!read(goPipe[0], &go, 1);  // blocks until parent closes
      ChildResult result{0.0, 0};
      std::uint64_t t0 = readTsc();
      for (int c = 0; c < calls; ++c) {
        int iters = call();
        result.iterations += static_cast<std::uint64_t>(iters);
      }
      std::uint64_t t1 = readTsc();
      result.cycles = static_cast<double>(t1 - t0);
      if (write(rp[1], &result, sizeof result) != sizeof result) _exit(3);
      _exit(0);
    }
    children.push_back(pid);
    close(rp[1]);
  }
  close(goPipe[0]);

  // Wait for every child to report readiness, then release the barrier.
  for (auto& rp : resultPipes) {
    char ready;
    if (read(rp[0], &ready, 1) != 1) {
      throw ExecutionError("forked child failed before the barrier");
    }
  }
  close(goPipe[1]);

  std::vector<InvokeResult> results;
  for (std::size_t p = 0; p < resultPipes.size(); ++p) {
    ChildResult r{};
    if (read(resultPipes[p][0], &r, sizeof r) != sizeof r) {
      throw ExecutionError("forked child did not report a result");
    }
    close(resultPipes[p][0]);
    results.push_back(InvokeResult{r.cycles, r.iterations});
  }
  for (pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
  return results;
}

InvokeResult NativeBackend::invokeOpenMp(launcher::KernelHandle& kernel,
                                         const KernelRequest& request,
                                         int threads, int repetitions) {
  NativeKernel& k = unwrap(kernel);
  k.ensureBuffers(request);
  if (threads < 1) throw ExecutionError("OpenMP mode needs threads >= 1");
  if (repetitions < 1) {
    throw ExecutionError("OpenMP mode needs repetitions >= 1");
  }

  std::uint64_t totalIterations = 0;
  std::uint64_t t0 = readTsc();
  for (int rep = 0; rep < repetitions; ++rep) {
    std::uint64_t regionIterations = 0;
#ifdef _OPENMP
#pragma omp parallel num_threads(threads) reduction(+ : regionIterations)
    {
      int tid = omp_get_thread_num();
      int nThreads = omp_get_num_threads();
#else
    for (int tid = 0; tid < threads; ++tid) {
      int nThreads = threads;
#endif
      int base = request.n / nThreads;
      int extra = request.n % nThreads;
      int chunk = base + (tid < extra ? 1 : 0);
      long startIter = static_cast<long>(base) * tid + std::min(tid, extra);
      std::vector<void*> shifted = k.pointers;
      for (void*& ptr : shifted) {
        ptr = static_cast<char*>(ptr) +
              static_cast<std::uint64_t>(startIter) * request.chunkStrideBytes;
      }
      int iters = k.kernel.call(chunk, shifted.data(),
                                static_cast<int>(shifted.size()));
      regionIterations += static_cast<std::uint64_t>(iters);
    }
    totalIterations += regionIterations;
  }
  std::uint64_t t1 = readTsc();
  return InvokeResult{static_cast<double>(t1 - t0), totalIterations};
}

void useNativeBackend(launcher::ExploreOptions& options) {
  if (options.backend != "native") return;
  NativeBackendOptions nb;
  nb.compileCacheDir = options.compileCacheDir;
  nb.perfCounters = options.perfCounters;
  options.backendFactory = [nb](int) {
    return std::make_unique<NativeBackend>(nb);
  };
  options.backendId = "native";
}

std::unique_ptr<launcher::CampaignCsvSink> openCampaignCsv(
    launcher::ExploreOptions& options) {
  if (options.csvPath.empty()) return nullptr;
  // Resume: variants already terminal in the file (ok rows, cache hits,
  // verify-strict skips, errors) are skipped and NOT re-appended, so
  // rerunning with the same --csv never grows the file. A halving search
  // resumes per round instead — the planner reads the file itself, round
  // by round, and backfills the skipped rows' metrics for ranking.
  if (options.search == launcher::SearchMode::Halving) {
    options.planner.resumeCsv = options.csvPath;
  } else {
    options.campaign.completed =
        launcher::readCompletedVariants(options.csvPath);
  }
  // The preamble makes two campaign CSVs comparable on their face
  // (bench-diff reports drift).
  env::EnvSnapshot snapshot = env::captureEnv();
  if (options.backend == "native") {
    snapshot.set("compiler", compilerIdentity(options.compileCacheDir));
  }
  return std::make_unique<launcher::CampaignCsvSink>(
      options.csvPath, env::toCsvComments(snapshot));
}

}  // namespace microtools::native
