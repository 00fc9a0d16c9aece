#pragma once

// Span recording for the traced benchmark run. Spans are recorded only from
// the benchmark's own code, around calls into each layer's public
// functions: a forwarding Backend decorator, wrapped campaign hooks, and the
// composed explore pipeline in workloads.cpp. The library itself is never
// instrumented, so an untraced run executes exactly the product code path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "launcher/backend.hpp"

namespace perfbench {

/// One finished span. `name` is "<layer>.<operation>"; the layer is
/// everything before the last dot ("launcher.sim_backend.invoke" belongs to
/// "launcher.sim_backend"). Names are string literals and variant ids are
/// interned by the tracer, so recording a span copies no strings. Times are
/// seconds since the tracer's epoch.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int id = -1;
  int parent = -1;  ///< enclosing span, possibly on another thread; -1: root
  int thread = 0;   ///< small per-thread index, in order of first span
  int worker = -1;  ///< campaign worker owning the backend (-1: none)
  const std::string* variant = nullptr;  ///< variant id (null: none)

  // Attributes the per-layer metrics need.
  double cycles = 0.0;     ///< simulated TSC cycles returned by the call
  bool replayed = false;   ///< sim invoke served from the warm-invoke memo
  std::uint64_t spawns = 0;  ///< compiler processes started during the call
  std::uint64_t items = 0;   ///< programs generated / variants checked
  bool rejected = false;     ///< pre-flight verification reported an error

  double seconds() const { return end - start; }
  std::string layer() const;
};

/// In-memory span store with per-thread buffers. One Tracer per traced
/// pipeline execution; spans stay in memory until the caller renders them
/// after the run.
class Tracer {
 public:
  Tracer();

  /// Opens a span on the calling thread. Its parent is the innermost span
  /// open on this thread, or the ambient span for threads that have none
  /// (campaign workers and compile producers).
  int begin();
  /// Closes span `id` (which must be the innermost open span on this
  /// thread) and stores `span` with its identity and times filled in.
  void end(int id, Span span);

  /// Parent for spans opened on threads with an empty stack.
  void setAmbient(int id) { ambient_.store(id); }

  /// A stable copy of `variant` that lives as long as the tracer.
  const std::string* intern(const std::string& variant);

  /// Finished spans of every thread, sorted by start time. Call once the
  /// traced work has finished.
  std::vector<Span> spans() const;

 private:
  struct Open {
    int id;
    double start;
  };
  struct ThreadBuffer {
    int index = 0;
    std::vector<Open> open;
    std::vector<Span> spans;
  };

  double now() const;
  ThreadBuffer& buffer();

  std::uint64_t generation_ = 0;
  std::uint64_t epochNs_ = 0;
  std::atomic<int> nextId_{0};
  std::atomic<int> ambient_{-1};
  mutable std::mutex mutex_;  ///< guards buffers_ growth and interned_
  std::deque<ThreadBuffer> buffers_;
  std::unordered_set<std::string> interned_;
};

/// RAII span: opens on construction, records on destruction. Attributes
/// are set on `span` while the scope runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name,
             const std::string* variant = nullptr, int worker = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

  Span span;

 private:
  Tracer& tracer_;
  int id_;
};

/// Maps kernel sources (and the shared-object units a native compile batch
/// turns them into) back to variant names, so backend spans carry the
/// variant id although the Backend interface only sees source text.
class VariantIndex {
 public:
  void add(const std::string& source, const std::string& name);
  std::string lookup(const std::string& key) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> names_;
};

/// Forwarding launcher::Backend decorator that records one span per call
/// under the backend's layer ("launcher.sim_backend" or "native"). Loads are attributed
/// to the layer that does the work: asmparse for the simulator (parse +
/// ProgramCache), native for dlopen. Around each call it takes the
/// SimBackend::replayedInvokes() and native::spawnCount() deltas.
class TracedBackend final : public microtools::launcher::Backend {
 public:
  TracedBackend(std::unique_ptr<microtools::launcher::Backend> inner,
                Tracer& tracer, std::shared_ptr<VariantIndex> index,
                int worker);

  std::string name() const override { return inner_->name(); }

  std::unique_ptr<microtools::launcher::KernelHandle> load(
      const std::string& asmText, const std::string& functionName) override;
  using Backend::load;

  std::unique_ptr<microtools::launcher::KernelHandle> loadSource(
      const std::string& kind, const std::string& text,
      const std::string& functionName) override;

  std::vector<microtools::launcher::SourceUnit> prepareBatch(
      std::vector<microtools::launcher::SourceUnit> units) override;

  microtools::launcher::InvokeResult invoke(
      microtools::launcher::KernelHandle& kernel,
      const microtools::launcher::KernelRequest& request) override;

  double timerOverheadCycles() const override {
    return inner_->timerOverheadCycles();
  }

  std::vector<microtools::launcher::InvokeResult> invokeFork(
      microtools::launcher::KernelHandle& kernel,
      const microtools::launcher::KernelRequest& request, int processes,
      int calls, microtools::launcher::PinPolicy policy) override;

  microtools::launcher::InvokeResult invokeOpenMp(
      microtools::launcher::KernelHandle& kernel,
      const microtools::launcher::KernelRequest& request, int threads,
      int repetitions) override;

  void reset() override;

 private:
  std::uint64_t replays() const;

  std::unique_ptr<microtools::launcher::Backend> inner_;
  Tracer& tracer_;
  std::shared_ptr<VariantIndex> index_;
  int worker_;
  bool sim_;  ///< inner is a SimBackend
  const std::string* variant_ = nullptr;  ///< variant of the last load
};

/// Tail statistic: the highest of p99.9/p99/p95/p90/p50 that leaves at
/// least 10 samples beyond it. `percentile` is 0 (and `value` 0) when there
/// are fewer than 20 samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tailOf(std::vector<double> samples);

/// Exact median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> values);

/// Per span name: count, total seconds, self seconds (span time minus the
/// time its direct children cover), p50 and tail of the durations.
struct NameSummary {
  std::string name;
  std::size_t count = 0;
  double total = 0.0;
  double self = 0.0;
  double p50 = 0.0;
  Tail tail;
};
std::vector<NameSummary> summarize(const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double coveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Human-readable per-layer table (count, total, self, p50, tail).
std::string renderTable(const std::vector<NameSummary>& rows);

/// Chrome trace-event JSON ("X" complete events, microsecond times; the
/// span's identity and attributes go in `args`).
std::string chromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench
