#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "launcher/sim_backend.hpp"
#include "native/compile.hpp"
#include "support/strings.hpp"

namespace perfbench {

using microtools::launcher::Backend;
using microtools::launcher::InvokeResult;
using microtools::launcher::KernelHandle;
using microtools::launcher::KernelRequest;
using microtools::launcher::PinPolicy;
using microtools::launcher::SimBackend;
using microtools::launcher::SourceUnit;

namespace {

std::uint64_t steadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Each Tracer gets a generation so a thread's cached buffer never leaks
// from one traced run into the next (a new Tracer may reuse an old address).
std::atomic<std::uint64_t> g_generation{0};
thread_local std::uint64_t t_generation = 0;
thread_local void* t_buffer = nullptr;

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::string Span::layer() const {
  std::string n = name;
  std::size_t dot = n.rfind('.');
  return dot == std::string::npos ? n : n.substr(0, dot);
}

Tracer::Tracer() : generation_(++g_generation), epochNs_(steadyNs()) {}

double Tracer::now() const {
  return static_cast<double>(steadyNs() - epochNs_) * 1e-9;
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.emplace_back();
    buffers_.back().index = static_cast<int>(buffers_.size()) - 1;
    t_buffer = &buffers_.back();
    t_generation = generation_;
  }
  return *static_cast<ThreadBuffer*>(t_buffer);
}

int Tracer::begin() {
  int id = nextId_.fetch_add(1, std::memory_order_relaxed);
  buffer().open.push_back(Open{id, now()});
  return id;
}

void Tracer::end(int id, Span span) {
  double stop = now();
  ThreadBuffer& b = buffer();
  if (b.open.empty() || b.open.back().id != id) {
    std::fprintf(stderr, "perfbench: unbalanced span '%s'\n", span.name);
    return;
  }
  span.id = id;
  span.start = b.open.back().start;
  span.end = stop;
  span.thread = b.index;
  b.open.pop_back();
  span.parent = b.open.empty() ? ambient_.load() : b.open.back().id;
  b.spans.push_back(span);
}

const std::string* Tracer::intern(const std::string& variant) {
  std::lock_guard<std::mutex> lock(mutex_);
  return &*interned_.insert(variant).first;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const ThreadBuffer& b : buffers_) {
    out.insert(out.end(), b.spans.begin(), b.spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return out;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       const std::string* variant, int worker)
    : tracer_(tracer), id_(tracer.begin()) {
  span.name = name;
  span.variant = variant;
  span.worker = worker;
}

ScopedSpan::~ScopedSpan() { tracer_.end(id_, span); }

void VariantIndex::add(const std::string& source, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  names_[source] = name;
}

std::string VariantIndex::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = names_.find(key);
  return it == names_.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// TracedBackend
// ---------------------------------------------------------------------------

TracedBackend::TracedBackend(std::unique_ptr<Backend> inner, Tracer& tracer,
                             std::shared_ptr<VariantIndex> index, int worker)
    : inner_(std::move(inner)),
      tracer_(tracer),
      index_(std::move(index)),
      worker_(worker),
      sim_(dynamic_cast<SimBackend*>(inner_.get()) != nullptr) {}

std::uint64_t TracedBackend::replays() const {
  return sim_ ? static_cast<SimBackend&>(*inner_).replayedInvokes() : 0;
}

std::unique_ptr<KernelHandle> TracedBackend::load(
    const std::string& asmText, const std::string& functionName) {
  return loadSource("asm", asmText, functionName);
}

std::unique_ptr<KernelHandle> TracedBackend::loadSource(
    const std::string& kind, const std::string& text,
    const std::string& functionName) {
  variant_ = nullptr;
  if (index_) {
    std::string name =
        index_->lookup(kind == "so" ? text + "#" + functionName : text);
    if (!name.empty()) variant_ = tracer_.intern(name);
  }
  ScopedSpan s(tracer_, sim_ ? "asmparse.load" : "native.load", variant_,
               worker_);
  std::uint64_t spawns = microtools::native::spawnCount();
  std::unique_ptr<KernelHandle> handle =
      inner_->loadSource(kind, text, functionName);
  s.span.spawns = microtools::native::spawnCount() - spawns;
  return handle;
}

std::vector<SourceUnit> TracedBackend::prepareBatch(
    std::vector<SourceUnit> units) {
  std::vector<std::string> names;
  names.reserve(units.size());
  for (const SourceUnit& u : units) {
    names.push_back(index_ ? index_->lookup(u.text) : std::string());
  }
  ScopedSpan s(tracer_,
               sim_ ? "launcher.sim_backend.prepare" : "native.compile",
               nullptr, worker_);
  s.span.items = units.size();
  std::uint64_t spawns = microtools::native::spawnCount();
  std::vector<SourceUnit> prepared = inner_->prepareBatch(std::move(units));
  s.span.spawns = microtools::native::spawnCount() - spawns;
  if (index_ && prepared.size() == names.size()) {
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      if (prepared[i].kind == "so") {
        index_->add(prepared[i].text + "#" + prepared[i].functionName,
                    names[i]);
      }
    }
  }
  return prepared;
}

InvokeResult TracedBackend::invoke(KernelHandle& kernel,
                                   const KernelRequest& request) {
  ScopedSpan s(tracer_, sim_ ? "launcher.sim_backend.invoke" : "native.invoke",
               variant_, worker_);
  std::uint64_t before = replays();
  InvokeResult r = inner_->invoke(kernel, request);
  s.span.replayed = replays() != before;
  s.span.cycles = sim_ ? r.tscCycles : 0.0;
  return r;
}

std::vector<InvokeResult> TracedBackend::invokeFork(
    KernelHandle& kernel, const KernelRequest& request, int processes,
    int calls, PinPolicy policy) {
  ScopedSpan s(tracer_, sim_ ? "launcher.sim_backend.fork" : "native.fork",
               variant_, worker_);
  std::vector<InvokeResult> r =
      inner_->invokeFork(kernel, request, processes, calls, policy);
  if (sim_) {
    for (const InvokeResult& p : r) s.span.cycles += p.tscCycles;
  }
  return r;
}

InvokeResult TracedBackend::invokeOpenMp(KernelHandle& kernel,
                                         const KernelRequest& request,
                                         int threads, int repetitions) {
  ScopedSpan s(tracer_,
               sim_ ? "launcher.sim_backend.openmp" : "native.openmp",
               variant_, worker_);
  InvokeResult r = inner_->invokeOpenMp(kernel, request, threads, repetitions);
  s.span.cycles = sim_ ? r.tscCycles : 0.0;
  return r;
}

void TracedBackend::reset() {
  ScopedSpan s(tracer_, sim_ ? "launcher.sim_backend.reset" : "native.reset",
               variant_, worker_);
  inner_->reset();
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Nearest-rank percentile of sorted values.
double percentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

Tail tailOf(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      t.percentile = p;
      t.value = percentileOf(samples, p);
      return t;
    }
  }
  return t;
}

double coveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

std::vector<NameSummary> summarize(const std::vector<Span>& spans) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, NameSummary> rows;
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) {
    NameSummary& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total += s.seconds();
    auto it = children.find(s.id);
    double covered = it == children.end()
                         ? 0.0
                         : coveredSeconds(it->second, s.start, s.end);
    row.self += s.seconds() - covered;
    durations[s.name].push_back(s.seconds());
  }
  std::vector<NameSummary> out;
  for (auto& [name, row] : rows) {
    row.p50 = median(durations[name]);
    row.tail = tailOf(durations[name]);
    out.push_back(row);
  }
  return out;
}

std::string renderTable(const std::vector<NameSummary>& rows) {
  std::string out = microtools::strings::format(
      "%-34s %8s %11s %11s %11s %11s %6s\n", "span (layer.operation)",
      "count", "total_s", "self_s", "p50_us", "tail_us", "tail_p");
  for (const NameSummary& r : rows) {
    out += microtools::strings::format(
        "%-34s %8zu %11.6f %11.6f %11.2f %11.2f %6.1f\n", r.name.c_str(),
        r.count, r.total, r.self, r.p50 * 1e6, r.tail.value * 1e6,
        r.tail.percentile);
  }
  return out;
}

std::string chromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += microtools::strings::format(
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
        "\"parent\":%d,\"variant\":\"%s\",\"cycles\":%.17g,"
        "\"replayed\":%d,\"spawns\":%llu,\"items\":%llu}}",
        i ? "," : "", jsonEscape(s.name).c_str(),
        jsonEscape(s.layer()).c_str(), s.thread, s.start * 1e6,
        s.seconds() * 1e6, s.id, s.parent,
        jsonEscape(s.variant ? *s.variant : "").c_str(), s.cycles,
        s.replayed ? 1 : 0, static_cast<unsigned long long>(s.spawns),
        static_cast<unsigned long long>(s.items));
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
