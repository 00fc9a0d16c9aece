#include "creator/pass_manager.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>

#include "creator/emit.hpp"
#include "creator/passes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "verify/verify.hpp"

namespace microtools::creator {

namespace {

/// Concatenates per-kernel expansions in kernel order with the same
/// limit/log semantics as the historical serial loop: `limited` is raised
/// when a kernel (even an empty-expanding one) or an item remains after the
/// limit fills.
void concatenateExpanded(GenerationState& state,
                         std::vector<std::vector<ir::Kernel>>& expanded) {
  const std::size_t limit = state.description.maximumBenchmarks;
  std::vector<ir::Kernel> out;
  bool limited = false;
  for (std::vector<ir::Kernel>& group : expanded) {
    if (out.size() >= limit) {
      limited = true;
      break;
    }
    for (ir::Kernel& k : group) {
      if (out.size() >= limit) {
        limited = true;
        break;
      }
      out.push_back(std::move(k));
    }
  }
  if (limited) {
    log::info("benchmark limit of " + std::to_string(limit) +
              " reached; dropping additional variants");
  }
  state.kernels = std::move(out);
}

}  // namespace

void fanOut(GenerationState& state,
            const std::function<std::vector<ir::Kernel>(const ir::Kernel&)>&
                expand,
            ExpandPurity purity) {
  const std::size_t limit = state.description.maximumBenchmarks;
  const bool parallel = purity == ExpandPurity::Pure &&
                        state.pool != nullptr && state.pool->workers() > 1 &&
                        state.kernels.size() > 1;
  if (parallel) {
    std::vector<std::vector<ir::Kernel>> expanded(state.kernels.size());
    threads::parallelFor(state.pool, state.kernels.size(),
                         [&state, &expand, &expanded](std::size_t i) {
                           expanded[i] = expand(state.kernels[i]);
                         });
    concatenateExpanded(state, expanded);
    return;
  }
  std::vector<ir::Kernel> out;
  bool limited = false;
  for (const ir::Kernel& kernel : state.kernels) {
    if (out.size() >= limit) {
      limited = true;
      break;
    }
    std::vector<ir::Kernel> expanded = expand(kernel);
    for (ir::Kernel& k : expanded) {
      if (out.size() >= limit) {
        limited = true;
        break;
      }
      out.push_back(std::move(k));
    }
  }
  if (limited) {
    log::info("benchmark limit of " + std::to_string(limit) +
              " reached; dropping additional variants");
  }
  state.kernels = std::move(out);
}

std::vector<std::string> assignVariantNames(
    const std::vector<std::string>& baseNames) {
  std::vector<std::string> names;
  names.reserve(baseNames.size());
  std::map<std::string, int> seen;
  for (const std::string& base : baseNames) {
    int& count = seen[base];
    ++count;
    if (count > 1) {
      names.push_back(base + "_v" + std::to_string(count));
    } else {
      names.push_back(base);
    }
  }
  return names;
}

namespace {

/// Renders one kernel into its GeneratedProgram under an already-assigned
/// variant name. Pure: reads only the kernel and the description, so it is
/// safe to call concurrently for distinct kernels.
GeneratedProgram renderProgram(const GenerationState& state,
                               const ir::Kernel& kernel,
                               const std::string& name) {
  GeneratedProgram program;
  program.name = name;
  program.functionName = state.description.functionName;
  program.asmText = emitAssembly(kernel, program.functionName);
  if (state.description.emitC) {
    program.cText = emitCSource(kernel, program.functionName);
  }
  program.arrayCount = kernel.arrayCount;
  program.kernel = kernel;
  program.contentId = hash::Fnv1a()
                          .str(program.functionName)
                          .str(program.asmText)
                          .str(program.cText)
                          .hex();
  return program;
}

/// Variant names for the current kernel set, per the stable naming
/// contract (assignVariantNames over kernel.variantName() in kernel order).
std::vector<std::string> emittedNames(const GenerationState& state) {
  std::vector<std::string> baseNames;
  baseNames.reserve(state.kernels.size());
  for (const ir::Kernel& kernel : state.kernels) {
    baseNames.push_back(kernel.variantName());
  }
  return assignVariantNames(baseNames);
}

verify::VerifyReport verifyProgram(const GeneratedProgram& program) {
  verify::VerifyOptions options;
  options.arrayCount = program.arrayCount;
  return verify::verifyAssembly(program.asmText, options);
}

void logRejection(const GeneratedProgram& program,
                  const verify::VerifyReport& report) {
  log::warn("variant '" + program.name +
            "' rejected by verification: " + report.shortSummary());
  for (const verify::Diagnostic& d : report.diagnostics) {
    if (d.severity == verify::Severity::Error) {
      log::warn("  [" + d.rule + "] " + d.message);
    }
  }
}

constexpr const char* kAllRejected =
    "verification rejected every generated variant; see warnings "
    "above (disable the Verification pass gate to bypass)";

/// Pass 19: renders every kernel into a GeneratedProgram.
class CodeEmission final : public Pass {
 public:
  CodeEmission() : Pass("CodeEmission") {}

  void run(GenerationState& state) override {
    // Names are assigned serially up front (the stable naming contract:
    // position among equal base names decides the _vN suffix), so the
    // per-kernel rendering below is embarrassingly parallel.
    std::vector<std::string> names = emittedNames(state);
    state.programs.clear();
    state.programs.resize(state.kernels.size());
    threads::parallelFor(
        state.pool, state.kernels.size(), [&state, &names](std::size_t i) {
          state.programs[i] =
              renderProgram(state, state.kernels[i], names[i]);
        });
  }
};

/// Pass 20: static verification of every emitted program. A variant whose
/// assembly carries an error-level diagnostic (ABI clobber, provable
/// non-termination, uninitialized address register, ...) is dropped with a
/// warning; warnings-only reports pass. Plugins can disable the pass via
/// its gate ("Verification").
class Verification final : public Pass {
 public:
  Verification() : Pass("Verification") {}

  void run(GenerationState& state) override {
    if (state.programs.empty()) return;
    // Verify in parallel (verifyAssembly is re-entrant; the shared asm
    // parse cache is mutex-protected), then log and compact serially so
    // warnings appear in program order exactly as the serial pass printed
    // them.
    std::vector<verify::VerifyReport> reports(state.programs.size());
    threads::parallelFor(state.pool, state.programs.size(),
                         [&state, &reports](std::size_t i) {
                           reports[i] = verifyProgram(state.programs[i]);
                         });
    std::vector<GeneratedProgram> kept;
    kept.reserve(state.programs.size());
    for (std::size_t i = 0; i < state.programs.size(); ++i) {
      GeneratedProgram& program = state.programs[i];
      if (reports[i].ok()) {
        kept.push_back(std::move(program));
        continue;
      }
      logRejection(program, reports[i]);
    }
    if (kept.empty()) throw McError(kAllRejected);
    state.programs = std::move(kept);
  }
};

}  // namespace

namespace passes {
std::unique_ptr<Pass> makeCodeEmission() {
  return std::make_unique<CodeEmission>();
}
std::unique_ptr<Pass> makeVerification() {
  return std::make_unique<Verification>();
}
}  // namespace passes

PassManager PassManager::standardPipeline() {
  PassManager pm;
  pm.addPass(passes::makeValidateDescription());
  pm.addPass(passes::makeInstructionRepetition());
  pm.addPass(passes::makeRandomSelection());
  pm.addPass(passes::makeMoveSemanticExpansion());
  pm.addPass(passes::makeImmediateSelection());
  pm.addPass(passes::makeStrideSelection());
  pm.addPass(passes::makeOperandSwapBeforeUnroll());
  pm.addPass(passes::makeUnrolling());
  pm.addPass(passes::makeOperandSwapAfterUnroll());
  pm.addPass(passes::makeRegisterRotation());
  pm.addPass(passes::makeRegisterAllocation());
  pm.addPass(passes::makeLoopCounterSetup());
  pm.addPass(passes::makeInductionLinking());
  pm.addPass(passes::makeInductionInsertion());
  pm.addPass(passes::makeAlignmentDirectives());
  pm.addPass(passes::makePrologueEpilogue());
  pm.addPass(passes::makeScheduling());
  pm.addPass(passes::makePeephole());
  pm.addPass(passes::makeCodeEmission());
  pm.addPass(passes::makeVerification());
  return pm;
}

void PassManager::addPass(std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  passes_.push_back(std::move(pass));
}

std::size_t PassManager::indexOf(const std::string& name) const {
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (passes_[i]->name() == name) return i;
  }
  throw McError("no pass named '" + name + "'");
}

void PassManager::addPassBefore(const std::string& anchor,
                                std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  std::size_t i = indexOf(anchor);
  passes_.insert(passes_.begin() + static_cast<std::ptrdiff_t>(i),
                 std::move(pass));
}

void PassManager::addPassAfter(const std::string& anchor,
                               std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  std::size_t i = indexOf(anchor);
  passes_.insert(passes_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 std::move(pass));
}

void PassManager::removePass(const std::string& name) {
  std::size_t i = indexOf(name);
  passes_.erase(passes_.begin() + static_cast<std::ptrdiff_t>(i));
}

void PassManager::replacePass(const std::string& name,
                              std::unique_ptr<Pass> pass) {
  std::size_t i = indexOf(name);
  passes_[i] = std::move(pass);
}

void PassManager::setGate(const std::string& name,
                          std::function<bool(const GenerationState&)> gate) {
  passes_[indexOf(name)]->setGateOverride(std::move(gate));
}

Pass* PassManager::find(const std::string& name) {
  for (auto& p : passes_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

const Pass* PassManager::find(const std::string& name) const {
  for (const auto& p : passes_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

void PassManager::run(GenerationState& state) const {
  for (const auto& pass : passes_) {
    if (!pass->gate(state)) {
      log::debug("pass " + pass->name() + " gated off");
      continue;
    }
    log::debug("running pass " + pass->name());
    pass->run(state);
    if (state.kernels.size() > state.description.maximumBenchmarks) {
      state.kernels.resize(state.description.maximumBenchmarks);
    }
  }
}

bool PassManager::runStreaming(
    GenerationState& state,
    const std::function<void(const StreamInfo&)>& onReady,
    const std::function<void(GeneratedProgram&&)>& consume) const {
  // Streaming re-implements only the built-in emission/verification tail;
  // a plugin-replaced tail keeps its own semantics via run().
  if (passes_.size() < 2) return false;
  if (dynamic_cast<const CodeEmission*>(
          passes_[passes_.size() - 2].get()) == nullptr ||
      dynamic_cast<const Verification*>(passes_.back().get()) == nullptr) {
    return false;
  }
  for (std::size_t p = 0; p + 2 < passes_.size(); ++p) {
    const auto& pass = passes_[p];
    if (!pass->gate(state)) {
      log::debug("pass " + pass->name() + " gated off");
      continue;
    }
    log::debug("running pass " + pass->name());
    pass->run(state);
    if (state.kernels.size() > state.description.maximumBenchmarks) {
      state.kernels.resize(state.description.maximumBenchmarks);
    }
  }
  const bool doEmit = passes_[passes_.size() - 2]->gate(state);
  const bool doVerify = passes_.back()->gate(state);
  StreamInfo info;
  if (doEmit) {
    info.kernelCount = state.kernels.size();
    for (const ir::Kernel& kernel : state.kernels) {
      info.maxArrayCount = std::max(info.maxArrayCount, kernel.arrayCount);
    }
  }
  onReady(info);
  if (!doEmit || state.kernels.empty()) return true;

  const std::vector<std::string> names = emittedNames(state);
  const std::size_t n = state.kernels.size();
  struct Slot {
    GeneratedProgram program;
    verify::VerifyReport report;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(n);
  std::size_t kept = 0;
  // Releases slot i on the calling thread: rejection warnings therefore
  // appear in program order, exactly as the batch Verification pass prints
  // them, and `consume` never runs concurrently with itself.
  auto release = [&](std::size_t i) {
    Slot& slot = slots[i];
    if (slot.error) std::rethrow_exception(slot.error);
    if (doVerify && !slot.report.ok()) {
      logRejection(slot.program, slot.report);
      slot = Slot{};
      return;
    }
    ++kept;
    consume(std::move(slot.program));
    slot = Slot{};
  };
  if (state.pool != nullptr && state.pool->workers() > 1 && n > 1) {
    std::mutex mutex;
    std::condition_variable slotDone;
    std::vector<char> ready(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      state.pool->submit([&state, &names, &slots, &ready, &mutex, &slotDone,
                          doVerify, i](int) {
        Slot local;
        try {
          local.program = renderProgram(state, state.kernels[i], names[i]);
          if (doVerify) local.report = verifyProgram(local.program);
        } catch (...) {
          local.error = std::current_exception();
        }
        // Notify under the lock: once the waiter sees the last slot ready it
        // returns and destroys `slotDone`, which must not still be in use.
        std::lock_guard<std::mutex> lock(mutex);
        slots[i] = std::move(local);
        ready[i] = 1;
        slotDone.notify_all();
      });
    }
    // Wait for EVERY slot before letting any exception unwind: pending
    // tasks reference the locals above.
    std::exception_ptr failure;
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        slotDone.wait(lock, [&ready, i] { return ready[i] != 0; });
      }
      if (failure) continue;
      try {
        release(i);
      } catch (...) {
        failure = std::current_exception();
      }
    }
    if (failure) std::rethrow_exception(failure);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      slots[i].program = renderProgram(state, state.kernels[i], names[i]);
      if (doVerify) slots[i].report = verifyProgram(slots[i].program);
      release(i);
    }
  }
  if (doVerify && kept == 0) throw McError(kAllRejected);
  return true;
}

}  // namespace microtools::creator
