#include "verify/verify.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "verify/cfg.hpp"
#include "verify/dataflow.hpp"

namespace microtools::verify {

namespace {

using asmparse::DecodedInsn;
using asmparse::DecodedMem;
using asmparse::DecodedOperand;

constexpr std::array<int, 6> kCalleeSavedSlots = {
    isa::kRbx, isa::kRbp, isa::kR12, isa::kR13, isa::kR14, isa::kR15};

std::string slotName(int slot) {
  if (slot == RegSet::kFlags) return "flags";
  if (slot < 16) return isa::registerName(isa::gpr(slot));
  return isa::registerName(isa::xmm(slot - 16));
}

// ---------------------------------------------------------------------------
// Symbolic values for the MT-MEM rules.
//
// Each GPR holds one of: Undef (never written), Unknown, a constant, or an
// array base plus constant offset. With a LaunchContext the trip count is a
// constant from entry, so the creator-shaped prologue folds entirely.
struct SymVal {
  enum class Kind : std::uint8_t { Undef, Unknown, Const, Array };
  Kind kind = Kind::Undef;
  std::int64_t off = 0;  // constant value / offset from the array base
  int array = 0;         // valid when kind == Array

  static SymVal undef() { return {}; }
  static SymVal unknown() { return {Kind::Unknown, 0, 0}; }
  static SymVal constant(std::int64_t c) { return {Kind::Const, c, 0}; }
  static SymVal arrayBase(int a, std::int64_t c) {
    return {Kind::Array, c, a};
  }
  bool isConst() const { return kind == Kind::Const; }
  bool isArray() const { return kind == Kind::Array; }
};

using SymState = std::array<SymVal, 16>;  // indexed by GPR slot

std::optional<SymVal> addConst(const SymVal& v, std::int64_t c) {
  switch (v.kind) {
    case SymVal::Kind::Const: return SymVal::constant(v.off + c);
    case SymVal::Kind::Array: return SymVal::arrayBase(v.array, v.off + c);
    default: return std::nullopt;
  }
}

std::optional<SymVal> addVals(const SymVal& a, const SymVal& b) {
  if (a.isConst()) return addConst(b, a.off);
  if (b.isConst()) return addConst(a, b.off);
  return std::nullopt;  // array+array, anything unknown
}

/// Symbolic value of one memory operand's address.
SymVal evalAddress(const SymState& state, const DecodedMem& mem) {
  SymVal addr = SymVal::constant(mem.disp);
  if (mem.base) {
    if (mem.base->cls != isa::RegClass::Gpr) return SymVal::unknown();
    auto sum = addVals(addr, state[mem.base->index]);
    if (!sum) return state[mem.base->index].kind == SymVal::Kind::Undef
                   ? SymVal::undef()
                   : SymVal::unknown();
    addr = *sum;
  }
  if (mem.index) {
    if (mem.index->cls != isa::RegClass::Gpr) return SymVal::unknown();
    const SymVal& iv = state[mem.index->index];
    if (!iv.isConst()) return SymVal::unknown();
    auto sum = addConst(addr, iv.off * mem.scale);
    if (!sum) return SymVal::unknown();
    addr = *sum;
  }
  return addr;
}

/// Applies one straight-line instruction to the symbolic state.
void applyInsn(SymState& state, const DecodedInsn& insn) {
  const auto& ops = insn.operands;
  const asmparse::UopRecipe& recipe = insn.recipe;

  auto clobberDefs = [&] {
    for (int s = 0; s < 16; ++s) {
      if (recipe.writes.has(s)) state[s] = SymVal::unknown();
    }
  };
  if (ops.empty() || ops.back().kind != DecodedOperand::Kind::Reg ||
      ops.back().reg.cls != isa::RegClass::Gpr || !insn.desc->writesDest) {
    clobberDefs();
    return;
  }
  const int dst = ops.back().reg.index;

  if (insn.desc->kind == isa::InstrKind::Move && ops.size() == 2) {
    if (ops[0].kind == DecodedOperand::Kind::Imm) {
      state[dst] = SymVal::constant(ops[0].imm);
      return;
    }
    if (ops[0].kind == DecodedOperand::Kind::Reg &&
        ops[0].reg.cls == isa::RegClass::Gpr) {
      // Width conversions in the subset keep non-negative values intact.
      state[dst] = state[ops[0].reg.index];
      if (state[dst].kind == SymVal::Kind::Undef) {
        state[dst] = SymVal::undef();
      }
      return;
    }
    state[dst] = SymVal::unknown();  // load from memory
    return;
  }
  if (recipe.zeroing) {
    state[dst] = SymVal::constant(0);
    return;
  }
  switch (recipe.op) {
    case isa::Opcode::Add:
    case isa::Opcode::Sub: {
      if (ops.size() != 2) break;
      std::optional<SymVal> src;
      if (ops[0].kind == DecodedOperand::Kind::Imm) {
        src = SymVal::constant(ops[0].imm);
      } else if (ops[0].kind == DecodedOperand::Kind::Reg &&
                 ops[0].reg.cls == isa::RegClass::Gpr) {
        src = state[ops[0].reg.index];
      }
      std::optional<SymVal> res;
      if (src && recipe.op == isa::Opcode::Add) {
        res = addVals(state[dst], *src);
      } else if (src && src->isConst()) {
        res = addConst(state[dst], -src->off);
      }
      state[dst] = res ? *res : SymVal::unknown();
      return;
    }
    case isa::Opcode::Inc:
    case isa::Opcode::Dec: {
      auto res = addConst(state[dst], recipe.op == isa::Opcode::Inc ? 1 : -1);
      state[dst] = res ? *res : SymVal::unknown();
      return;
    }
    default:
      break;
  }
  if (insn.desc->kind == isa::InstrKind::Lea && recipe.memOperand == 0 &&
      ops.size() == 2) {
    state[dst] = evalAddress(state, ops[0].mem);
    if (state[dst].kind == SymVal::Kind::Undef) state[dst] = SymVal::unknown();
    return;
  }
  clobberDefs();
}

std::int64_t floorDiv(std::int64_t num, std::int64_t den) {
  // den > 0 in every caller.
  std::int64_t q = num / den;
  if (num % den != 0 && num < 0) --q;
  return q;
}

std::int64_t ceilDiv(std::int64_t num, std::int64_t den) {
  return -floorDiv(-num, den);
}

/// Closed-form number of body executions of a do/test loop: the body runs,
/// the flag setter observes v(k) = a + d*k on the k-th execution (0-based),
/// and the branch re-enters while cond(v(k), b) holds. Returns nullopt when
/// the loop does not terminate or the condition has no signed closed form.
std::optional<std::int64_t> bodyExecutions(std::int64_t a, std::int64_t d,
                                           std::int64_t b,
                                           isa::Condition cond) {
  using C = isa::Condition;
  // Sign-flag conditions behave like signed comparisons for the creator's
  // in-range values (documented unsoundness near INT64 overflow).
  if (cond == C::NS) cond = C::GE;
  if (cond == C::S) cond = C::L;

  std::int64_t firstFail = 0;  // smallest k >= 0 with cond(v(k)) false
  switch (cond) {
    case C::GE:
      if (a < b) return 1;
      if (d >= 0) return std::nullopt;
      firstFail = floorDiv(a - b, -d) + 1;
      break;
    case C::G:
      if (a <= b) return 1;
      if (d >= 0) return std::nullopt;
      firstFail = ceilDiv(a - b, -d);
      break;
    case C::LE:
      if (a > b) return 1;
      if (d <= 0) return std::nullopt;
      firstFail = floorDiv(b - a, d) + 1;
      break;
    case C::L:
      if (a >= b) return 1;
      if (d <= 0) return std::nullopt;
      firstFail = ceilDiv(b - a, d);
      break;
    case C::E:
      return a == b ? 2 : 1;
    case C::NE: {
      if (a == b) return 1;
      if (d == 0) return std::nullopt;
      std::int64_t diff = b - a;
      if (diff % d != 0 || diff / d < 0) return std::nullopt;
      firstFail = diff / d;
      break;
    }
    default:
      return std::nullopt;  // unsigned conditions: no closed form here
  }
  return firstFail + 1;
}

// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(const asmparse::Program& program, const VerifyOptions& options)
      : program_(program), options_(options) {}

  VerifyReport run() {
    cfg_ = buildCfg(program_);
    loops_ = findLoops(program_, cfg_);
    arrayCount_ = resolveArrayCount();

    RegSet entry;
    entry.add(isa::kRsp);
    entry.add(isa::kRdi);  // the trip count n
    for (int a = 0; a < arrayCount_; ++a) {
      entry.add(isa::argumentRegister(1 + a));
    }
    for (int s : kCalleeSavedSlots) entry.add(s);

    RegSet retLive;
    retLive.add(isa::kRax);
    retLive.add(isa::kRsp);
    for (int s : kCalleeSavedSlots) retLive.add(s);

    defined_ = definedIn(program_, cfg_, entry);
    live_ = liveIn(program_, cfg_, retLive);
    liveOut_.resize(program_.instructions.size());
    for (std::size_t i = 0; i < program_.instructions.size(); ++i) {
      RegSet out;
      if (program_.instructions[i].desc->kind == isa::InstrKind::Ret) {
        out = retLive;
      }
      for (std::size_t s : cfg_.successors[i]) out = out | live_[s];
      liveOut_[i] = out;
    }

    checkControlFlow();
    checkLoops();
    checkAbi();
    checkDataflow();
    if (options_.context) checkMemory();

    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    return std::move(report_);
  }

 private:
  int resolveArrayCount() const {
    int count = isa::kNumArgumentRegisters - 1;
    if (options_.arrayCount) {
      count = *options_.arrayCount;
    } else if (options_.context) {
      count = static_cast<int>(options_.context->arrays.size());
    }
    return std::clamp(count, 0, isa::kNumArgumentRegisters - 1);
  }

  void emit(std::string rule, Severity severity, const DecodedInsn* insn,
            std::string message) {
    Diagnostic d;
    d.rule = std::move(rule);
    d.severity = severity;
    d.message = std::move(message);
    if (insn) {
      d.line = insn->line;
      d.column = insn->column;
    }
    report_.diagnostics.push_back(std::move(d));
  }

  const DecodedInsn& insn(std::size_t i) const {
    return program_.instructions[i];
  }

  static const DecodedMem& memoryOperand(const DecodedInsn& in) {
    return in.operands[static_cast<std::size_t>(in.recipe.memOperand)].mem;
  }

  // -- MT-CFG01 / MT-CFG04 --------------------------------------------------
  void checkControlFlow() {
    for (std::size_t i = 0; i < program_.instructions.size(); ++i) {
      if (!cfg_.reachable[i]) {
        emit("MT-CFG01", Severity::Warning, &insn(i),
             "unreachable instruction '" + insn(i).mnemonic + "'");
      } else if (cfg_.fallsOffEnd[i]) {
        emit("MT-CFG04", Severity::Error, &insn(i),
             "control falls off the end of the function without ret");
      }
    }
  }

  // -- MT-CFG02 / MT-CFG03 --------------------------------------------------
  void checkLoops() {
    for (const LoopInfo& loop : loops_.loops) {
      const DecodedInsn& branch = insn(loop.branchIndex);
      if (!loop.flagSetter) {
        emit("MT-CFG02", Severity::Error, &branch,
             "loop condition is invariant: no instruction in the body sets "
             "the flags, so the loop never exits once entered");
        continue;
      }
      if (!loop.inductionReg || (!loop.boundImm && !loop.boundReg)) {
        emit("MT-CFG03", Severity::Warning, &branch,
             "loop termination not provable: unrecognized comparison shape");
        continue;
      }
      if (!loop.delta) {
        emit("MT-CFG03", Severity::Warning, &branch,
             "loop termination not provable: induction register " +
                 isa::registerName(*loop.inductionReg) +
                 " is updated in a non-constant way");
        continue;
      }
      const std::int64_t d = *loop.delta;
      using C = isa::Condition;
      const C c = loop.condition;
      if (d == 0) {
        emit("MT-CFG02", Severity::Error, &branch,
             "loop cannot terminate: induction register " +
                 isa::registerName(*loop.inductionReg) +
                 " never changes across an iteration");
        continue;
      }
      const bool needsDecreasing =
          c == C::GE || c == C::G || c == C::NS || c == C::AE || c == C::A;
      const bool needsIncreasing =
          c == C::LE || c == C::L || c == C::S || c == C::BE || c == C::B;
      if ((needsDecreasing && d > 0) || (needsIncreasing && d < 0)) {
        emit("MT-CFG02", Severity::Error, &branch,
             "loop cannot terminate: induction register " +
                 isa::registerName(*loop.inductionReg) + " moves by " +
                 std::to_string(d) + " per iteration, away from its exit "
                 "bound");
        continue;
      }
      if (c == C::NE) {
        emit("MT-CFG03", Severity::Warning, &branch,
             "termination of a jne loop depends on the induction register "
             "hitting its bound exactly; not provable statically");
      }
    }
    for (std::size_t b : loops_.unanalyzedBranches) {
      auto target = branchTargetIndex(program_, insn(b));
      if (target && *target <= b) {
        emit("MT-CFG03", Severity::Warning, &insn(b),
             "backward branch does not form a recognized single-block loop; "
             "termination not analyzed");
      }
    }
  }

  // -- MT-ABI01..04 ---------------------------------------------------------
  void checkAbi() {
    for (std::size_t i = 0; i < program_.instructions.size(); ++i) {
      if (!cfg_.reachable[i]) continue;
      const DecodedInsn& in = insn(i);
      const RegSet writes = in.recipe.writes;
      for (int s : kCalleeSavedSlots) {
        if (writes.has(s)) {
          emit("MT-ABI01", Severity::Error, &in,
               "callee-saved register " + slotName(s) +
                   " is clobbered; the kernel contract has no stack frame "
                   "to save and restore it");
        }
      }
      if (writes.has(isa::kRsp)) {
        emit("MT-ABI02", Severity::Error, &in,
             "stack pointer %rsp must not be modified");
      }
      if (in.recipe.mem == asmparse::UopRecipe::Mem::Store) {
        const DecodedMem& mem = memoryOperand(in);
        if (mem.base && mem.base->cls == isa::RegClass::Gpr &&
            mem.base->index == isa::kRsp) {
          const std::int64_t lo = mem.index ? INT64_MIN : mem.disp;
          const std::int64_t hi = mem.index
                                      ? INT64_MAX
                                      : mem.disp + in.accessBytes();
          if (lo < -128 || hi > 0) {
            emit("MT-ABI03", Severity::Error, &in,
                 "store through %rsp outside the red zone "
                 "[rsp-128, rsp) would corrupt the caller's stack");
          }
        }
      }
      if (in.desc->kind == isa::InstrKind::Ret &&
          !defined_[i].has(isa::kRax)) {
        emit("MT-ABI04", Severity::Warning, &in,
             "%rax (the iteration-count return value) may be undefined on "
             "this path to ret");
      }
    }
  }

  // -- MT-DF01..04 ----------------------------------------------------------
  void checkDataflow() {
    for (std::size_t i = 0; i < program_.instructions.size(); ++i) {
      if (!cfg_.reachable[i]) continue;
      const DecodedInsn& in = insn(i);

      RegSet addressUses;
      if (in.recipe.memOperand >= 0) {
        const DecodedMem& mem = memoryOperand(in);
        if (mem.base) addressUses.add(*mem.base);
        if (mem.index) addressUses.add(*mem.index);
      }

      RegSet undef = in.recipe.reads - defined_[i];
      for (int s = 0; s < RegSet::kSlots; ++s) {
        if (!undef.has(s)) continue;
        if (s == RegSet::kFlags) {
          emit("MT-DF01", Severity::Error, &in,
               "conditional branch consumes status flags that no reachable "
               "instruction sets");
        } else if (addressUses.has(s)) {
          emit("MT-DF01", Severity::Error, &in,
               "register " + slotName(s) +
                   " is used as a memory address but is never initialized");
        } else {
          emit("MT-DF02", Severity::Warning, &in,
               "register " + slotName(s) +
                   " is read before any initialization");
        }
      }

      // Dead register results. Flags are ignored: nearly every ALU result
      // leaves its flags unread and that is normal.
      bool isLoad = in.recipe.loads();
      for (int s = 0; s < 32; ++s) {
        if (!in.recipe.writes.has(s) || liveOut_[i].has(s)) continue;
        bool calleeSaved =
            std::find(kCalleeSavedSlots.begin(), kCalleeSavedSlots.end(),
                      s) != kCalleeSavedSlots.end();
        if (calleeSaved) continue;  // already an MT-ABI01 error
        if (isLoad) {
          emit("MT-DF04", Severity::Warning, &in,
               "loaded value in " + slotName(s) +
                   " is never used (expected for pure load-bandwidth "
                   "kernels)");
        } else {
          emit("MT-DF03", Severity::Warning, &in,
               "value written to " + slotName(s) + " is never read");
        }
      }
    }
  }

  // -- MT-MEM01..03 ---------------------------------------------------------
  struct LinearAddr {
    SymVal base;          // value at the first execution of the access
    std::int64_t step = 0;  // per-iteration advance (0 outside loops)
  };

  void checkMemory() {
    const LaunchContext& ctx = *options_.context;
    if (!loops_.unanalyzedBranches.empty() || loops_.loops.size() > 1) {
      emit("MT-MEM03", Severity::Warning, nullptr,
           "control flow is too complex for the bounds analysis (multiple "
           "loops or unstructured branches)");
      return;
    }

    // Symbolic state at function entry: the trip count is concrete, array
    // pointers are symbolic bases.
    SymState state;
    state[isa::kRsp] = SymVal::unknown();
    state[isa::kRdi] = SymVal::constant(ctx.tripCount);
    for (int a = 0; a < arrayCount_; ++a) {
      state[isa::argumentRegister(1 + a).index] = SymVal::arrayBase(a, 0);
    }
    for (int s : kCalleeSavedSlots) state[s] = SymVal::unknown();

    const std::size_t n = program_.instructions.size();
    const LoopInfo* loop = loops_.loops.empty() ? nullptr : &loops_.loops[0];

    // Prologue: straight-line up to the loop head (or the whole function).
    std::size_t prologueEnd = loop ? loop->headIndex : n;
    for (std::size_t i = 0; i < prologueEnd; ++i) {
      if (!cfg_.reachable[i]) continue;
      checkAccesses(i, state, /*iterations=*/1, ctx);
      applyInsn(state, insn(i));
    }
    if (!loop) return;

    // Per-register constant deltas over one loop body trip; registers with
    // any non-constant write go unknown inside and after the loop.
    std::array<std::optional<std::int64_t>, 16> bodyDelta;
    for (int r = 0; r < 16; ++r) {
      std::int64_t total = 0;
      bool constant = true;
      for (std::size_t i = loop->headIndex;
           i <= loop->branchIndex && constant; ++i) {
        auto d = constantDelta(insn(i), isa::gpr(r));
        if (d) {
          total += *d;
        } else {
          constant = false;
        }
      }
      if (constant) bodyDelta[r] = total;
    }

    std::optional<std::int64_t> trips = tripCountOf(*loop, state, bodyDelta);
    if (!trips) {
      emit("MT-MEM03", Severity::Warning, &insn(loop->branchIndex),
           "loop trip count is not derivable; memory bounds inside the loop "
           "are unchecked");
    }

    // Body accesses: value of each register at instruction i in trip k is
    // head-state + prefix-delta + k * body-delta.
    SymState atPoint = state;
    for (std::size_t i = loop->headIndex; i <= loop->branchIndex; ++i) {
      SymState iterState = atPoint;
      for (int r = 0; r < 16; ++r) {
        if (!bodyDelta[r]) iterState[r] = SymVal::unknown();
      }
      if (trips) {
        checkAccesses(i, iterState, *trips, ctx, &bodyDelta);
      }
      applyInsn(atPoint, insn(i));
    }

    // Epilogue: fold the loop's total effect into the head state.
    if (!trips) return;
    SymState exitState = state;
    for (int r = 0; r < 16; ++r) {
      if (!bodyDelta[r]) {
        exitState[r] = SymVal::unknown();
      } else if (auto v = addConst(state[r], *bodyDelta[r] * *trips)) {
        exitState[r] = *v;
      } else if (state[r].kind != SymVal::Kind::Undef && *bodyDelta[r] != 0) {
        exitState[r] = SymVal::unknown();
      }
    }
    for (std::size_t i = loop->branchIndex + 1; i < n; ++i) {
      if (!cfg_.reachable[i]) continue;
      checkAccesses(i, exitState, 1, ctx);
      applyInsn(exitState, insn(i));
    }
  }

  std::optional<std::int64_t> tripCountOf(
      const LoopInfo& loop, const SymState& headState,
      const std::array<std::optional<std::int64_t>, 16>& bodyDelta) {
    if (!loop.inductionReg || !loop.delta || loop.writeAfterTest ||
        !loop.flagSetter) {
      return std::nullopt;
    }
    int r = loop.inductionReg->index;
    if (loop.inductionReg->cls != isa::RegClass::Gpr || !bodyDelta[r]) {
      return std::nullopt;
    }
    const SymVal& entry = headState[r];
    if (!entry.isConst()) return std::nullopt;
    std::int64_t bound;
    if (loop.boundImm) {
      bound = *loop.boundImm;
    } else if (loop.boundReg &&
               loop.boundReg->cls == isa::RegClass::Gpr &&
               headState[loop.boundReg->index].isConst()) {
      bound = headState[loop.boundReg->index].off;
    } else {
      return std::nullopt;
    }
    // Value observed by the flag setter on the first trip.
    std::int64_t first = entry.off;
    for (std::size_t i = loop.headIndex; i <= *loop.flagSetter; ++i) {
      auto d = constantDelta(insn(i), *loop.inductionReg);
      if (!d) return std::nullopt;
      first += *d;
    }
    return bodyExecutions(first, *loop.delta, bound, loop.condition);
  }

  /// Bounds/alignment check for the memory access of instruction i,
  /// executed `iterations` times with per-register advance `bodyDelta`
  /// (nullptr outside loops).
  void checkAccesses(
      std::size_t i, const SymState& state, std::int64_t iterations,
      const LaunchContext& ctx,
      const std::array<std::optional<std::int64_t>, 16>* bodyDelta = nullptr) {
    const DecodedInsn& in = insn(i);
    if (in.recipe.mem == asmparse::UopRecipe::Mem::None) return;  // lea too
    const DecodedMem& mem = memoryOperand(in);
    SymVal addr = evalAddress(state, mem);
    if (addr.kind == SymVal::Kind::Undef) return;  // MT-DF01 covers it
    if (!addr.isArray()) {
      emit("MT-MEM03", Severity::Warning, &in,
           addr.isConst()
               ? "absolute memory address cannot be checked against any "
                 "array extent"
               : "memory address is not a recognizable array+offset "
                 "expression; bounds not provable");
      return;
    }
    std::int64_t step = 0;
    if (bodyDelta) {
      if (mem.base && mem.base->cls == isa::RegClass::Gpr) {
        auto d = (*bodyDelta)[mem.base->index];
        if (!d) {
          emit("MT-MEM03", Severity::Warning, &in,
               "base register advances non-linearly; bounds not provable");
          return;
        }
        step += *d;
      }
      if (mem.index && mem.index->cls == isa::RegClass::Gpr) {
        auto d = (*bodyDelta)[mem.index->index];
        if (!d) {
          emit("MT-MEM03", Severity::Warning, &in,
               "index register advances non-linearly; bounds not provable");
          return;
        }
        step += *d * mem.scale;
      }
    }
    if (addr.array < 0 ||
        addr.array >= static_cast<int>(ctx.arrays.size())) {
      emit("MT-MEM03", Severity::Warning, &in,
           "access through argument register with no matching array in "
           "the launch context");
      return;
    }
    const ArrayExtent& arr = ctx.arrays[addr.array];
    const std::int64_t bytes = in.accessBytes();
    const std::int64_t last = addr.off + step * (iterations - 1);
    const std::int64_t lo = std::min(addr.off, last);
    const std::int64_t hi = std::max(addr.off, last) + bytes;
    const std::int64_t extent =
        static_cast<std::int64_t>(arr.bytes) +
        static_cast<std::int64_t>(ctx.slackBytes);
    if (lo < 0) {
      emit("MT-MEM01", Severity::Error, &in,
           "access reaches byte " + std::to_string(lo) +
               " before the start of array " + std::to_string(addr.array));
    } else if (hi > extent) {
      emit("MT-MEM01", Severity::Error, &in,
           "access reaches byte " + std::to_string(hi) + " of array " +
               std::to_string(addr.array) + " (extent " +
               std::to_string(arr.bytes) + " + " +
               std::to_string(ctx.slackBytes) + " padding)");
    }
    if (in.desc->requiresAlignment) {
      const std::int64_t align = 16;
      bool provable = arr.alignment % align == 0 &&
                      (static_cast<std::int64_t>(arr.offset) + addr.off) %
                              align ==
                          0 &&
                      step % align == 0;
      if (!provable) {
        emit("MT-MEM02", Severity::Error, &in,
             "'" + in.mnemonic + "' requires 16-byte alignment but the "
             "address is not provably aligned (base alignment " +
                 std::to_string(arr.alignment) + ", offset " +
                 std::to_string(static_cast<std::int64_t>(arr.offset) +
                                addr.off) +
                 ", step " + std::to_string(step) + ")");
      }
    }
  }

  const asmparse::Program& program_;
  const VerifyOptions& options_;
  Cfg cfg_;
  LoopScan loops_;
  int arrayCount_ = 5;
  std::vector<RegSet> defined_;
  std::vector<RegSet> live_;
  std::vector<RegSet> liveOut_;
  VerifyReport report_;
};

}  // namespace

std::string_view severityName(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::size_t VerifyReport::errorCount() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Error;
                    }));
}

std::size_t VerifyReport::warningCount() const {
  return diagnostics.size() - errorCount();
}

std::string VerifyReport::shortSummary() const {
  if (diagnostics.empty()) return "ok";
  std::set<std::string> errors, warnings;
  for (const Diagnostic& d : diagnostics) {
    (d.severity == Severity::Error ? errors : warnings).insert(d.rule);
  }
  auto join = [](const std::set<std::string>& rules) {
    std::string out;
    for (const std::string& r : rules) {
      if (!out.empty()) out += '+';
      out += r;
    }
    return out;
  };
  std::string out;
  if (!errors.empty()) out += "E:" + join(errors);
  if (!warnings.empty()) {
    if (!out.empty()) out += ';';
    out += "W:" + join(warnings);
  }
  return out;
}

VerifyReport verifyProgram(const asmparse::Program& program,
                           const VerifyOptions& options) {
  try {
    return Checker(program, options).run();
  } catch (const ParseError& e) {
    // Unknown branch labels and similar structural defects surface here.
    VerifyReport report;
    report.diagnostics.push_back({"MT-PARSE", Severity::Error, e.message(),
                                  e.line(), e.column()});
    return report;
  }
}

VerifyReport verifyAssembly(std::string_view asmText,
                            const VerifyOptions& options) {
  try {
    return verifyProgram(asmparse::parseAssembly(asmText), options);
  } catch (const ParseError& e) {
    VerifyReport report;
    report.diagnostics.push_back({"MT-PARSE", Severity::Error, e.message(),
                                  e.line(), e.column()});
    return report;
  }
}

std::string renderText(const VerifyReport& report, std::string_view source) {
  std::ostringstream out;
  for (const Diagnostic& d : report.diagnostics) {
    out << source;
    if (d.line) {
      out << ':' << d.line;
      if (d.column) out << ':' << d.column;
    }
    out << ": " << severityName(d.severity) << ": [" << d.rule << "] "
        << d.message << '\n';
  }
  out << source << ": " << report.errorCount() << " error(s), "
      << report.warningCount() << " warning(s)\n";
  return out.str();
}

std::string renderJsonLines(const VerifyReport& report,
                            std::string_view source) {
  std::ostringstream out;
  for (const Diagnostic& d : report.diagnostics) {
    out << "{\"source\":\"" << strings::jsonEscape(source) << "\",\"rule\":\""
        << d.rule << "\",\"severity\":\"" << severityName(d.severity)
        << "\",\"line\":" << d.line << ",\"column\":" << d.column
        << ",\"message\":\"" << strings::jsonEscape(d.message) << "\"}\n";
  }
  return out.str();
}

}  // namespace microtools::verify
