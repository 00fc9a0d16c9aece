#include "sim/core.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/error.hpp"

namespace microtools::sim {

namespace {
constexpr std::uint64_t kFar = std::numeric_limits<std::uint64_t>::max();

// ---- steady-state exit solve ----------------------------------------------

// Indices of the flag slots inside SsBoundary::arch (must match
// CoreSim::ssVisitArch's traversal order: 16 GPRs first).
constexpr std::size_t kSsArchFlagsResult = 16;
constexpr std::size_t kSsArchFlagsA = 17;
constexpr std::size_t kSsArchFlagsB = 18;

// Never extrapolate across more steps than this; keeps all the closed-form
// arithmetic comfortably inside __int128.
constexpr std::uint64_t kSsMaxSteps = 1ull << 40;

// Consecutive all-L1 loop boundaries required before boundary snapshots
// start being captured. Must exceed the longest clean run of a streaming
// loop (15 boundaries for a 4-byte stride over 64-byte lines) so that
// loops which periodically miss never pay the capture cost.
constexpr int kSsMinCleanStreak = 24;

// Upper bound on replayed LRU refreshes per extrapolation. Loops whose
// skipped accesses exceed this fall back to full simulation — correctness
// is never at stake, only how much work extrapolation is allowed to save.
constexpr std::uint64_t kSsMaxReplayAccesses = 1ull << 24;

// The loop branch at the current boundary was taken with flag state
// (r0, a0, b0); each further iteration advances the flags by (dr, da, db)
// in wrapping arithmetic. Returns the first t >= 1 at which the branch
// condition evaluates false — i.e. the number of remaining loop iterations —
// or nullopt when no exact closed form applies (the caller then simply keeps
// simulating cycle by cycle, which is always correct).
std::optional<std::uint64_t> ssSolveExit(isa::Condition cond, std::int64_t r0,
                                         std::int64_t dr, std::uint64_t a0,
                                         std::uint64_t da, std::uint64_t b0,
                                         std::uint64_t db) {
  using i128 = __int128;

  // Exact wrapping re-evaluation of the condition after j iterations; the
  // candidate from the closed form is only accepted when the predicate
  // flips between j-1 and j under this exact semantics.
  auto predicate = [&](std::uint64_t j) -> bool {
    std::int64_t r = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(r0) + static_cast<std::uint64_t>(dr) * j);
    std::uint64_t a = a0 + da * j;
    std::uint64_t b = b0 + db * j;
    switch (cond) {
      case isa::Condition::E: return r == 0;
      case isa::Condition::NE: return r != 0;
      case isa::Condition::L:
      case isa::Condition::S: return r < 0;
      case isa::Condition::LE: return r <= 0;
      case isa::Condition::G: return r > 0;
      case isa::Condition::GE:
      case isa::Condition::NS: return r >= 0;
      case isa::Condition::B: return a < b;
      case isa::Condition::BE: return a <= b;
      case isa::Condition::A: return a > b;
      case isa::Condition::AE: return a >= b;
      case isa::Condition::None: return false;
    }
    return false;
  };
  if (!predicate(0)) return std::nullopt;  // inconsistent boundary state

  const i128 R0 = r0;
  const i128 DR = dr;
  std::optional<std::uint64_t> cand;
  bool signedCond = false;
  switch (cond) {
    case isa::Condition::E:
      if (dr != 0) cand = 1;
      break;
    case isa::Condition::NE: {
      // Exits when the result reaches exactly zero.
      if (dr != 0 && (-R0) % DR == 0 && (-R0) / DR >= 1) {
        cand = static_cast<std::uint64_t>((-R0) / DR);
        signedCond = true;
      }
      break;
    }
    case isa::Condition::L:
    case isa::Condition::S:  // exits when result becomes >= 0
      if (dr > 0) {
        cand = static_cast<std::uint64_t>((-R0 + DR - 1) / DR);
        signedCond = true;
      }
      break;
    case isa::Condition::LE:  // exits when result becomes > 0
      if (dr > 0) {
        cand = static_cast<std::uint64_t>((-R0) / DR + 1);
        signedCond = true;
      }
      break;
    case isa::Condition::G:  // exits when result becomes <= 0
      if (dr < 0) {
        cand = static_cast<std::uint64_t>((R0 + (-DR) - 1) / (-DR));
        signedCond = true;
      }
      break;
    case isa::Condition::GE:
    case isa::Condition::NS:  // exits when result becomes < 0
      if (dr < 0) {
        cand = static_cast<std::uint64_t>(R0 / (-DR) + 1);
        signedCond = true;
      }
      break;
    case isa::Condition::B:   // exits when a >= b
    case isa::Condition::BE:  // exits when a > b
      if (db == 0) {
        std::int64_t sa = static_cast<std::int64_t>(da);
        if (sa > 0) {
          // Monotone increase; require that the value cannot wrap before
          // the crossing.
          std::uint64_t gap = b0 - a0 + (cond == isa::Condition::BE ? 1 : 0);
          std::uint64_t c = (gap + da - 1) / da;
          if (static_cast<unsigned __int128>(a0) +
                  static_cast<unsigned __int128>(c) * da <
              (static_cast<unsigned __int128>(1) << 64)) {
            cand = c;
          }
        } else if (sa < 0) {
          // Monotone decrease; the exit is the wrap below zero, after which
          // the value is huge. The verification below confirms it.
          std::uint64_t s = static_cast<std::uint64_t>(-sa);
          cand = a0 / s + 1;
        }
      }
      break;
    case isa::Condition::A:   // exits when a <= b
    case isa::Condition::AE:  // exits when a < b
      if (db == 0) {
        std::int64_t sa = static_cast<std::int64_t>(da);
        if (sa < 0) {
          std::uint64_t s = static_cast<std::uint64_t>(-sa);
          std::uint64_t gap = a0 - b0 + (cond == isa::Condition::AE ? 1 : 0);
          if (a0 / s + 1 >= (gap + s - 1) / s) {  // crossing before any wrap
            cand = (gap + s - 1) / s;
          }
        }
        // Increasing operand exits only through a wrap-around; too exotic
        // to model — fall through to nullopt.
      }
      break;
    case isa::Condition::None:
      break;
  }
  if (!cand || *cand < 1 || *cand > kSsMaxSteps) return std::nullopt;
  if (signedCond) {
    // The closed form used non-wrapping arithmetic; reject any range where
    // the wide value could cross the int64 boundary before the exit.
    i128 lo = R0, hi = R0 + DR * static_cast<i128>(*cand);
    if (lo > hi) std::swap(lo, hi);
    constexpr i128 kI64Max = std::numeric_limits<std::int64_t>::max();
    constexpr i128 kI64Min = std::numeric_limits<std::int64_t>::min();
    if (lo < kI64Min || hi > kI64Max) return std::nullopt;
  }
  if (!predicate(*cand - 1) || predicate(*cand)) return std::nullopt;
  return cand;
}
}  // namespace

CoreSim::CoreSim(const MachineConfig& config, MemorySystem& memsys,
                 int coreId)
    : config_(config), memsys_(memsys), coreId_(coreId) {
  for (int unit = 0; unit < isa::kExecUnitCount; ++unit) {
    portFree_[unit].assign(
        static_cast<std::size_t>(
            config_.ports(static_cast<isa::ExecUnit>(unit))),
        0);
  }
  fillBufferFree_.assign(static_cast<std::size_t>(config_.fillBuffers), 0);
  lastWriter_.fill(-1);
}

void CoreSim::start(const asmparse::Program& program, int n,
                    const std::vector<std::uint64_t>& arrayAddrs,
                    std::uint64_t startCycle) {
  program_ = &program;
  pc_ = 0;
  gprs_.fill(0);
  gprs_[isa::kRdi] = n;
  for (std::size_t i = 0; i < arrayAddrs.size(); ++i) {
    if (static_cast<int>(i) + 1 >= isa::kNumArgumentRegisters) {
      throw McError("too many array arguments for the SysV registers");
    }
    gprs_[static_cast<std::size_t>(
        isa::argumentRegister(static_cast<int>(i) + 1).index)] =
        static_cast<std::int64_t>(arrayAddrs[i]);
  }
  flagsResult_ = 0;
  flagsA_ = flagsB_ = 0;
  rob_.clear();
  headId_ = 0;
  lastWriter_.fill(-1);
  for (auto& ports : portFree_) {
    std::fill(ports.begin(), ports.end(), startCycle);
  }
  std::fill(fillBufferFree_.begin(), fillBufferFree_.end(), startCycle);
  recentStores_.fill(RecentStore{});
  recentStoreNext_ = 0;
  dispatchStallUntil_ = startCycle;
  doneDispatching_ = false;
  finished_ = false;
  startCycle_ = startCycle;
  endCycle_ = startCycle;
  lastCompletion_ = startCycle;
  nextEvent_ = startCycle;
  instructions_ = 0;
  uopCount_ = 0;
  for (auto& c : levelAccesses_) c = 0;
  // Steady-state extrapolation bookkeeping. Tracing wants every issue and
  // retire event, so it forces full simulation.
  ssDisabled_ = !ss_.enabled || trace_ != nullptr;
  ssHistory_.clear();
  ssBranchPc_ = ~std::size_t{0};
  ssTargetPc_ = ~std::size_t{0};
  ssIterations_ = 0;
  for (auto& m : ssLevelMark_) m = 0;
  ssCleanStreak_ = 0;
  ssRecording_ = false;
  ssCurWindow_.clear();
  ssAccessLog_.clear();
  ssBoundaryPending_ = false;
  extrapolatedFrom_ = 0;
  extrapolatedIterations_ = 0;
  // Jump to the entry label when the function name is a known label.
  if (!program.functionName.empty()) {
    auto it = program.labels.find(program.functionName);
    if (it != program.labels.end()) pc_ = it->second;
  }
}

std::int64_t CoreSim::readGpr(const isa::PhysReg& reg) const {
  std::int64_t raw = gprs_[static_cast<std::size_t>(reg.index)];
  switch (reg.widthBits) {
    case 64: return raw;
    case 32: return static_cast<std::int64_t>(static_cast<std::int32_t>(raw));
    case 16: return static_cast<std::int64_t>(static_cast<std::int16_t>(raw));
    case 8: return static_cast<std::int64_t>(static_cast<std::int8_t>(raw));
    default: throw McError("bad register width");
  }
}

void CoreSim::writeGpr(const isa::PhysReg& reg, std::int64_t value) {
  std::int64_t& slot = gprs_[static_cast<std::size_t>(reg.index)];
  switch (reg.widthBits) {
    case 64:
      slot = value;
      break;
    case 32:
      // x86-64: 32-bit writes zero-extend into the full register.
      slot = static_cast<std::int64_t>(
          static_cast<std::uint32_t>(value));
      break;
    case 16:
      slot = (slot & ~0xffffll) | (value & 0xffff);
      break;
    case 8:
      slot = (slot & ~0xffll) | (value & 0xff);
      break;
    default:
      throw McError("bad register width");
  }
}

std::uint64_t CoreSim::effectiveAddress(const asmparse::DecodedMem& mem) const {
  std::int64_t addr = mem.disp;
  if (mem.base) {
    if (mem.base->cls == isa::RegClass::Rip) {
      // RIP-relative: treat the displacement as absolute.
    } else {
      addr += readGpr(*mem.base);
    }
  }
  if (mem.index) {
    addr += readGpr(*mem.index) * mem.scale;
  }
  return static_cast<std::uint64_t>(addr);
}

std::int64_t CoreSim::operandValue(const asmparse::DecodedOperand& op) const {
  using Kind = asmparse::DecodedOperand::Kind;
  switch (op.kind) {
    case Kind::Imm: return op.imm;
    case Kind::Reg:
      if (op.reg.cls == isa::RegClass::Gpr) return readGpr(op.reg);
      return 0;  // XMM data values are not tracked
    case Kind::Mem: return 0;  // loaded values are not tracked
    case Kind::Label: return 0;
  }
  return 0;
}

bool CoreSim::evaluateCondition(isa::Condition cond) const {
  switch (cond) {
    case isa::Condition::E: return flagsResult_ == 0;
    case isa::Condition::NE: return flagsResult_ != 0;
    case isa::Condition::L: return flagsResult_ < 0;
    case isa::Condition::LE: return flagsResult_ <= 0;
    case isa::Condition::G: return flagsResult_ > 0;
    case isa::Condition::GE: return flagsResult_ >= 0;
    case isa::Condition::S: return flagsResult_ < 0;
    case isa::Condition::NS: return flagsResult_ >= 0;
    case isa::Condition::B: return flagsA_ < flagsB_;
    case isa::Condition::BE: return flagsA_ <= flagsB_;
    case isa::Condition::A: return flagsA_ > flagsB_;
    case isa::Condition::AE: return flagsA_ >= flagsB_;
    case isa::Condition::None: break;
  }
  throw McError("branch without a condition");
}

void CoreSim::executeFunctional(const asmparse::DecodedInsn& insn,
                                bool& branchTaken) {
  using Kind = asmparse::DecodedOperand::Kind;
  const auto& ops = insn.operands;
  branchTaken = false;

  auto setFlags = [this](std::int64_t result, std::uint64_t a,
                         std::uint64_t b) {
    flagsResult_ = result;
    flagsA_ = a;
    flagsB_ = b;
  };

  switch (insn.desc->kind) {
    case isa::InstrKind::Move: {
      if (ops.size() != 2) throw McError("move needs two operands");
      if (ops[1].kind == Kind::Reg && ops[1].reg.cls == isa::RegClass::Gpr) {
        writeGpr(ops[1].reg, operandValue(ops[0]));
      }
      // XMM destinations and stores: no tracked value.
      return;
    }
    case isa::InstrKind::IntAlu: {
      // inc/dec/neg/not have one operand; the rest have two (src, dst).
      const isa::Opcode op = insn.recipe.op;
      if (ops.size() == 1) {
        if (ops[0].kind != Kind::Reg) return;  // memory forms: timing only
        std::int64_t v = readGpr(ops[0].reg);
        std::int64_t r = v;
        switch (op) {
          case isa::Opcode::Inc: r = v + 1; break;
          case isa::Opcode::Dec: r = v - 1; break;
          case isa::Opcode::Neg: r = -v; break;
          case isa::Opcode::Not: r = ~v; break;
          default: break;
        }
        writeGpr(ops[0].reg, r);
        if (insn.recipe.writes.has(isa::RegSet::kFlags)) {
          setFlags(r, static_cast<std::uint64_t>(r), 0);
        }
        return;
      }
      if (ops.size() != 2 || ops[1].kind != Kind::Reg) return;
      std::int64_t src = operandValue(ops[0]);
      std::int64_t dst = readGpr(ops[1].reg);
      std::int64_t r = dst;
      switch (op) {
        case isa::Opcode::Add: r = dst + src; break;
        case isa::Opcode::Sub: r = dst - src; break;
        case isa::Opcode::And: r = dst & src; break;
        case isa::Opcode::Or: r = dst | src; break;
        case isa::Opcode::Xor: r = dst ^ src; break;
        case isa::Opcode::Shl: r = dst << (src & 63); break;
        case isa::Opcode::Shr:
          r = static_cast<std::int64_t>(static_cast<std::uint64_t>(dst) >>
                                        (src & 63));
          break;
        case isa::Opcode::Sar: r = dst >> (src & 63); break;
        default: break;
      }
      writeGpr(ops[1].reg, r);
      setFlags(r, static_cast<std::uint64_t>(dst),
               static_cast<std::uint64_t>(src));
      return;
    }
    case isa::InstrKind::IntMul: {
      if (ops.size() == 2 && ops[1].kind == Kind::Reg) {
        std::int64_t r = readGpr(ops[1].reg) * operandValue(ops[0]);
        writeGpr(ops[1].reg, r);
        setFlags(r, static_cast<std::uint64_t>(r), 0);
      }
      return;
    }
    case isa::InstrKind::Lea: {
      if (ops.size() == 2 && ops[0].kind == Kind::Mem &&
          ops[1].kind == Kind::Reg) {
        writeGpr(ops[1].reg,
                 static_cast<std::int64_t>(effectiveAddress(ops[0].mem)));
      }
      return;
    }
    case isa::InstrKind::Compare: {
      if (ops.size() != 2) throw McError("compare needs two operands");
      std::int64_t src = operandValue(ops[0]);
      std::int64_t dst = ops[1].kind == Kind::Reg ? readGpr(ops[1].reg)
                                                  : operandValue(ops[1]);
      if (insn.recipe.op == isa::Opcode::Test) {
        setFlags(dst & src, static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(src));
      } else {
        setFlags(dst - src, static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(src));
      }
      return;
    }
    case isa::InstrKind::CondBranch:
      branchTaken = evaluateCondition(insn.desc->condition);
      return;
    case isa::InstrKind::Jump:
      branchTaken = true;
      return;
    case isa::InstrKind::FpAdd:
    case isa::InstrKind::FpMul:
    case isa::InstrKind::FpDiv:
    case isa::InstrKind::FpLogic:
      return;  // FP values are not tracked
    case isa::InstrKind::Ret:
    case isa::InstrKind::Nop:
      return;
  }
}

void CoreSim::addDep(Uop& uop, int reg) const {
  std::int64_t writer = lastWriter_[static_cast<std::size_t>(reg)];
  if (writer < 0) return;
  if (uop.depCount >= static_cast<int>(uop.deps.size())) {
    throw McError("uop dependency list overflow");
  }
  uop.deps[static_cast<std::size_t>(uop.depCount++)] = static_cast<int>(writer);
}

void CoreSim::noteWrite(int reg, std::uint64_t producerId) {
  lastWriter_[static_cast<std::size_t>(reg)] =
      static_cast<std::int64_t>(producerId);
}

std::uint64_t CoreSim::pushUop(Uop uop) {
  std::uint64_t id = headId_ + rob_.size();
  rob_.push_back(uop);
  ++uopCount_;
  return id;
}

bool CoreSim::depsReady(const Uop& uop, std::uint64_t cycle) const {
  for (int i = 0; i < uop.depCount; ++i) {
    std::uint64_t depId = static_cast<std::uint64_t>(
        uop.deps[static_cast<std::size_t>(i)]);
    if (depId < headId_) continue;  // retired => complete
    const Uop& producer = rob_[depId - headId_];
    if (!producer.issued || producer.completeCycle > cycle) return false;
  }
  return true;
}

bool CoreSim::tryIssueOne(Uop& uop, std::uint64_t globalId,
                          std::uint64_t cycle) {
  if (!depsReady(uop, cycle)) return false;

  auto& ports = portFree_[static_cast<int>(uop.unit)];
  auto portIt = std::min_element(ports.begin(), ports.end());
  if (*portIt > cycle) return false;

  std::uint64_t completion = cycle + static_cast<std::uint64_t>(uop.latency);
  std::uint64_t portBusyUntil = cycle + uop.occupancy;

  if (uop.isMem) {
    bool needsFillBuffer =
        memsys_.peekLevel(coreId_, uop.addr) != MemLevel::L1;
    std::vector<std::uint64_t>::iterator fb = fillBufferFree_.end();
    if (needsFillBuffer) {
      fb = std::min_element(fillBufferFree_.begin(), fillBufferFree_.end());
      if (*fb > cycle) return false;  // MLP limit reached
    }
    if (ssRecording_) ssCurWindow_.push_back({uop.addr, uop.bytes});
    if (uop.unit == isa::ExecUnit::Load) {
      AccessResult res = memsys_.load(coreId_, uop.addr, uop.bytes, cycle);
      completion = res.completeCycle;
      ++levelAccesses_[static_cast<int>(res.level)];
      // 4 KiB aliasing: a recent store whose address matches the load's low
      // twelve bits (different line) triggers a false MOB dependence and a
      // load replay — the load port stays busy for the penalty, costing
      // real throughput, and the data arrives late.
      bool aliased = false;
      std::uint64_t pageOff = uop.addr & 0xfffull;
      for (const RecentStore& st : recentStores_) {
        if (st.cycle == 0 || st.cycle + 32 < cycle) continue;
        std::uint64_t stOff = st.addr & 0xfffull;
        std::uint64_t distance = stOff > pageOff ? stOff - pageOff
                                                 : pageOff - stOff;
        if (distance < 64 && (st.addr / 64) != (uop.addr / 64)) {
          aliased = true;
          break;
        }
      }
      if (aliased) {
        completion += static_cast<std::uint64_t>(config_.aliasing4kPenalty);
        portBusyUntil = cycle +
            static_cast<std::uint64_t>(config_.aliasing4kPenalty);
      }
      if (fb != fillBufferFree_.end()) *fb = completion;
    } else {  // Store
      AccessResult res = memsys_.store(coreId_, uop.addr, uop.bytes, cycle);
      ++levelAccesses_[static_cast<int>(res.level)];
      // The pipeline does not wait for the RFO; the fill buffer does.
      if (fb != fillBufferFree_.end()) *fb = res.completeCycle;
      completion = cycle + 1;
      recentStores_[recentStoreNext_] = {uop.addr, cycle};
      recentStoreNext_ = (recentStoreNext_ + 1) % recentStores_.size();
    }
  }

  *portIt = portBusyUntil;
  uop.issued = true;
  uop.completeCycle = completion;
  lastCompletion_ = std::max(lastCompletion_, completion);
  if (trace_) {
    static const char* kUnitNames[] = {"LD", "ST", "ALU", "FPA",
                                       "FPM", "FPD", "BR"};
    std::fprintf(trace_, "core%d id=%llu %s issue=%llu complete=%llu addr=%llx\n",
                 coreId_, static_cast<unsigned long long>(globalId),
                 kUnitNames[static_cast<int>(uop.unit)],
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(completion),
                 static_cast<unsigned long long>(uop.addr));
  }
  return true;
}

void CoreSim::retire(std::uint64_t cycle) {
  int retired = 0;
  while (!rob_.empty() && retired < config_.issueWidth) {
    const Uop& head = rob_.front();
    if (!head.issued || head.completeCycle > cycle) break;
    rob_.pop_front();
    ++headId_;
    ++retired;
  }
}

void CoreSim::issue(std::uint64_t cycle) {
  int issued = 0;
  int examined = 0;
  bool olderStorePending = false;
  // Only the oldest rsEntries un-issued uops are visible to the scheduler
  // (Nehalem's 36-entry reservation station); this also bounds the scan.
  for (std::size_t i = 0; i < rob_.size() && issued < config_.issueWidth &&
                          examined < config_.rsEntries;
       ++i) {
    Uop& uop = rob_[i];
    if (uop.issued) continue;
    ++examined;
    // Stores issue in order among themselves (store-buffer FIFO).
    if (uop.unit == isa::ExecUnit::Store && olderStorePending) continue;
    bool ok = tryIssueOne(uop, headId_ + i, cycle);
    if (ok) {
      ++issued;
    } else if (uop.unit == isa::ExecUnit::Store) {
      olderStorePending = true;
    }
  }
}

void CoreSim::dispatch(std::uint64_t cycle) {
  if (doneDispatching_ || cycle < dispatchStallUntil_) return;
  int dispatched = 0;
  while (dispatched < config_.issueWidth && !doneDispatching_) {
    if (rob_.size() + 2 > static_cast<std::size_t>(config_.robSize)) break;
    if (pc_ >= program_->instructions.size()) {
      doneDispatching_ = true;
      break;
    }
    const asmparse::DecodedInsn& insn = program_->instructions[pc_];
    const isa::InstrDesc& desc = *insn.desc;
    const asmparse::UopRecipe& recipe = insn.recipe;

    if (desc.kind == isa::InstrKind::Ret) {
      ++instructions_;
      doneDispatching_ = true;
      break;
    }
    if (recipe.count == 0) {  // nop: a dispatch slot, no micro-op
      ++instructions_;
      ++pc_;
      ++dispatched;
      continue;
    }
    if (dispatched + recipe.count > config_.issueWidth) break;

    // ---- push the recipe's uops (before functional update so deps see old
    //      writers, but addresses need current values: compute them now) ---
    std::uint64_t addr = 0;
    int accessBytes = 0;
    if (recipe.mem != asmparse::UopRecipe::Mem::None) {
      addr = effectiveAddress(
          insn.operands[static_cast<std::size_t>(recipe.memOperand)].mem);
      accessBytes = insn.accessBytes();
    }
    std::uint64_t prevId = 0;
    for (int k = 0; k < recipe.count; ++k) {
      const asmparse::MicroOp& op = recipe.uops[static_cast<std::size_t>(k)];
      Uop uop;
      uop.unit = op.unit;
      uop.isMem = op.unit == isa::ExecUnit::Load ||
                  op.unit == isa::ExecUnit::Store;
      uop.latency = op.unit == isa::ExecUnit::Load ? config_.l1.latencyCycles
                                                   : op.latency;
      uop.occupancy = op.occupancy;
      if (uop.isMem) {
        uop.addr = addr;
        uop.bytes = accessBytes;
      }
      if (k > 0) {  // a fused load-op's compute uop consumes the load
        uop.deps[static_cast<std::size_t>(uop.depCount++)] =
            static_cast<int>(prevId);
      }
      op.srcs.forEach([&](int slot) { addDep(uop, slot); });
      uop.dst = op.dst;
      prevId = pushUop(uop);
      if (op.dst >= 0) noteWrite(op.dst, prevId);
      if (op.writesFlags) noteWrite(isa::RegSet::kFlags, prevId);
      ++dispatched;
    }

    // ---- functional execution & control flow -------------------------------
    bool branchTaken = false;
    executeFunctional(insn, branchTaken);
    ++instructions_;

    if (desc.kind == isa::InstrKind::CondBranch ||
        desc.kind == isa::InstrKind::Jump) {
      if (branchTaken) {
        const auto& target = insn.operands.at(0);
        if (target.kind != asmparse::DecodedOperand::Kind::Label) {
          throw McError("indirect branches are not supported");
        }
        std::size_t targetPc = program_->labelTarget(target.label);
        bool backward = targetPc <= pc_;
        std::size_t branchPc = pc_;
        pc_ = targetPc;
        if (!backward) {
          // Forward taken branches are modeled as predicted not-taken.
          dispatchStallUntil_ =
              cycle + static_cast<std::uint64_t>(config_.mispredictPenalty);
        } else if (!ssDisabled_) {
          // Loop boundary: snapshot at the end of the tick, once the full
          // cycle's effects (including this dispatch) are in place.
          ++ssIterations_;
          if (branchPc != ssBranchPc_ || targetPc != ssTargetPc_) {
            ssHistory_.clear();
            ssAccessLog_.clear();
            ssCurWindow_.clear();
            ssRecording_ = false;
            ssCleanStreak_ = 0;
            ssBranchPc_ = branchPc;
            ssTargetPc_ = targetPc;
          }
          ssBoundaryPending_ = true;
        }
        // The frontend cannot dispatch past a taken branch in the same
        // cycle; this also caps tiny loops at one iteration per cycle.
        break;
      } else {
        // Loop exit: the backward branch was predicted taken; pay the
        // mispredict bubble once.
        ++pc_;
        dispatchStallUntil_ =
            cycle + static_cast<std::uint64_t>(config_.mispredictPenalty);
        break;
      }
    } else {
      ++pc_;
    }
  }
}

void CoreSim::tick(std::uint64_t cycle) {
  if (finished_) return;
  std::uint64_t robBefore = headId_ + rob_.size();
  std::uint64_t headBefore = headId_;
  retire(cycle);
  issue(cycle);
  dispatch(cycle);
  bool progressed = (headId_ != headBefore) ||
                    (headId_ + rob_.size() != robBefore);
  if (doneDispatching_ && rob_.empty()) {
    finished_ = true;
    endCycle_ = std::max(lastCompletion_, cycle);
    nextEvent_ = kFar;
    return;
  }
  computeNextEvent(cycle, progressed);
  if (ssBoundaryPending_) {
    ssBoundaryPending_ = false;
    ssOnBoundary(cycle);  // may fast-forward state and overwrite nextEvent_
  }
}

void CoreSim::computeNextEvent(std::uint64_t cycle, bool progressed) {
  if (progressed) {
    nextEvent_ = cycle + 1;
    return;
  }
  std::uint64_t next = kFar;
  for (const Uop& uop : rob_) {
    if (uop.issued && uop.completeCycle > cycle) {
      next = std::min(next, uop.completeCycle);
    }
  }
  if (dispatchStallUntil_ > cycle) {
    next = std::min(next, dispatchStallUntil_);
  }
  for (const auto& ports : portFree_) {
    for (std::uint64_t f : ports) {
      if (f > cycle) next = std::min(next, f);
    }
  }
  for (std::uint64_t f : fillBufferFree_) {
    if (f > cycle) next = std::min(next, f);
  }
  if (next == kFar) next = cycle + 1;  // safety: never stall forever
  nextEvent_ = std::max(next, cycle + 1);
}

// ---- steady-state extrapolation --------------------------------------------
//
// The detection/extrapolation machinery below is documented in DESIGN.md
// ("Steady-state model"). In short: once every loop iteration is an exact
// repeat of the previous one — same ROB shape, same per-iteration register
// and counter deltas, same per-period timing deltas, and an address stream
// that is provably all-L1 for the remainder of the loop — the simulator
// solves the loop-exit condition analytically, adds the per-iteration deltas
// m times in one step, and resumes cycle simulation for the final iteration
// and the pipeline drain. The result is bit-identical to full simulation.

template <typename Fn>
void CoreSim::ssVisitArch(Fn&& fn) {
  auto i64slot = [&fn](std::int64_t& s) {
    std::uint64_t v = static_cast<std::uint64_t>(s);
    fn(v);
    s = static_cast<std::int64_t>(v);
  };
  // Order matters: kSsArchFlags* index into this sequence.
  for (std::int64_t& g : gprs_) i64slot(g);
  i64slot(flagsResult_);
  fn(flagsA_);
  fn(flagsB_);
  fn(uopCount_);
  fn(instructions_);
  for (std::int64_t& w : lastWriter_) i64slot(w);
}

template <typename Fn>
void CoreSim::ssVisitTiming(Fn&& fn) {
  fn(headId_);
  fn(levelAccesses_[1]);
  fn(dispatchStallUntil_);
  fn(lastCompletion_);
  for (Uop& u : rob_) {
    fn(u.addr);
    fn(u.completeCycle);
    // Dependency ids are absolute uop ids and advance with the frontier;
    // already-retired producers sit below headId_ and keep a zero delta.
    for (int i = 0; i < u.depCount; ++i) {
      int& d = u.deps[static_cast<std::size_t>(i)];
      std::uint64_t v =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
      fn(v);
      d = static_cast<int>(static_cast<std::int64_t>(v));
    }
  }
  for (auto& ports : portFree_) {
    for (std::uint64_t& f : ports) fn(f);
  }
  for (std::uint64_t& f : fillBufferFree_) fn(f);
  for (RecentStore& st : recentStores_) {
    fn(st.addr);
    fn(st.cycle);
  }
}

CoreSim::SsBoundary CoreSim::ssCapture(std::uint64_t cycle) {
  SsBoundary b;
  b.shape.reserve(7 + rob_.size() * 7);
  b.shape.push_back(pc_);
  b.shape.push_back(rob_.size());
  b.shape.push_back(recentStoreNext_);
  b.shape.push_back(levelAccesses_[0]);
  b.shape.push_back(levelAccesses_[2]);
  b.shape.push_back(levelAccesses_[3]);
  b.shape.push_back(levelAccesses_[4]);
  for (const Uop& u : rob_) {
    b.shape.push_back(static_cast<std::uint64_t>(u.unit));
    b.shape.push_back(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(u.dst)));
    b.shape.push_back(static_cast<std::uint64_t>(u.depCount));
    b.shape.push_back(static_cast<std::uint64_t>(u.latency));
    b.shape.push_back(u.isMem ? 1 : 0);
    b.shape.push_back(static_cast<std::uint64_t>(u.bytes));
    b.shape.push_back(u.issued ? 1 : 0);
  }
  ssVisitArch([&b](std::uint64_t& v) { b.arch.push_back(v); });
  b.timing.push_back(cycle);
  ssVisitTiming([&b](std::uint64_t& v) { b.timing.push_back(v); });
  return b;
}

void CoreSim::ssOnBoundary(std::uint64_t cycle) {
  // Any non-L1 access since the previous boundary means caches are still
  // warming: periodicity cannot hold, so drop the history cheaply.
  bool nonL1 = levelAccesses_[0] != ssLevelMark_[0] ||
               levelAccesses_[2] != ssLevelMark_[2] ||
               levelAccesses_[3] != ssLevelMark_[3] ||
               levelAccesses_[4] != ssLevelMark_[4];
  for (int i = 0; i < 5; ++i) ssLevelMark_[i] = levelAccesses_[i];
  if (nonL1) {
    ssCleanStreak_ = 0;
    ssRecording_ = false;
    ssCurWindow_.clear();
    ssHistory_.clear();
    ssAccessLog_.clear();
    return;
  }
  // Streaming loops (a miss every line's worth of iterations) pass the
  // all-L1 filter on most boundaries yet can never confirm periodicity;
  // capturing state there is pure overhead. Only start recording once the
  // loop has gone a whole stretch without leaving L1 — L1-resident loops
  // get there immediately, streaming loops never do.
  if (++ssCleanStreak_ < kSsMinCleanStreak) {
    if (ssCleanStreak_ == kSsMinCleanStreak - 1) {
      // Arm the access log one boundary early so the window that ends at
      // the first captured boundary is complete.
      ssRecording_ = true;
      ssCurWindow_.clear();
    }
    return;
  }
  ssAccessLog_.push_back(std::move(ssCurWindow_));
  ssCurWindow_.clear();
  ssHistory_.push_back(ssCapture(cycle));
  // The recent-store ring gives store loops a natural period of up to 16
  // boundaries; keep enough history for the largest period we try.
  static constexpr int kPeriods[] = {1, 2, 4, 8, 16};
  std::size_t maxKeep =
      16u * static_cast<std::size_t>(ss_.confirmPeriods) + 1;
  while (ssHistory_.size() > maxKeep) ssHistory_.pop_front();
  while (ssAccessLog_.size() > maxKeep) ssAccessLog_.pop_front();
  for (int p : kPeriods) {
    std::size_t need = static_cast<std::size_t>(p) *
                           static_cast<std::size_t>(ss_.confirmPeriods) +
                       1;
    if (ssHistory_.size() < need) break;  // larger periods need even more
    if (ssConfirm(p)) {
      ssTryExtrapolate(cycle, p);
      return;
    }
  }
}

bool CoreSim::ssConfirm(int period) const {
  std::size_t p = static_cast<std::size_t>(period);
  std::size_t c = static_cast<std::size_t>(ss_.confirmPeriods);
  std::size_t n = ssHistory_.size();
  const SsBoundary& last = ssHistory_[n - 1];
  const SsBoundary& prev = ssHistory_[n - 1 - p];
  if (prev.shape != last.shape) return false;
  if (prev.timing.size() != last.timing.size()) return false;
  std::size_t tlen = last.timing.size();
  // Timing: first differences at lag p must be constant across c periods.
  for (std::size_t i = 1; i <= c; ++i) {
    const SsBoundary& a = ssHistory_[n - 1 - i * p];
    const SsBoundary& b = ssHistory_[n - 1 - (i - 1) * p];
    if (a.shape != last.shape) return false;
    if (a.timing.size() != tlen || b.timing.size() != tlen) return false;
    for (std::size_t s = 0; s < tlen; ++s) {
      if (b.timing[s] - a.timing[s] != last.timing[s] - prev.timing[s]) {
        return false;
      }
    }
  }
  // Architectural state: first differences at lag 1 must be constant over
  // the whole window (the exit solve reads per-iteration deltas).
  std::size_t alen = last.arch.size();
  const SsBoundary& penult = ssHistory_[n - 2];
  if (penult.arch.size() != alen) return false;
  for (std::size_t j = n - 1 - c * p; j + 1 <= n - 1; ++j) {
    const auto& a = ssHistory_[j].arch;
    const auto& b = ssHistory_[j + 1].arch;
    if (a.size() != alen || b.size() != alen) return false;
    for (std::size_t s = 0; s < alen; ++s) {
      if (b[s] - a[s] != last.arch[s] - penult.arch[s]) return false;
    }
  }
  return true;
}

bool CoreSim::ssCollectMemOps(std::vector<SsMemOp>& ops) {
  using Kind = asmparse::DecodedOperand::Kind;
  using Mem = asmparse::UopRecipe::Mem;
  // The exit iteration falls through into the epilogue; it must be free of
  // memory accesses and of control flow that could re-enter the loop.
  for (std::size_t pc = ssBranchPc_ + 1; pc < program_->instructions.size();
       ++pc) {
    const asmparse::DecodedInsn& insn = program_->instructions[pc];
    if (insn.desc->kind == isa::InstrKind::CondBranch ||
        insn.desc->kind == isa::InstrKind::Jump ||
        insn.recipe.mem != Mem::None) {
      return false;
    }
  }

  // Functionally walk two loop iterations on the live architectural state
  // (restored afterwards) to obtain the exact address of every memory op in
  // the next iteration and its per-iteration stride.
  auto savedGprs = gprs_;
  std::int64_t savedR = flagsResult_;
  std::uint64_t savedA = flagsA_, savedB = flagsB_;

  auto walkOnce = [&](std::vector<SsMemOp>& acc) -> bool {
    std::size_t pc = ssTargetPc_;
    std::size_t cap = (ssBranchPc_ - ssTargetPc_ + 2) * 4 + 8;
    for (std::size_t steps = 0;; ++steps) {
      if (steps > cap) return false;
      if (pc < ssTargetPc_ || pc > ssBranchPc_) return false;
      const asmparse::DecodedInsn& insn = program_->instructions[pc];
      const isa::InstrDesc& desc = *insn.desc;
      if (desc.kind == isa::InstrKind::Ret) return false;
      const asmparse::UopRecipe& recipe = insn.recipe;
      if (recipe.mem != Mem::None) {
        SsMemOp op;
        op.pc = pc;
        op.addr = effectiveAddress(
            insn.operands[static_cast<std::size_t>(recipe.memOperand)].mem);
        op.bytes = insn.accessBytes();
        op.isStore = recipe.mem == Mem::Store;
        acc.push_back(op);
      }
      bool taken = false;
      executeFunctional(insn, taken);
      if (pc == ssBranchPc_) return taken;  // must close the loop
      if (desc.kind == isa::InstrKind::CondBranch ||
          desc.kind == isa::InstrKind::Jump) {
        if (taken) {
          const auto& target = insn.operands.at(0);
          if (target.kind != Kind::Label) return false;
          std::size_t tpc = program_->labelTarget(target.label);
          if (tpc <= pc) return false;  // nested backward branch: give up
          pc = tpc;
        } else {
          ++pc;
        }
      } else {
        ++pc;
      }
    }
  };

  std::vector<SsMemOp> first, second;
  bool ok = walkOnce(first) && walkOnce(second);
  gprs_ = savedGprs;
  flagsResult_ = savedR;
  flagsA_ = savedA;
  flagsB_ = savedB;
  if (!ok || first.size() != second.size()) return false;
  ops.clear();
  ops.reserve(first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].pc != second[i].pc) return false;  // divergent paths
    SsMemOp op = first[i];
    op.stride = static_cast<std::int64_t>(second[i].addr - first[i].addr);
    ops.push_back(op);
  }
  return true;
}

bool CoreSim::ssCheckAliasing(const std::vector<SsMemOp>& ops,
                              std::uint64_t perIterCycles, std::uint64_t now,
                              std::uint64_t windowCycles) const {
  bool anyLoad = false, anyStore = false;
  for (const SsMemOp& op : ops) {
    (op.isStore ? anyStore : anyLoad) = true;
  }
  if (!anyLoad) return true;  // aliasing only penalizes loads

  // Ring entries that are still live but predate the confirmed window are
  // not part of the periodic store stream; they will expire somewhere in
  // the skipped region and change load timing — bail.
  for (const RecentStore& st : recentStores_) {
    if (st.cycle == 0 || st.cycle + 32 < now) continue;
    if (st.cycle < now - windowCycles) return false;
  }

  if (!anyStore) return true;
  // A store can alias loads issued up to ~32 cycles later; bound the
  // iteration-age difference between a ring entry and a load.
  std::uint64_t aMax = 32 / std::max<std::uint64_t>(perIterCycles, 1) + 2;
  for (const SsMemOp& ld : ops) {
    if (ld.isStore) continue;
    for (const SsMemOp& st : ops) {
      if (!st.isStore) continue;
      // Equal strides keep every load/store page-offset gap constant.
      if (ld.stride != st.stride) return false;
      for (std::uint64_t a = 0; a <= aMax; ++a) {
        std::uint64_t g =
            (st.addr - static_cast<std::uint64_t>(st.stride) * a - ld.addr) &
            0xfffull;
        // g == 0 keeps the same-line predicate constant; gaps in (0, 64) or
        // (4032, 4096) flip the aliasing predicate when the stream crosses
        // a 4 KiB page boundary — not extrapolable.
        if (g != 0 && (g < 64 || g > 4096 - 64)) return false;
      }
    }
  }
  return true;
}

bool CoreSim::ssPrecheckL1(const std::vector<SsMemOp>& ops,
                           std::uint64_t skip) const {
  std::uint64_t lineBytes = static_cast<std::uint64_t>(config_.lineBytes);
  std::uint64_t budget = ss_.maxPrecheckLines;
  auto lineOk = [&](std::uint64_t line) {
    if (budget == 0) return false;
    --budget;
    return memsys_.peekLevel(coreId_, line * lineBytes) == MemLevel::L1;
  };
  auto rangeOk = [&](std::uint64_t lo, std::uint64_t hi) {  // [lo, hi)
    if (hi <= lo) return true;
    for (std::uint64_t line = lo / lineBytes; line <= (hi - 1) / lineBytes;
         ++line) {
      if (!lineOk(line)) return false;
    }
    return true;
  };
  for (const SsMemOp& op : ops) {
    std::uint64_t bytes = static_cast<std::uint64_t>(op.bytes);
    std::uint64_t s = static_cast<std::uint64_t>(
        op.stride < 0 ? -op.stride : op.stride);
    std::uint64_t lastAddr =
        op.addr + static_cast<std::uint64_t>(op.stride) * (skip - 1);
    if (s <= lineBytes) {
      // Dense stream: every line between the first and last access is
      // touched anyway, so one contiguous scan covers all of them.
      std::uint64_t lo = std::min(op.addr, lastAddr);
      std::uint64_t hi = std::max(op.addr, lastAddr) + bytes;
      if (!rangeOk(lo, hi)) return false;
    } else {
      for (std::uint64_t j = 0; j < skip; ++j) {
        std::uint64_t a = op.addr + static_cast<std::uint64_t>(op.stride) * j;
        if (!rangeOk(a, a + bytes)) return false;
      }
    }
  }
  return true;
}

void CoreSim::ssTryExtrapolate(std::uint64_t cycle, int period) {
  // Any hard bail below disables detection for the rest of the run: the
  // property that failed is a property of the loop, not of the moment.
  auto disable = [this]() {
    ssDisabled_ = true;
    ssRecording_ = false;
    ssCurWindow_.clear();
    ssCurWindow_.shrink_to_fit();
    ssAccessLog_.clear();
    ssHistory_.clear();
    ssHistory_.shrink_to_fit();
  };

  std::size_t n = ssHistory_.size();
  std::size_t p = static_cast<std::size_t>(period);
  const SsBoundary& last = ssHistory_[n - 1];
  const SsBoundary& prevPhase = ssHistory_[n - 1 - p];
  const SsBoundary& prevIter = ssHistory_[n - 2];

  const isa::InstrDesc& branchDesc = *program_->instructions[ssBranchPc_].desc;
  if (branchDesc.kind != isa::InstrKind::CondBranch) {
    disable();  // unconditional backward jump: the loop never exits
    return;
  }
  auto archDelta = [&](std::size_t s) { return last.arch[s] - prevIter.arch[s]; };
  std::optional<std::uint64_t> t = ssSolveExit(
      branchDesc.condition,
      static_cast<std::int64_t>(last.arch[kSsArchFlagsResult]),
      static_cast<std::int64_t>(archDelta(kSsArchFlagsResult)),
      last.arch[kSsArchFlagsA], archDelta(kSsArchFlagsA),
      last.arch[kSsArchFlagsB], archDelta(kSsArchFlagsB));
  if (!t || *t < 2) {
    disable();
    return;
  }
  // Skip whole periods only, and always leave the exit iteration (and any
  // sub-period remainder) to real simulation.
  std::uint64_t skip = ((*t - 1) / p) * p;
  if (skip < ss_.minSkipIterations) {
    // The loop is nearly done; detection costs outweigh the win.
    disable();
    return;
  }

  std::vector<SsMemOp> ops;
  if (!ssCollectMemOps(ops)) {
    disable();
    return;
  }
  std::uint64_t perPeriodCycles = last.timing[0] - prevPhase.timing[0];
  std::uint64_t perIterCycles = perPeriodCycles / p;
  std::uint64_t windowCycles =
      static_cast<std::uint64_t>(ss_.confirmPeriods) * perPeriodCycles;
  if (!ssCheckAliasing(ops, perIterCycles, cycle, windowCycles) ||
      !ssPrecheckL1(ops, skip)) {
    disable();
    return;
  }
  std::uint64_t q = skip / p;

  // The skipped accesses can never miss, but they do refresh L1 recency —
  // and later invokes of a warm protocol observe the resulting LRU state.
  // Replay them from the issue-order log: the last p windows are one full
  // steady period; matched positionally against the period before, each
  // entry gets its per-period address stride, and round r of the skipped
  // periods touches entry i at `addr + stride * r`. Positional matching
  // preserves the true (out-of-order) issue sequence, which program-order
  // reconstruction from `ops` would not.
  if (ssAccessLog_.size() < 2 * p) {
    disable();
    return;
  }
  std::vector<SsAccess> newer, older;
  for (std::size_t w = ssAccessLog_.size() - p; w < ssAccessLog_.size(); ++w) {
    newer.insert(newer.end(), ssAccessLog_[w].begin(), ssAccessLog_[w].end());
  }
  for (std::size_t w = ssAccessLog_.size() - 2 * p;
       w < ssAccessLog_.size() - p; ++w) {
    older.insert(older.end(), ssAccessLog_[w].begin(), ssAccessLog_[w].end());
  }
  if (newer.size() != older.size()) {
    disable();
    return;
  }
  std::vector<std::uint64_t> periodStride(newer.size());
  bool allStatic = true;
  for (std::size_t i = 0; i < newer.size(); ++i) {
    if (newer[i].bytes != older[i].bytes) {
      disable();
      return;
    }
    periodStride[i] = newer[i].addr - older[i].addr;
    allStatic = allStatic && periodStride[i] == 0;
  }
  // Static access patterns repeat the identical sequence every round, so
  // one replay round leaves the exact same LRU ordering as q of them.
  std::uint64_t rounds = allStatic ? std::min<std::uint64_t>(q, 1) : q;
  if (rounds * newer.size() > kSsMaxReplayAccesses) {
    disable();
    return;
  }

  // Commit: architectural slots advance by the per-iteration delta `skip`
  // times, timing slots by the per-period delta once per skipped period.
  std::uint64_t l1Before = levelAccesses_[1];
  {
    std::size_t s = 0;
    ssVisitArch([&](std::uint64_t& v) { v += skip * archDelta(s++); });
  }
  {
    std::size_t s = 1;  // timing[0] is the cycle clock, handled below
    ssVisitTiming([&](std::uint64_t& v) {
      v += q * (last.timing[s] - prevPhase.timing[s]);
      ++s;
    });
  }
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (std::size_t i = 0; i < newer.size(); ++i) {
      memsys_.refreshL1(coreId_, newer[i].addr + periodStride[i] * r,
                        newer[i].bytes);
    }
  }
  // The skipped accesses are all proven L1 hits; keep the shared statistics
  // in sync with what full simulation would have counted.
  std::uint64_t credit[5] = {0, levelAccesses_[1] - l1Before, 0, 0, 0};
  memsys_.creditReplayedAccesses(credit, 0);

  extrapolatedFrom_ = ssIterations_;
  extrapolatedIterations_ = skip;
  ssIterations_ += skip;
  // Resume exactly where full simulation would be one tick after the
  // boundary at iteration k + skip.
  nextEvent_ = cycle + q * perPeriodCycles + 1;
  disable();
}

RunResult CoreSim::result() const {
  if (!finished_) throw McError("CoreSim::result before completion");
  RunResult r;
  r.coreCycles = endCycle_ - startCycle_;
  r.instructions = instructions_;
  r.uops = uopCount_;
  r.iterations = static_cast<std::uint32_t>(gprs_[isa::kRax]);
  r.extrapolatedFrom = extrapolatedFrom_;
  r.extrapolatedIterations = extrapolatedIterations_;
  r.tscCycles = config_.coreCyclesToTsc(static_cast<double>(r.coreCycles));
  r.energyPj =
      static_cast<double>(r.uops) * config_.uopEnergyPj +
      static_cast<double>(levelAccesses_[1]) * config_.l1AccessPj +
      static_cast<double>(levelAccesses_[2]) * config_.l2AccessPj +
      static_cast<double>(levelAccesses_[3]) * config_.l3AccessPj +
      static_cast<double>(levelAccesses_[4]) * config_.dramAccessPj +
      static_cast<double>(r.coreCycles) * config_.staticEnergyPjPerCycle();
  return r;
}

RunResult CoreSim::run(const asmparse::Program& program, int n,
                       const std::vector<std::uint64_t>& arrayAddrs,
                       std::uint64_t startCycle) {
  start(program, n, arrayAddrs, startCycle);
  std::uint64_t cycle = startCycle;
  while (!finished_) {
    tick(cycle);
    if (finished_) break;
    cycle = std::max(cycle + 1, nextEvent_);
  }
  return result();
}

}  // namespace microtools::sim
