#include "verify/cfg.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "verify/dataflow.hpp"

namespace microtools::verify {

namespace {

using asmparse::DecodedInsn;
using asmparse::DecodedOperand;

/// Branch target index for a jump/jcc instruction; throws when absent.
std::size_t branchTarget(const asmparse::Program& program,
                         const DecodedInsn& insn) {
  auto target = branchTargetIndex(program, insn);
  if (!target) {
    throw ParseError("branch without a label operand", insn.line, insn.column);
  }
  return *target;
}

}  // namespace

std::optional<std::size_t> branchTargetIndex(
    const asmparse::Program& program, const asmparse::DecodedInsn& insn) {
  for (const DecodedOperand& op : insn.operands) {
    if (op.kind == DecodedOperand::Kind::Label) {
      try {
        return program.labelTarget(op.label);
      } catch (const ParseError& e) {
        // labelTarget has no notion of where the reference came from; pin
        // the diagnostic to the branch instruction so lint can point at it.
        throw ParseError(e.message(), insn.line, insn.column);
      }
    }
  }
  return std::nullopt;
}

Cfg buildCfg(const asmparse::Program& program) {
  const std::size_t n = program.instructions.size();
  Cfg cfg;
  cfg.successors.resize(n);
  cfg.predecessors.resize(n);
  cfg.reachable.assign(n, false);
  cfg.fallsOffEnd.assign(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    const DecodedInsn& insn = program.instructions[i];
    auto link = [&](std::size_t succ) {
      if (succ < n) {
        cfg.successors[i].push_back(succ);
      } else {
        cfg.fallsOffEnd[i] = true;  // past the end / trailing label
      }
    };
    switch (insn.desc->kind) {
      case isa::InstrKind::Ret:
        break;
      case isa::InstrKind::Jump:
        link(branchTarget(program, insn));
        break;
      case isa::InstrKind::CondBranch:
        link(branchTarget(program, insn));
        link(i + 1);
        break;
      default:
        link(i + 1);
        break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s : cfg.successors[i]) cfg.predecessors[s].push_back(i);
  }

  // Reachability sweep from the entry instruction.
  if (n > 0) {
    std::vector<std::size_t> work{0};
    cfg.reachable[0] = true;
    while (!work.empty()) {
      std::size_t i = work.back();
      work.pop_back();
      for (std::size_t s : cfg.successors[i]) {
        if (!cfg.reachable[s]) {
          cfg.reachable[s] = true;
          work.push_back(s);
        }
      }
    }
  }
  return cfg;
}

std::optional<std::int64_t> constantDelta(const asmparse::DecodedInsn& insn,
                                          const isa::PhysReg& reg) {
  if (!insn.recipe.writes.has(reg)) return 0;

  const auto& ops = insn.operands;
  if (ops.empty() || ops.back().kind != DecodedOperand::Kind::Reg ||
      !ops.back().reg.sameArchReg(reg)) {
    return std::nullopt;  // written through some other operand shape
  }
  switch (insn.recipe.op) {
    case isa::Opcode::Inc:
      if (ops.size() == 1) return 1;
      break;
    case isa::Opcode::Dec:
      if (ops.size() == 1) return -1;
      break;
    case isa::Opcode::Add:
    case isa::Opcode::Sub:
      if (ops.size() == 2 && ops[0].kind == DecodedOperand::Kind::Imm) {
        return insn.recipe.op == isa::Opcode::Add ? ops[0].imm : -ops[0].imm;
      }
      break;
    default:
      break;
  }
  return std::nullopt;
}

bool regionPreserves(const asmparse::Program& program, std::size_t first,
                     std::size_t last, const isa::PhysReg& reg) {
  for (std::size_t i = first; i <= last; ++i) {
    if (program.instructions[i].recipe.writes.has(reg)) return false;
  }
  return true;
}

namespace {

/// Fills the comparison fields of `loop` from its flag-setting instruction.
void resolveComparison(const asmparse::Program& program, LoopInfo& loop) {
  if (!loop.flagSetter) return;
  const DecodedInsn& setter = program.instructions[*loop.flagSetter];
  const auto& ops = setter.operands;

  if (setter.desc->kind == isa::InstrKind::Compare) {
    // AT&T: cmp src,dst branches on dst <cond> src.
    if (ops.size() != 2 || ops[1].kind != DecodedOperand::Kind::Reg) return;
    loop.inductionReg = ops[1].reg;
    if (setter.recipe.op == isa::Opcode::Test) {
      // Only the test %r,%r self-test maps onto a comparison with zero.
      if (ops[0].kind == DecodedOperand::Kind::Reg &&
          ops[0].reg.sameArchReg(ops[1].reg)) {
        loop.boundImm = 0;
      } else {
        loop.inductionReg.reset();
      }
    } else if (ops[0].kind == DecodedOperand::Kind::Imm) {
      loop.boundImm = ops[0].imm;
    } else if (ops[0].kind == DecodedOperand::Kind::Reg) {
      if (regionPreserves(program, loop.headIndex, loop.branchIndex,
                          ops[0].reg)) {
        loop.boundReg = ops[0].reg;
      } else {
        loop.inductionReg.reset();  // both sides move: not analyzable
      }
    }
    return;
  }

  // Flag-setting arithmetic (sub $4,%rdi; jge): the branch compares the
  // result against zero.
  if (!ops.empty() &&
      ops.back().kind == DecodedOperand::Kind::Reg) {
    loop.inductionReg = ops.back().reg;
    loop.boundImm = 0;
  }
}

}  // namespace

LoopScan findLoops(const asmparse::Program& program, const Cfg& cfg) {
  LoopScan scan;
  const std::size_t n = program.instructions.size();

  // Candidate back edges: conditional branches targeting an earlier index.
  std::vector<std::pair<std::size_t, std::size_t>> backEdges;  // (head,branch)
  for (std::size_t i = 0; i < n; ++i) {
    const DecodedInsn& insn = program.instructions[i];
    if (!cfg.reachable[i]) continue;
    const isa::InstrKind kind = insn.desc->kind;
    if (kind != isa::InstrKind::CondBranch && kind != isa::InstrKind::Jump) {
      continue;
    }
    std::size_t target = branchTarget(program, insn);
    if (kind == isa::InstrKind::CondBranch && target <= i) {
      backEdges.push_back({target, i});
    } else {
      scan.unanalyzedBranches.push_back(i);
    }
  }

  for (auto [head, branch] : backEdges) {
    bool clean = true;
    // No other control flow inside the body.
    for (std::size_t i = head; i < branch && clean; ++i) {
      clean = !isa::kindIsBranch(program.instructions[i].desc->kind);
    }
    // No branch from outside jumps into the middle of the body.
    for (std::size_t i = 0; i < n && clean; ++i) {
      if (i >= head && i <= branch) continue;
      for (std::size_t s : cfg.successors[i]) {
        if (s > head && s <= branch) {
          clean = false;
          break;
        }
      }
    }
    if (!clean) {
      scan.unanalyzedBranches.push_back(branch);
      continue;
    }

    LoopInfo loop;
    loop.headIndex = head;
    loop.branchIndex = branch;
    loop.condition = program.instructions[branch].desc->condition;
    for (std::size_t i = branch; i-- > head;) {
      if (program.instructions[i].recipe.writes.has(RegSet::kFlags)) {
        loop.flagSetter = i;
        break;
      }
    }
    resolveComparison(program, loop);
    if (loop.inductionReg) {
      // Net change over one full trip around the body.
      std::int64_t delta = 0;
      bool known = true;
      for (std::size_t i = head; i <= branch; ++i) {
        auto d = constantDelta(program.instructions[i], *loop.inductionReg);
        if (!d) {
          known = false;
          break;
        }
        delta += *d;
        if (i > *loop.flagSetter && *d != 0) loop.writeAfterTest = true;
      }
      if (known) loop.delta = delta;
    }
    scan.loops.push_back(std::move(loop));
  }
  std::sort(scan.loops.begin(), scan.loops.end(),
            [](const LoopInfo& a, const LoopInfo& b) {
              return a.headIndex < b.headIndex;
            });
  return scan;
}

}  // namespace microtools::verify
