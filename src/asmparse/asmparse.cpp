#include "asmparse/asmparse.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::asmparse {

namespace {
using strings::trim;
}

DecodedOperand DecodedOperand::makeReg(isa::PhysReg r) {
  DecodedOperand op;
  op.kind = Kind::Reg;
  op.reg = r;
  return op;
}

DecodedOperand DecodedOperand::makeMem(DecodedMem m) {
  DecodedOperand op;
  op.kind = Kind::Mem;
  op.mem = m;
  return op;
}

DecodedOperand DecodedOperand::makeImm(std::int64_t v) {
  DecodedOperand op;
  op.kind = Kind::Imm;
  op.imm = v;
  return op;
}

DecodedOperand DecodedOperand::makeLabel(std::string l) {
  DecodedOperand op;
  op.kind = Kind::Label;
  op.label = std::move(l);
  return op;
}

int DecodedInsn::accessBytes() const {
  if (desc->memBytes > 0) return desc->memBytes;
  // GPR instruction: width from the register operand or the size suffix.
  for (const DecodedOperand& op : operands) {
    if (op.kind == DecodedOperand::Kind::Reg &&
        op.reg.cls == isa::RegClass::Gpr) {
      return op.reg.widthBits / 8;
    }
  }
  if (!mnemonic.empty()) {
    switch (mnemonic.back()) {
      case 'b': return 1;
      case 'w': return 2;
      case 'l': return 4;
      case 'q': return 8;
      default: break;
    }
  }
  return 8;
}

std::size_t Program::labelTarget(const std::string& label) const {
  auto it = labels.find(label);
  if (it == labels.end()) {
    throw ParseError("unknown branch target label '" + label + "'");
  }
  return it->second;
}

namespace {

/// One comma-separated operand plus its 0-based offset in the operand list.
struct OperandPiece {
  std::string text;
  std::size_t offset = 0;
};

/// Splits an operand list on commas that are outside parentheses, keeping
/// the position of each piece so diagnostics can point at the operand.
std::vector<OperandPiece> splitOperands(std::string_view text) {
  std::vector<OperandPiece> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      auto piece = trim(text.substr(start, i - start));
      if (!piece.empty()) {
        out.push_back({std::string(piece),
                       start + static_cast<std::size_t>(
                                   piece.data() - text.substr(start).data())});
      }
      start = i + 1;
    } else if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      --depth;
    }
  }
  return out;
}

std::int64_t parseImmediateValue(std::string_view text, std::size_t line,
                                 std::size_t column) {
  auto v = strings::parseInt(text);
  if (!v) {
    throw ParseError("invalid immediate '" + std::string(text) + "'", line,
                     column);
  }
  return *v;
}

DecodedMem parseMemOperand(std::string_view text, std::size_t line,
                           std::size_t column) {
  DecodedMem mem;
  std::size_t open = text.find('(');
  if (open == std::string_view::npos) {
    // Absolute address.
    mem.disp = parseImmediateValue(text, line, column);
    return mem;
  }
  auto dispText = trim(text.substr(0, open));
  if (!dispText.empty()) {
    mem.disp = parseImmediateValue(dispText, line, column);
  }
  std::size_t close = text.rfind(')');
  if (close == std::string_view::npos || close < open) {
    throw ParseError("unbalanced parentheses in memory operand '" +
                         std::string(text) + "'",
                     line, column);
  }
  auto inner = text.substr(open + 1, close - open - 1);
  std::vector<std::string> parts = strings::split(inner, ',');
  if (parts.empty() || parts.size() > 3) {
    throw ParseError("malformed memory operand '" + std::string(text) + "'",
                     line, column);
  }
  auto baseText = trim(parts[0]);
  if (!baseText.empty()) {
    auto reg = isa::parseRegister(baseText);
    if (!reg) {
      throw ParseError("unknown base register '" + std::string(baseText) +
                           "'",
                       line, column);
    }
    mem.base = *reg;
  }
  if (parts.size() >= 2) {
    auto indexText = trim(parts[1]);
    if (!indexText.empty()) {
      auto reg = isa::parseRegister(indexText);
      if (!reg) {
        throw ParseError("unknown index register '" + std::string(indexText) +
                             "'",
                         line, column);
      }
      mem.index = *reg;
    }
  }
  if (parts.size() == 3) {
    auto scaleText = trim(parts[2]);
    auto scale = strings::parseInt(scaleText);
    if (!scale || (*scale != 1 && *scale != 2 && *scale != 4 && *scale != 8)) {
      throw ParseError("invalid scale '" + std::string(scaleText) + "'",
                       line, column);
    }
    mem.scale = static_cast<int>(*scale);
  }
  return mem;
}

DecodedOperand parseOperand(std::string_view text, bool branchContext,
                            std::size_t line, std::size_t column) {
  if (text.empty()) throw ParseError("empty operand", line, column);
  if (text.front() == '$') {
    return DecodedOperand::makeImm(
        parseImmediateValue(text.substr(1), line, column));
  }
  if (text.front() == '%') {
    auto reg = isa::parseRegister(text);
    if (!reg) {
      throw ParseError("unknown register '" + std::string(text) + "'", line,
                       column);
    }
    return DecodedOperand::makeReg(*reg);
  }
  if (branchContext) {
    // Branch target: strip the local-label leading dot.
    std::string label(text);
    if (!label.empty() && label.front() == '.') label.erase(0, 1);
    return DecodedOperand::makeLabel(std::move(label));
  }
  return DecodedOperand::makeMem(parseMemOperand(text, line, column));
}

isa::ExecUnit computeUnit(isa::InstrKind kind) {
  switch (kind) {
    case isa::InstrKind::FpAdd: return isa::ExecUnit::FpAdd;
    case isa::InstrKind::FpMul: return isa::ExecUnit::FpMul;
    case isa::InstrKind::FpDiv: return isa::ExecUnit::FpDiv;
    case isa::InstrKind::CondBranch:
    case isa::InstrKind::Jump: return isa::ExecUnit::Branch;
    default: return isa::ExecUnit::Alu;
  }
}

/// The one place that decodes what an instruction loads, stores, reads and
/// writes (see UopRecipe).
UopRecipe buildRecipe(const DecodedInsn& insn) {
  using Kind = DecodedOperand::Kind;
  const isa::InstrDesc& d = *insn.desc;
  const std::vector<DecodedOperand>& ops = insn.operands;
  UopRecipe r;
  r.op = d.op;
  if (d.kind == isa::InstrKind::Ret || d.kind == isa::InstrKind::Nop) {
    return r;
  }

  // Register operands: the last one is the destination, read as well only
  // by read-modify-write instructions; cmp and test read it and write none.
  isa::RegSet addressRegs;
  isa::RegSet operandRegs;
  int dst = -1;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const DecodedOperand& op = ops[i];
    if (op.kind == Kind::Mem) {
      if (r.memOperand >= 0) {
        throw ParseError("instruction '" + insn.mnemonic +
                             "' has more than one memory operand",
                         insn.line, insn.column);
      }
      r.memOperand = static_cast<std::int8_t>(i);
      if (op.mem.base) addressRegs.add(*op.mem.base);
      if (op.mem.index) addressRegs.add(*op.mem.index);
    } else if (op.kind == Kind::Reg) {
      if (op.reg.cls == isa::RegClass::Rip) {
        throw ParseError("%rip is only valid as a memory base", insn.line,
                         insn.column);
      }
      if (i + 1 == ops.size() && d.writesDest) {
        dst = isa::RegSet::slot(op.reg);
        if (d.readsDest) operandRegs.add(op.reg);
      } else {
        operandRegs.add(op.reg);
      }
    }
  }
  r.zeroing = d.op == isa::Opcode::Xor && ops.size() == 2 &&
              ops[0].kind == Kind::Reg && ops[1].kind == Kind::Reg &&
              ops[0].reg.sameArchReg(ops[1].reg);
  if (r.zeroing) operandRegs = {};

  MicroOp compute;
  compute.unit = computeUnit(d.kind);
  compute.latency = static_cast<std::uint8_t>(std::max(d.latency, 1));
  compute.occupancy =
      d.kind == isa::InstrKind::FpDiv ? compute.latency : std::uint8_t{1};
  compute.dst = static_cast<std::int8_t>(dst);
  compute.writesFlags = d.writesFlags;
  compute.srcs = operandRegs;
  if (d.readsFlags) compute.srcs.add(isa::RegSet::kFlags);

  MicroOp memory;
  memory.srcs = addressRegs;
  bool accesses = r.memOperand >= 0 && d.kind != isa::InstrKind::Lea;
  if (!accesses) {
    // lea (or no memory operand): its address registers feed the ALU.
    compute.srcs = compute.srcs | addressRegs;
    r.uops[0] = compute;
    r.count = 1;
  } else if (r.memOperand + 1 == static_cast<int>(ops.size()) &&
             d.writesDest) {
    // Memory destination: one store micro-op carries address and data.
    memory.unit = isa::ExecUnit::Store;
    memory.srcs = memory.srcs | compute.srcs;
    memory.writesFlags = d.writesFlags;
    r.mem = UopRecipe::Mem::Store;
    r.uops[0] = memory;
    r.count = 1;
  } else {
    memory.unit = isa::ExecUnit::Load;
    memory.latency = 0;
    if (d.kind == isa::InstrKind::Move) {
      // Plain move load: the load itself writes the destination.
      memory.srcs = memory.srcs | compute.srcs;
      memory.dst = compute.dst;
      r.mem = UopRecipe::Mem::Load;
      r.uops[0] = memory;
      r.count = 1;
    } else {
      r.mem = UopRecipe::Mem::Fused;
      r.uops = {memory, compute};
      r.count = 2;
    }
  }
  for (int k = 0; k < r.count; ++k) {
    const MicroOp& u = r.uops[static_cast<std::size_t>(k)];
    r.reads = r.reads | u.srcs;
    r.writes.add(u.dst);
    if (u.writesFlags) r.writes.add(isa::RegSet::kFlags);
  }
  return r;
}

}  // namespace

Program parseAssembly(std::string_view text) {
  Program program;
  std::vector<std::string> lines = strings::split(text, '\n');
  for (std::size_t lineNo = 1; lineNo <= lines.size(); ++lineNo) {
    std::string_view raw = lines[lineNo - 1];
    // Strip comments.
    if (auto hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    std::string_view lineText = trim(raw);
    if (lineText.empty()) continue;

    // Directives.
    if (lineText.front() == '.') {
      auto tokens = strings::splitWhitespace(lineText);
      if (tokens[0] == ".globl" || tokens[0] == ".global") {
        if (tokens.size() >= 2 && program.functionName.empty()) {
          program.functionName = tokens[1];
        }
      }
      // A local label like ".L6:" is not a directive.
      if (!strings::endsWith(lineText, ":")) continue;
    }

    // Labels (possibly several on one line are not supported; one per line).
    if (lineText.back() == ':') {
      std::string label(lineText.substr(0, lineText.size() - 1));
      if (!label.empty() && label.front() == '.') label.erase(0, 1);
      if (program.functionName.empty() && lineText.front() != '.') {
        program.functionName = label;
      }
      if (program.labels.count(label)) {
        std::size_t labelColumn = static_cast<std::size_t>(
                                      lineText.data() -
                                      lines[lineNo - 1].data()) +
                                  1;
        throw ParseError("duplicate label '" + label + "'", lineNo,
                         labelColumn);
      }
      program.labels[label] = program.instructions.size();
      continue;
    }

    // Instruction. `lineText` is a view into this line's buffer, so the
    // 1-based column of the mnemonic (and of each operand) falls out of
    // pointer arithmetic against the untrimmed line.
    std::size_t mnemonicColumn =
        static_cast<std::size_t>(lineText.data() - lines[lineNo - 1].data()) +
        1;
    auto firstSpace = lineText.find_first_of(" \t");
    std::string mnemonic(firstSpace == std::string_view::npos
                             ? lineText
                             : lineText.substr(0, firstSpace));
    const isa::InstrDesc* desc = isa::findInstruction(mnemonic);
    if (!desc) {
      throw ParseError("unknown instruction '" + mnemonic + "'", lineNo,
                       mnemonicColumn);
    }
    DecodedInsn insn;
    insn.desc = desc;
    insn.mnemonic = mnemonic;
    insn.line = lineNo;
    insn.column = mnemonicColumn;
    bool branchContext = isa::kindIsBranch(desc->kind);
    if (firstSpace != std::string_view::npos) {
      std::size_t operandsColumn = mnemonicColumn + firstSpace + 1;
      for (const OperandPiece& piece :
           splitOperands(lineText.substr(firstSpace + 1))) {
        insn.operands.push_back(parseOperand(piece.text, branchContext, lineNo,
                                             operandsColumn + piece.offset));
      }
    }
    insn.recipe = buildRecipe(insn);
    program.instructions.push_back(std::move(insn));
  }
  if (program.instructions.empty()) {
    throw ParseError("assembly contains no instructions");
  }
  return program;
}

}  // namespace microtools::asmparse
