#include "isa/instructions.hpp"

#include "support/error.hpp"

namespace microtools::isa {

namespace {

std::vector<InstrDesc> buildTable() {
  std::vector<InstrDesc> t;
  auto add = [&t](InstrDesc d) { t.push_back(d); };

  // -- data movement --------------------------------------------------------
  add({.mnemonic = "mov", .kind = InstrKind::Move, .latency = 1,
       .suffixable = true});
  add({.mnemonic = "movslq", .kind = InstrKind::Move, .latency = 1});
  add({.mnemonic = "movzbl", .kind = InstrKind::Move, .latency = 1});
  add({.mnemonic = "movsbl", .kind = InstrKind::Move, .latency = 1});
  add({.mnemonic = "movss", .kind = InstrKind::Move, .memBytes = 4,
       .isFp = true, .latency = 1});
  add({.mnemonic = "movsd", .kind = InstrKind::Move, .memBytes = 8,
       .isFp = true, .latency = 1});
  add({.mnemonic = "movaps", .kind = InstrKind::Move, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 1});
  add({.mnemonic = "movapd", .kind = InstrKind::Move, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 1});
  add({.mnemonic = "movups", .kind = InstrKind::Move, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1});
  add({.mnemonic = "movupd", .kind = InstrKind::Move, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1});
  add({.mnemonic = "movdqa", .kind = InstrKind::Move, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 1});
  add({.mnemonic = "movdqu", .kind = InstrKind::Move, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1});

  // -- integer ALU ----------------------------------------------------------
  // Binary and unary forms share the read-modify-write destination; `not`
  // is the only ALU op in the subset that leaves the flags untouched.
  auto alu = [&add](const char* m, Opcode op) {
    add({.mnemonic = m, .kind = InstrKind::IntAlu, .latency = 1,
         .suffixable = true, .readsDest = true, .writesFlags = true,
         .op = op});
  };
  alu("add", Opcode::Add);
  alu("sub", Opcode::Sub);
  alu("and", Opcode::And);
  alu("or", Opcode::Or);
  alu("xor", Opcode::Xor);
  alu("neg", Opcode::Neg);
  alu("inc", Opcode::Inc);
  alu("dec", Opcode::Dec);
  alu("shl", Opcode::Shl);
  alu("shr", Opcode::Shr);
  alu("sar", Opcode::Sar);
  add({.mnemonic = "not", .kind = InstrKind::IntAlu, .latency = 1,
       .suffixable = true, .readsDest = true, .op = Opcode::Not});
  add({.mnemonic = "imul", .kind = InstrKind::IntMul, .latency = 3,
       .suffixable = true, .readsDest = true, .writesFlags = true});
  add({.mnemonic = "lea", .kind = InstrKind::Lea, .latency = 1,
       .suffixable = true});

  // -- comparisons ----------------------------------------------------------
  add({.mnemonic = "cmp", .kind = InstrKind::Compare, .latency = 1,
       .suffixable = true, .writesDest = false, .writesFlags = true});
  add({.mnemonic = "test", .kind = InstrKind::Compare, .latency = 1,
       .suffixable = true, .writesDest = false, .writesFlags = true,
       .op = Opcode::Test});

  // -- SSE floating point ---------------------------------------------------
  add({.mnemonic = "addss", .kind = InstrKind::FpAdd, .memBytes = 4,
       .isFp = true, .latency = 3, .readsDest = true});
  add({.mnemonic = "addsd", .kind = InstrKind::FpAdd, .memBytes = 8,
       .isFp = true, .latency = 3, .readsDest = true});
  add({.mnemonic = "addps", .kind = InstrKind::FpAdd, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 3, .readsDest = true});
  add({.mnemonic = "addpd", .kind = InstrKind::FpAdd, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 3, .readsDest = true});
  add({.mnemonic = "mulss", .kind = InstrKind::FpMul, .memBytes = 4,
       .isFp = true, .latency = 4, .readsDest = true});
  add({.mnemonic = "mulsd", .kind = InstrKind::FpMul, .memBytes = 8,
       .isFp = true, .latency = 5, .readsDest = true});
  add({.mnemonic = "mulps", .kind = InstrKind::FpMul, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 4, .readsDest = true});
  add({.mnemonic = "mulpd", .kind = InstrKind::FpMul, .memBytes = 16,
       .requiresAlignment = true, .isVector = true, .isFp = true,
       .latency = 5, .readsDest = true});
  // The divider is unpipelined: its micro-op holds a divider port for the
  // full latency.
  add({.mnemonic = "divss", .kind = InstrKind::FpDiv, .memBytes = 4,
       .isFp = true, .latency = 14, .readsDest = true});
  add({.mnemonic = "divsd", .kind = InstrKind::FpDiv, .memBytes = 8,
       .isFp = true, .latency = 22, .readsDest = true});
  add({.mnemonic = "xorps", .kind = InstrKind::FpLogic, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1, .readsDest = true,
       .op = Opcode::Xor});
  add({.mnemonic = "xorpd", .kind = InstrKind::FpLogic, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1, .readsDest = true,
       .op = Opcode::Xor});
  add({.mnemonic = "pxor", .kind = InstrKind::FpLogic, .memBytes = 16,
       .isVector = true, .isFp = true, .latency = 1, .readsDest = true,
       .op = Opcode::Xor});

  // -- control flow ---------------------------------------------------------
  add({.mnemonic = "jmp", .kind = InstrKind::Jump, .writesDest = false});
  auto branch = [&add](const char* m, Condition c) {
    add({.mnemonic = m, .kind = InstrKind::CondBranch, .condition = c,
         .writesDest = false, .readsFlags = true});
  };
  branch("je", Condition::E);
  branch("jz", Condition::E);
  branch("jne", Condition::NE);
  branch("jnz", Condition::NE);
  branch("jl", Condition::L);
  branch("jle", Condition::LE);
  branch("jg", Condition::G);
  branch("jge", Condition::GE);
  branch("jb", Condition::B);
  branch("jbe", Condition::BE);
  branch("ja", Condition::A);
  branch("jae", Condition::AE);
  branch("js", Condition::S);
  branch("jns", Condition::NS);

  // ret ends dispatch without a micro-op; nop consumes a dispatch slot
  // but never reaches an execution port.
  add({.mnemonic = "ret", .kind = InstrKind::Ret, .writesDest = false});
  add({.mnemonic = "nop", .kind = InstrKind::Nop, .writesDest = false});
  return t;
}

}  // namespace

std::string_view execUnitName(ExecUnit unit) {
  switch (unit) {
    case ExecUnit::Load: return "load";
    case ExecUnit::Store: return "store";
    case ExecUnit::Alu: return "alu";
    case ExecUnit::FpAdd: return "fp-add";
    case ExecUnit::FpMul: return "fp-mul";
    case ExecUnit::FpDiv: return "fp-div";
    case ExecUnit::Branch: return "branch";
  }
  return "unknown";
}

const std::vector<InstrDesc>& instructionTable() {
  static const std::vector<InstrDesc> table = buildTable();
  return table;
}

const InstrDesc* findInstructionExact(std::string_view mnemonic) {
  for (const auto& d : instructionTable()) {
    if (d.mnemonic == mnemonic) return &d;
  }
  return nullptr;
}

const InstrDesc* findInstruction(std::string_view mnemonic) {
  if (const InstrDesc* d = findInstructionExact(mnemonic)) return d;
  // AT&T size suffix: addq, subl, movq, cmpl, ...
  if (mnemonic.size() >= 2) {
    char suffix = mnemonic.back();
    if (suffix == 'b' || suffix == 'w' || suffix == 'l' || suffix == 'q') {
      const InstrDesc* d =
          findInstructionExact(mnemonic.substr(0, mnemonic.size() - 1));
      if (d && d->suffixable) return d;
    }
  }
  return nullptr;
}

bool kindIsBranch(InstrKind kind) {
  return kind == InstrKind::CondBranch || kind == InstrKind::Jump ||
         kind == InstrKind::Ret;
}

std::vector<std::string> moveCandidates(int bytes, bool aligned,
                                        bool allowDouble) {
  switch (bytes) {
    case 4:
      return {"movss"};
    case 8:
      return allowDouble ? std::vector<std::string>{"movsd"}
                         : std::vector<std::string>{};
    case 16:
      if (aligned) {
        return allowDouble
                   ? std::vector<std::string>{"movaps", "movapd"}
                   : std::vector<std::string>{"movaps"};
      }
      return allowDouble ? std::vector<std::string>{"movups", "movupd"}
                         : std::vector<std::string>{"movups"};
    default:
      throw McError("no move instruction for " + std::to_string(bytes) +
                    " bytes (supported: 4, 8, 16)");
  }
}

}  // namespace microtools::isa
