#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instructions.hpp"
#include "isa/registers.hpp"

namespace microtools::asmparse {

/// Decoded memory operand: disp(base, index, scale).
struct DecodedMem {
  std::optional<isa::PhysReg> base;
  std::optional<isa::PhysReg> index;
  int scale = 1;
  std::int64_t disp = 0;

  bool operator==(const DecodedMem&) const = default;
};

/// One decoded operand of any kind.
struct DecodedOperand {
  enum class Kind { Reg, Mem, Imm, Label };

  Kind kind = Kind::Imm;
  isa::PhysReg reg;       // valid when kind == Reg
  DecodedMem mem;         // valid when kind == Mem
  std::int64_t imm = 0;   // valid when kind == Imm
  std::string label;      // valid when kind == Label

  bool operator==(const DecodedOperand&) const = default;

  static DecodedOperand makeReg(isa::PhysReg r);
  static DecodedOperand makeMem(DecodedMem m);
  static DecodedOperand makeImm(std::int64_t v);
  static DecodedOperand makeLabel(std::string l);
};

/// One micro-op of an instruction recipe.
struct MicroOp {
  isa::ExecUnit unit = isa::ExecUnit::Alu;
  /// Cycles until dependents may issue. 0 for a load: where the data lives
  /// decides, so the simulator asks its memory system and the static cost
  /// model assumes an L1 hit.
  std::uint8_t latency = 1;
  /// Cycles the micro-op holds its port: 1, or the full latency for the
  /// unpipelined divider.
  std::uint8_t occupancy = 1;
  std::int8_t dst = -1;      ///< register slot written (RegSet numbering)
  bool writesFlags = false;
  isa::RegSet srcs;          ///< register slots read, flags included
};

/// What one static instruction does to the machine: the micro-ops it
/// dispatches and the registers, flags and memory it reads and writes.
/// Built once per instruction by parseAssembly and read by every consumer
/// -- the simulator's dispatch and functional executor, the static cost
/// model, and the verifier's dataflow, bounds and loop analyses -- so none
/// of them decodes operands itself.
///
/// The split follows the simulator's port model: a memory source makes a
/// load micro-op, fused with the compute micro-op unless the instruction is
/// a plain move; a memory destination makes a single store micro-op; lea
/// computes its address on the ALU and touches no memory. Register reads
/// and writes follow the ISA table's def/use bits, with `xor`, `pxor`,
/// `xorps` and `xorpd` of a register with itself reading nothing.
struct UopRecipe {
  enum class Mem : std::uint8_t { None, Load, Store, Fused };

  Mem mem = Mem::None;
  /// Operand index of the memory operand (lea's address included), -1 when
  /// there is none.
  std::int8_t memOperand = -1;
  /// Micro-ops dispatched: 0 for ret and nop (nop still takes a dispatch
  /// slot), 2 for a fused load (uops[1] consumes uops[0]), else 1.
  std::uint8_t count = 0;
  bool zeroing = false;  ///< writes zero without reading its destination
  isa::Opcode op = isa::Opcode::None;
  std::array<MicroOp, 2> uops{};
  isa::RegSet reads;   ///< every micro-op's sources
  isa::RegSet writes;  ///< every micro-op's destination and flags

  bool loads() const { return mem == Mem::Load || mem == Mem::Fused; }
};

/// One decoded instruction with its static description.
struct DecodedInsn {
  const isa::InstrDesc* desc = nullptr;  // never null after parsing
  std::string mnemonic;                  // as written (with size suffix)
  std::vector<DecodedOperand> operands;  // AT&T order
  std::size_t line = 0;                  // 1-based source line
  std::size_t column = 0;                // 1-based column of the mnemonic
  UopRecipe recipe;

  /// Bytes touched per memory access: the descriptor's memBytes, falling
  /// back to the register operand width for suffixable GPR instructions.
  int accessBytes() const;
};

/// A parsed assembly function: instruction list plus label table.
struct Program {
  std::string functionName;
  std::vector<DecodedInsn> instructions;
  /// Label name (without the leading '.') -> index of the instruction the
  /// label precedes (== instructions.size() for a trailing label).
  std::map<std::string, std::size_t> labels;

  /// Index for a label target; throws ParseError when unknown.
  std::size_t labelTarget(const std::string& label) const;
};

/// Parses an AT&T assembly translation unit of the subset MicroCreator
/// emits (and hand-written kernels in the same style). Directives are
/// skipped; the function name is taken from the .globl directive or the
/// first non-local label. Throws ParseError carrying the 1-based line and
/// column of the offending token on anything unrecognizable, including an
/// instruction with two memory operands or a bare %rip operand.
Program parseAssembly(std::string_view text);

}  // namespace microtools::asmparse
