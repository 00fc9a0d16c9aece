#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace microtools::isa {

/// Functional/timing category of an instruction. The instruction recipe
/// (asmparse::UopRecipe) maps each kind to an execution unit; the creator
/// uses kinds to reason about loads/stores when swapping operands.
enum class InstrKind : std::uint8_t {
  Move,     ///< data movement (GPR or XMM; load/store depends on operands)
  IntAlu,   ///< add/sub/logic/shift on GPRs, 1-cycle class
  IntMul,   ///< imul, 3-cycle class
  Lea,      ///< address generation
  FpAdd,    ///< addss/addsd/addps/addpd
  FpMul,    ///< mulss/mulsd/mulps/mulpd
  FpDiv,    ///< divss/divsd (unpipelined, long latency)
  FpLogic,  ///< xorps/pxor and friends, 1-cycle vector logic
  Compare,  ///< cmp/test (sets flags)
  CondBranch,  ///< jcc family
  Jump,     ///< unconditional jmp
  Ret,
  Nop,
};

/// Execution-port class of a micro-op. Loads and stores get their own
/// ports; the unpipelined FP divider has its own pool of `fpMulPorts`
/// ports, each held for the divide's full latency.
enum class ExecUnit : std::uint8_t {
  Load,
  Store,
  Alu,     ///< integer ALU / move / lea / compare / vector logic
  FpAdd,
  FpMul,
  FpDiv,
  Branch,
};

inline constexpr int kExecUnitCount = 7;

/// What an integer ALU entry computes, which compare is `test`, and which
/// vector-logic entries are xors, for the consumers that evaluate values
/// (the simulator's functional executor, the verifier's symbolic evaluator
/// and loop analysis) and for the zeroing idiom. None for every other
/// entry, whose kind says all there is.
enum class Opcode : std::uint8_t {
  None,
  Add, Sub, And, Or, Xor, Neg, Inc, Dec, Not, Shl, Shr, Sar,
  Test,
};

std::string_view execUnitName(ExecUnit unit);

/// Branch condition codes for the jcc family.
enum class Condition : std::uint8_t {
  None,  // not a conditional branch
  E, NE, L, LE, G, GE, B, BE, A, AE, S, NS,
};

/// Static description of one mnemonic in the supported x86-64 subset.
///
/// Latencies follow the Nehalem-class numbers the paper's machines used
/// (register-to-register producer latency; memory adds the cache latency
/// resolved by the simulator at run time).
struct InstrDesc {
  std::string_view mnemonic;   // canonical AT&T mnemonic without size suffix
  InstrKind kind;
  Condition condition = Condition::None;
  int memBytes = 0;            // bytes touched by a memory operand (0: by width)
  bool requiresAlignment = false;  // movaps/movapd fault on unaligned access
  bool isVector = false;       // 16-byte SSE operation
  bool isFp = false;           // writes an XMM register
  int latency = 1;             // producer latency in core cycles
  bool suffixable = false;     // accepts AT&T b/w/l/q size suffixes

  // -- def/use metadata (static verification & dependency analyses) ---------
  // AT&T operand order: the last operand is the destination. `readsDest`
  // marks read-modify-write destinations (add/sub/addss/...); pure moves and
  // lea overwrite the destination without reading it. `writesDest` is false
  // for instructions that only produce flags (cmp/test) or none at all
  // (branches, ret, nop).
  bool readsDest = false;      // destination operand is also a source
  bool writesDest = true;      // destination operand is written
  bool writesFlags = false;    // updates the status flags (SF/ZF/OF/CF)
  bool readsFlags = false;     // consumes the status flags (jcc family)

  Opcode op = Opcode::None;
};

/// Looks up a mnemonic, accepting AT&T size suffixes for the suffixable
/// entries (e.g. "addq" resolves to "add"). Returns nullptr when unknown.
const InstrDesc* findInstruction(std::string_view mnemonic);

/// Looks up a mnemonic without suffix stripping; nullptr when unknown.
const InstrDesc* findInstructionExact(std::string_view mnemonic);

/// All descriptions in the table (for tests and documentation dumps).
const std::vector<InstrDesc>& instructionTable();

/// True for kinds that can never take a memory operand in this subset.
bool kindIsBranch(InstrKind kind);

/// The "move semantics" selection of §3.1: given a requested transfer size
/// in bytes and variant flags, returns candidate move mnemonics
/// (e.g. 4 bytes -> movss; 16 bytes aligned -> movaps/movapd,
/// 16 bytes unaligned -> movups/movupd).
std::vector<std::string> moveCandidates(int bytes, bool aligned,
                                        bool allowDouble = true);

}  // namespace microtools::isa
