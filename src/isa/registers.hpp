#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace microtools::isa {

/// Register classes of the x86-64 subset MicroTools generates.
enum class RegClass : std::uint8_t {
  Gpr,  ///< general purpose (%rax ... %r15 and their sub-views)
  Xmm,  ///< SSE vector registers (%xmm0 ... %xmm15)
  Rip,  ///< instruction pointer (only as a memory base)
};

/// A physical register reference: class, index, and access width in bits.
///
/// The same architectural register is identified by (cls, index) regardless
/// of width, so %eax and %rax compare equal for dependency tracking through
/// sameArchReg().
struct PhysReg {
  RegClass cls = RegClass::Gpr;
  int index = 0;       // 0..15
  int widthBits = 64;  // 8, 16, 32, 64 for GPR; 128 for XMM

  bool operator==(const PhysReg&) const = default;

  /// True when `other` names the same architectural register (ignoring
  /// width), i.e. writes to one clobber the other.
  bool sameArchReg(const PhysReg& other) const {
    return cls == other.cls && index == other.index;
  }
};

/// Dense set over the architectural registers the subset can name:
/// 16 GPRs (slots 0..15), 16 XMM registers (slots 16..31) and the status
/// flags (slot 32). Width is ignored -- %eax and %rax share a slot, which
/// matches sameArchReg() and over-approximates partial-register liveness.
/// The simulator's register file and the verifier's dataflow use the same
/// numbering.
struct RegSet {
  std::uint64_t bits = 0;

  static constexpr int kFlags = 32;
  static constexpr int kSlots = 33;

  /// Slot for a register; -1 for %rip (not tracked).
  static int slot(const PhysReg& reg) {
    switch (reg.cls) {
      case RegClass::Gpr: return reg.index;
      case RegClass::Xmm: return 16 + reg.index;
      default: return -1;
    }
  }

  void add(int s) {
    if (s >= 0) bits |= std::uint64_t{1} << s;
  }
  void add(const PhysReg& reg) { add(slot(reg)); }
  void remove(int s) {
    if (s >= 0) bits &= ~(std::uint64_t{1} << s);
  }
  bool has(int s) const {
    return s >= 0 && (bits >> s) & 1;
  }
  bool has(const PhysReg& reg) const { return has(slot(reg)); }
  bool empty() const { return bits == 0; }

  /// Calls fn(slot) for every member, in ascending slot order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::uint64_t b = bits; b != 0; b &= b - 1) {
      fn(std::countr_zero(b));
    }
  }

  RegSet operator|(RegSet o) const { return {bits | o.bits}; }
  RegSet operator&(RegSet o) const { return {bits & o.bits}; }
  RegSet operator-(RegSet o) const { return {bits & ~o.bits}; }
  bool operator==(const RegSet&) const = default;

  static RegSet all() { return {(std::uint64_t{1} << kSlots) - 1}; }
};

/// Parses an AT&T register token such as "%rax", "%r10d" or "%xmm3".
/// The leading '%' is optional. Returns nullopt for unknown names.
std::optional<PhysReg> parseRegister(std::string_view token);

/// Renders a PhysReg back to its canonical AT&T name (with leading '%').
std::string registerName(const PhysReg& reg);

/// GPR index constants following the SysV AMD64 numbering used by the
/// instruction encoder (rax=0, rcx=1, rdx=2, rbx=3, rsp=4, rbp=5, rsi=6,
/// rdi=7, r8..r15 = 8..15).
inline constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4,
                     kRbp = 5, kRsi = 6, kRdi = 7, kR8 = 8, kR9 = 9,
                     kR10 = 10, kR11 = 11, kR12 = 12, kR13 = 13, kR14 = 14,
                     kR15 = 15;

/// Constructs a GPR of the given width.
PhysReg gpr(int index, int widthBits = 64);

/// Constructs an XMM register.
PhysReg xmm(int index);

/// SysV AMD64 integer argument registers in call order
/// (%rdi, %rsi, %rdx, %rcx, %r8, %r9).
PhysReg argumentRegister(int argIndex);

/// Number of integer argument registers in the SysV calling convention.
inline constexpr int kNumArgumentRegisters = 6;

/// Caller-saved scratch GPRs that MicroCreator's register allocator may hand
/// out beyond the argument registers, in preference order. %rax is excluded
/// (reserved for the iteration-count return value, §4.4) and callee-saved
/// registers are excluded so generated kernels never need a stack frame.
PhysReg scratchRegister(int scratchIndex);
inline constexpr int kNumScratchRegisters = 2;  // %r10, %r11

}  // namespace microtools::isa
