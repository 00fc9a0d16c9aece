#include <gtest/gtest.h>

#include "isa/instructions.hpp"
#include "isa/registers.hpp"
#include "support/error.hpp"

namespace microtools::isa {
namespace {

// ---------------------------------------------------------------------------
// registers
// ---------------------------------------------------------------------------

TEST(Registers, ParseCanonical64BitNames) {
  auto r = parseRegister("%rax");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->cls, RegClass::Gpr);
  EXPECT_EQ(r->index, kRax);
  EXPECT_EQ(r->widthBits, 64);
}

TEST(Registers, ParseWithoutPercent) {
  auto r = parseRegister("rsi");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->index, kRsi);
}

TEST(Registers, ParseSubRegisters) {
  EXPECT_EQ(parseRegister("%eax")->widthBits, 32);
  EXPECT_EQ(parseRegister("%ax")->widthBits, 16);
  EXPECT_EQ(parseRegister("%al")->widthBits, 8);
  EXPECT_EQ(parseRegister("%r10d")->widthBits, 32);
  EXPECT_EQ(parseRegister("%r10d")->index, kR10);
  EXPECT_EQ(parseRegister("%sil")->index, kRsi);
}

TEST(Registers, ParseXmm) {
  auto r = parseRegister("%xmm7");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->cls, RegClass::Xmm);
  EXPECT_EQ(r->index, 7);
  EXPECT_EQ(r->widthBits, 128);
}

TEST(Registers, ParseRip) {
  EXPECT_EQ(parseRegister("%rip")->cls, RegClass::Rip);
}

TEST(Registers, ParseRejectsUnknown) {
  EXPECT_FALSE(parseRegister("%zmm0"));
  EXPECT_FALSE(parseRegister("%xmm16"));
  EXPECT_FALSE(parseRegister("%foo"));
  EXPECT_FALSE(parseRegister(""));
  EXPECT_FALSE(parseRegister("%"));
}

TEST(Registers, SameArchRegIgnoresWidth) {
  EXPECT_TRUE(parseRegister("%eax")->sameArchReg(*parseRegister("%rax")));
  EXPECT_FALSE(parseRegister("%eax")->sameArchReg(*parseRegister("%ebx")));
  EXPECT_FALSE(parseRegister("%xmm0")->sameArchReg(*parseRegister("%rax")));
}

TEST(Registers, ArgumentRegistersFollowSysV) {
  EXPECT_EQ(registerName(argumentRegister(0)), "%rdi");
  EXPECT_EQ(registerName(argumentRegister(1)), "%rsi");
  EXPECT_EQ(registerName(argumentRegister(2)), "%rdx");
  EXPECT_EQ(registerName(argumentRegister(3)), "%rcx");
  EXPECT_EQ(registerName(argumentRegister(4)), "%r8");
  EXPECT_EQ(registerName(argumentRegister(5)), "%r9");
  EXPECT_THROW(argumentRegister(6), McError);
  EXPECT_THROW(argumentRegister(-1), McError);
}

TEST(Registers, ScratchRegistersAvoidRaxAndCalleeSaved) {
  for (int i = 0; i < kNumScratchRegisters; ++i) {
    PhysReg r = scratchRegister(i);
    EXPECT_NE(r.index, kRax);
    EXPECT_NE(r.index, kRbx);
    EXPECT_NE(r.index, kRbp);
    EXPECT_NE(r.index, kRsp);
    EXPECT_LT(r.index, 12);  // r12-r15 are callee-saved
  }
  EXPECT_THROW(scratchRegister(kNumScratchRegisters), McError);
}

TEST(Registers, ConstructorsValidate) {
  EXPECT_THROW(gpr(16), McError);
  EXPECT_THROW(gpr(-1), McError);
  EXPECT_THROW(xmm(16), McError);
  EXPECT_THROW(registerName(PhysReg{RegClass::Gpr, 3, 7}), McError);
}

// Round-trip property over every register name at every width.
class RegisterRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RegisterRoundTrip, GprNameParsesBack) {
  int index = GetParam();
  for (int width : {8, 16, 32, 64}) {
    PhysReg reg = gpr(index, width);
    auto parsed = parseRegister(registerName(reg));
    ASSERT_TRUE(parsed) << registerName(reg);
    EXPECT_EQ(*parsed, reg);
  }
}

TEST_P(RegisterRoundTrip, XmmNameParsesBack) {
  PhysReg reg = xmm(GetParam());
  auto parsed = parseRegister(registerName(reg));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, reg);
}

INSTANTIATE_TEST_SUITE_P(AllIndices, RegisterRoundTrip,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// instruction table
// ---------------------------------------------------------------------------

TEST(Instructions, LooksUpMoves) {
  const InstrDesc* d = findInstruction("movaps");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, InstrKind::Move);
  EXPECT_EQ(d->memBytes, 16);
  EXPECT_TRUE(d->requiresAlignment);
  EXPECT_TRUE(d->isVector);
}

TEST(Instructions, MovssIsFourBytesUnaligned) {
  const InstrDesc* d = findInstruction("movss");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->memBytes, 4);
  EXPECT_FALSE(d->requiresAlignment);
}

TEST(Instructions, SuffixStripping) {
  EXPECT_EQ(findInstruction("addq"), findInstruction("add"));
  EXPECT_EQ(findInstruction("subl"), findInstruction("sub"));
  EXPECT_EQ(findInstruction("movq"), findInstruction("mov"));
  EXPECT_EQ(findInstruction("cmpl"), findInstruction("cmp"));
}

TEST(Instructions, SuffixOnlyForSuffixable) {
  // "movapsq" is not a real instruction; movaps is not suffixable.
  EXPECT_EQ(findInstruction("movapsq"), nullptr);
  // movslq resolves exactly, not via suffix stripping.
  ASSERT_NE(findInstruction("movslq"), nullptr);
}

TEST(Instructions, UnknownMnemonicsReturnNull) {
  EXPECT_EQ(findInstruction("vfmadd231ps"), nullptr);
  EXPECT_EQ(findInstruction(""), nullptr);
  EXPECT_EQ(findInstruction("xyz"), nullptr);
}

TEST(Instructions, BranchConditionsMapped) {
  EXPECT_EQ(findInstruction("jge")->condition, Condition::GE);
  EXPECT_EQ(findInstruction("jne")->condition, Condition::NE);
  EXPECT_EQ(findInstruction("jz")->condition, Condition::E);
  EXPECT_EQ(findInstruction("jmp")->condition, Condition::None);
}

TEST(Instructions, KindIsBranch) {
  EXPECT_TRUE(kindIsBranch(InstrKind::CondBranch));
  EXPECT_TRUE(kindIsBranch(InstrKind::Jump));
  EXPECT_TRUE(kindIsBranch(InstrKind::Ret));
  EXPECT_FALSE(kindIsBranch(InstrKind::Move));
  EXPECT_FALSE(kindIsBranch(InstrKind::IntAlu));
}

TEST(Instructions, FpLatenciesAreOrdered) {
  // Nehalem: add (3) < mulss (4) <= mulsd (5) << divsd (~22).
  EXPECT_LT(findInstruction("addsd")->latency,
            findInstruction("mulsd")->latency);
  EXPECT_LT(findInstruction("mulsd")->latency,
            findInstruction("divsd")->latency);
}

TEST(Instructions, TableHasNoDuplicates) {
  const auto& table = instructionTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      EXPECT_NE(table[i].mnemonic, table[j].mnemonic);
    }
  }
}

TEST(Instructions, EveryTableEntryFindsItself) {
  for (const InstrDesc& d : instructionTable()) {
    EXPECT_EQ(findInstructionExact(d.mnemonic), &d);
  }
}

// ---------------------------------------------------------------------------
// move semantics (§3.1)
// ---------------------------------------------------------------------------

TEST(MoveCandidates, FourBytesIsMovss) {
  EXPECT_EQ(moveCandidates(4, true), (std::vector<std::string>{"movss"}));
}

TEST(MoveCandidates, EightBytesIsMovsd) {
  EXPECT_EQ(moveCandidates(8, true), (std::vector<std::string>{"movsd"}));
}

TEST(MoveCandidates, SixteenAligned) {
  EXPECT_EQ(moveCandidates(16, true),
            (std::vector<std::string>{"movaps", "movapd"}));
  EXPECT_EQ(moveCandidates(16, true, false),
            (std::vector<std::string>{"movaps"}));
}

TEST(MoveCandidates, SixteenUnaligned) {
  EXPECT_EQ(moveCandidates(16, false),
            (std::vector<std::string>{"movups", "movupd"}));
}

TEST(MoveCandidates, UnsupportedWidthThrows) {
  EXPECT_THROW(moveCandidates(3, true), McError);
  EXPECT_THROW(moveCandidates(32, true), McError);
}

// Def/use metadata consistency: flags readers/writers and destination
// semantics must line up with the instruction kind, or the dataflow and
// dependence analyses disagree about who produces what.
TEST(Instructions, DefUseMetadataConsistentWithKind) {
  for (const InstrDesc& d : instructionTable()) {
    switch (d.kind) {
      case InstrKind::Compare:
        EXPECT_TRUE(d.writesFlags) << d.mnemonic;
        EXPECT_FALSE(d.writesDest) << d.mnemonic;
        EXPECT_FALSE(d.readsDest) << d.mnemonic;
        break;
      case InstrKind::CondBranch:
        EXPECT_TRUE(d.readsFlags) << d.mnemonic;
        EXPECT_FALSE(d.writesDest) << d.mnemonic;
        break;
      case InstrKind::Jump:
      case InstrKind::Ret:
      case InstrKind::Nop:
        EXPECT_FALSE(d.writesDest) << d.mnemonic;
        EXPECT_FALSE(d.readsFlags) << d.mnemonic;
        EXPECT_FALSE(d.writesFlags) << d.mnemonic;
        break;
      case InstrKind::Move:
      case InstrKind::Lea:
        EXPECT_TRUE(d.writesDest) << d.mnemonic;
        EXPECT_FALSE(d.readsDest) << d.mnemonic;
        EXPECT_FALSE(d.writesFlags) << d.mnemonic;
        break;
      default:
        EXPECT_TRUE(d.writesDest) << d.mnemonic;
        EXPECT_TRUE(d.readsDest) << d.mnemonic;
    }
  }
}

TEST(Instructions, ExecUnitNamesAreStable) {
  EXPECT_EQ(execUnitName(ExecUnit::Load), "load");
  EXPECT_EQ(execUnitName(ExecUnit::Store), "store");
  EXPECT_EQ(execUnitName(ExecUnit::Alu), "alu");
  EXPECT_EQ(execUnitName(ExecUnit::FpAdd), "fp-add");
  EXPECT_EQ(execUnitName(ExecUnit::FpMul), "fp-mul");
  EXPECT_EQ(execUnitName(ExecUnit::FpDiv), "fp-div");
  EXPECT_EQ(execUnitName(ExecUnit::Branch), "branch");
}

TEST(MoveCandidates, AllCandidatesExistInTable) {
  for (int bytes : {4, 8, 16}) {
    for (bool aligned : {true, false}) {
      for (const std::string& m : moveCandidates(bytes, aligned)) {
        const InstrDesc* d = findInstruction(m);
        ASSERT_NE(d, nullptr) << m;
        EXPECT_EQ(d->memBytes, bytes);
        if (bytes == 16) {
          EXPECT_EQ(d->requiresAlignment, aligned);
        }
      }
    }
  }
}

}  // namespace
}  // namespace microtools::isa
