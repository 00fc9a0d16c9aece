#include <gtest/gtest.h>

#include "asmparse/asmparse.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::asmparse {
namespace {

TEST(AsmParse, ParsesMinimalFunction) {
  Program p = parseAssembly(
      "\t.globl f\n"
      "f:\n"
      "\txor %eax, %eax\n"
      "\tret\n");
  EXPECT_EQ(p.functionName, "f");
  ASSERT_EQ(p.instructions.size(), 2u);
  EXPECT_EQ(p.instructions[0].mnemonic, "xor");
  EXPECT_EQ(p.instructions[1].desc->kind, isa::InstrKind::Ret);
}

TEST(AsmParse, RegisterOperands) {
  Program p = parseAssembly("f:\n mov %rsi, %rax\n ret\n");
  const DecodedInsn& insn = p.instructions[0];
  ASSERT_EQ(insn.operands.size(), 2u);
  EXPECT_EQ(insn.operands[0].kind, DecodedOperand::Kind::Reg);
  EXPECT_EQ(insn.operands[0].reg.index, isa::kRsi);
  EXPECT_EQ(insn.operands[1].reg.index, isa::kRax);
}

TEST(AsmParse, ImmediateOperands) {
  Program p = parseAssembly("f:\n add $-48, %rsi\n ret\n");
  EXPECT_EQ(p.instructions[0].operands[0].kind, DecodedOperand::Kind::Imm);
  EXPECT_EQ(p.instructions[0].operands[0].imm, -48);
}

TEST(AsmParse, HexImmediate) {
  Program p = parseAssembly("f:\n add $0x10, %rsi\n ret\n");
  EXPECT_EQ(p.instructions[0].operands[0].imm, 16);
}

TEST(AsmParse, MemoryOperandForms) {
  Program p = parseAssembly(
      "f:\n"
      " movaps (%rsi), %xmm0\n"
      " movaps 16(%rsi), %xmm1\n"
      " movsd -8(%rdx,%rax,8), %xmm2\n"
      " movss 4096, %xmm3\n"
      " ret\n");
  const auto& m0 = p.instructions[0].operands[0].mem;
  EXPECT_EQ(m0.base->index, isa::kRsi);
  EXPECT_EQ(m0.disp, 0);
  const auto& m1 = p.instructions[1].operands[0].mem;
  EXPECT_EQ(m1.disp, 16);
  const auto& m2 = p.instructions[2].operands[0].mem;
  EXPECT_EQ(m2.disp, -8);
  EXPECT_EQ(m2.base->index, isa::kRdx);
  EXPECT_EQ(m2.index->index, isa::kRax);
  EXPECT_EQ(m2.scale, 8);
  const auto& m3 = p.instructions[3].operands[0].mem;
  EXPECT_FALSE(m3.base.has_value());
  EXPECT_EQ(m3.disp, 4096);
}

TEST(AsmParse, LabelsAndBranches) {
  Program p = parseAssembly(
      "f:\n"
      ".L6:\n"
      " sub $1, %rdi\n"
      " jge .L6\n"
      " ret\n");
  EXPECT_EQ(p.labelTarget("L6"), 0u);
  const DecodedInsn& branch = p.instructions[1];
  EXPECT_EQ(branch.desc->kind, isa::InstrKind::CondBranch);
  ASSERT_EQ(branch.operands.size(), 1u);
  EXPECT_EQ(branch.operands[0].kind, DecodedOperand::Kind::Label);
  EXPECT_EQ(branch.operands[0].label, "L6");
}

TEST(AsmParse, UnknownLabelTargetThrows) {
  Program p = parseAssembly("f:\n ret\n");
  EXPECT_THROW(p.labelTarget("nope"), ParseError);
}

TEST(AsmParse, CommentsAndDirectivesSkipped) {
  Program p = parseAssembly(
      "# leading comment\n"
      "\t.text\n"
      "\t.p2align 4\n"
      "f:\n"
      "\tnop # trailing comment\n"
      "\t.size f, .-f\n"
      "\tret\n");
  EXPECT_EQ(p.instructions.size(), 2u);
}

TEST(AsmParse, FunctionNameFromGlobl) {
  Program p = parseAssembly(".globl myfn\nmyfn:\n ret\n");
  EXPECT_EQ(p.functionName, "myfn");
}

TEST(AsmParse, FunctionNameFromFirstNonLocalLabel) {
  Program p = parseAssembly("entry:\n.L1:\n ret\n");
  EXPECT_EQ(p.functionName, "entry");
}

TEST(AsmParse, SuffixedMnemonicsResolve) {
  Program p = parseAssembly("f:\n addq $8, %rsi\n subl $1, %edi\n ret\n");
  EXPECT_EQ(p.instructions[0].desc->mnemonic, "add");
  EXPECT_EQ(p.instructions[1].desc->mnemonic, "sub");
}

TEST(AsmParse, UnknownInstructionThrowsWithLine) {
  try {
    parseAssembly("f:\n nop\n vfmadd231ps %ymm0, %ymm1, %ymm2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    // The mnemonic starts after one leading space: column 2.
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 2u);
  }
}

TEST(AsmParse, InstructionsCarryLineAndColumn) {
  Program p = parseAssembly("f:\n nop\n\tadd $8, %rsi\n ret\n");
  ASSERT_EQ(p.instructions.size(), 3u);
  EXPECT_EQ(p.instructions[0].line, 2u);
  EXPECT_EQ(p.instructions[0].column, 2u);  // one leading space
  EXPECT_EQ(p.instructions[1].line, 3u);
  EXPECT_EQ(p.instructions[1].column, 2u);  // one leading tab
  EXPECT_EQ(p.instructions[2].line, 4u);
}

TEST(AsmParse, OperandErrorsCarryColumn) {
  try {
    parseAssembly("f:\n mov %qqq, %rax\n ret\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_GT(e.column(), 2u);  // points into the operand, past the mnemonic
  }
}

TEST(AsmParse, UnknownRegisterThrows) {
  EXPECT_THROW(parseAssembly("f:\n mov %qqq, %rax\n"), ParseError);
}

TEST(AsmParse, MalformedMemoryThrows) {
  EXPECT_THROW(parseAssembly("f:\n movss 8(%rsi, %rdx\n"), ParseError);
  EXPECT_THROW(parseAssembly("f:\n movss (%rsi,%rdx,3), %xmm0\n"),
               ParseError);
}

TEST(AsmParse, EmptyInputThrows) {
  EXPECT_THROW(parseAssembly(""), ParseError);
  EXPECT_THROW(parseAssembly("\t.text\n# nothing\n"), ParseError);
}

TEST(AsmParse, DuplicateLabelThrowsWithLineAndColumn) {
  try {
    parseAssembly("f:\nf:\n ret\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 1u);  // the label starts the line
  }
}

TEST(AsmParse, ReadsWritesMemoryClassification) {
  using Mem = UopRecipe::Mem;
  Program p = parseAssembly(
      "f:\n"
      " movaps (%rsi), %xmm0\n"   // load
      " movaps %xmm0, (%rsi)\n"   // store
      " mulsd (%r8), %xmm0\n"     // load-op
      " cmp $0, %rdi\n"           // no memory
      " lea 65536(%rsi), %rdx\n"  // address arithmetic, no memory micro-op
      " cmp %eax, (%rsi)\n"       // fused load, like any memory source
      " not %rax\n"               // leaves the flags alone
      " xorps %xmm1, %xmm1\n"     // zeroing idiom: reads nothing
      " xor %eax, %ecx\n"         // two registers: no idiom
      " ret\n");
  const auto& in = p.instructions;
  EXPECT_EQ(in[0].recipe.mem, Mem::Load);
  EXPECT_EQ(in[1].recipe.mem, Mem::Store);
  EXPECT_EQ(in[2].recipe.mem, Mem::Fused);
  EXPECT_EQ(in[3].recipe.mem, Mem::None);
  for (int i : {0, 2}) EXPECT_TRUE(in[i].recipe.loads()) << i;
  for (int i : {1, 3}) EXPECT_FALSE(in[i].recipe.loads()) << i;

  // lea: one ALU micro-op that reads the address register, no access.
  const UopRecipe& lea = in[4].recipe;
  EXPECT_EQ(lea.mem, Mem::None);
  EXPECT_EQ(lea.memOperand, 0);
  ASSERT_EQ(lea.count, 1);
  EXPECT_EQ(lea.uops[0].unit, isa::ExecUnit::Alu);
  EXPECT_TRUE(lea.reads.has(isa::gpr(isa::kRsi)));
  EXPECT_TRUE(lea.writes.has(isa::gpr(isa::kRdx)));

  // cmp to memory: a load feeding the compare, which writes only flags.
  const UopRecipe& cmp = in[5].recipe;
  EXPECT_EQ(cmp.mem, Mem::Fused);
  ASSERT_EQ(cmp.count, 2);
  EXPECT_EQ(cmp.uops[0].unit, isa::ExecUnit::Load);
  EXPECT_TRUE(cmp.uops[1].writesFlags);
  isa::RegSet flags;
  flags.add(isa::RegSet::kFlags);
  EXPECT_EQ(cmp.writes, flags);

  EXPECT_FALSE(in[6].recipe.writes.has(isa::RegSet::kFlags));
  EXPECT_TRUE(in[6].recipe.reads.has(isa::gpr(isa::kRax)));

  EXPECT_TRUE(in[7].recipe.zeroing);
  EXPECT_TRUE(in[7].recipe.reads.empty());
  EXPECT_TRUE(in[7].recipe.writes.has(isa::xmm(1)));
  EXPECT_FALSE(in[8].recipe.zeroing);
  EXPECT_TRUE(in[8].recipe.reads.has(isa::gpr(isa::kRcx)));

  EXPECT_EQ(in[9].recipe.count, 0);  // ret
}

TEST(AsmParse, RecipeRejectsOperandsNoInstructionHas) {
  EXPECT_THROW(parseAssembly("f:\n movaps (%rsi), (%rdi)\n ret\n"),
               ParseError);
  EXPECT_THROW(parseAssembly("f:\n mov %rip, %rax\n ret\n"), ParseError);
}

TEST(AsmParse, AccessBytesFromDescriptor) {
  Program p = parseAssembly(
      "f:\n"
      " movaps (%rsi), %xmm0\n"
      " movss (%rsi), %xmm0\n"
      " movsd (%rsi), %xmm0\n"
      " movq (%rsi), %rax\n"
      " movl (%rsi), %eax\n"
      " ret\n");
  EXPECT_EQ(p.instructions[0].accessBytes(), 16);
  EXPECT_EQ(p.instructions[1].accessBytes(), 4);
  EXPECT_EQ(p.instructions[2].accessBytes(), 8);
  EXPECT_EQ(p.instructions[3].accessBytes(), 8);
  EXPECT_EQ(p.instructions[4].accessBytes(), 4);
}

// Round-trip property: every program MicroCreator emits parses cleanly and
// the label/branch structure is consistent.
class CreatorRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CreatorRoundTrip, GeneratedProgramsParse) {
  auto programs =
      microtools::testing::generate(microtools::testing::figure6Xml(
          GetParam(), GetParam()));
  ASSERT_FALSE(programs.empty());
  for (const auto& prog : programs) {
    Program parsed = parseAssembly(prog.asmText);
    EXPECT_EQ(parsed.functionName, prog.functionName);
    // Loop label resolves.
    EXPECT_NO_THROW(parsed.labelTarget("L6"));
    // Body size: unroll copies + 3 inductions + branch + prologue(2) + ret.
    EXPECT_EQ(parsed.instructions.size(),
              static_cast<std::size_t>(GetParam()) + 3 + 1 + 2 + 1);
    // Exactly one conditional branch, and it targets L6.
    int branches = 0;
    for (const DecodedInsn& insn : parsed.instructions) {
      if (insn.desc->kind == isa::InstrKind::CondBranch) {
        ++branches;
        EXPECT_EQ(insn.operands[0].label, "L6");
      }
    }
    EXPECT_EQ(branches, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(UnrollFactors, CreatorRoundTrip,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace microtools::asmparse
