#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "asmparse/asmparse.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"
#include "verify/cfg.hpp"
#include "verify/dataflow.hpp"
#include "verify/verify.hpp"

namespace microtools::verify {
namespace {

bool hasRule(const VerifyReport& report, const std::string& rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::string rulesOf(const VerifyReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) out += d.rule + " ";
  return out;
}

/// The creator-shaped movaps load loop used throughout (unroll 1).
const char* kGoodKernel =
    "\t.globl microkernel\n"
    "microkernel:\n"
    "\tmovslq %edi, %rdi\n"
    "\txor %eax, %eax\n"
    ".L6:\n"
    "\tmovaps (%rsi), %xmm0\n"
    "\tadd $16, %rsi\n"
    "\tadd $1, %eax\n"
    "\tsub $4, %rdi\n"
    "\tjge .L6\n"
    "\tret\n";

VerifyOptions withContext(std::int64_t n, std::size_t bytes,
                          std::size_t alignment = 4096,
                          std::size_t offset = 0, int arrays = 1) {
  VerifyOptions o;
  o.arrayCount = arrays;
  LaunchContext ctx;
  ctx.tripCount = n;
  for (int a = 0; a < arrays; ++a) ctx.arrays.push_back({bytes, alignment, offset});
  o.context = ctx;
  return o;
}

// -- CFG ---------------------------------------------------------------------

TEST(VerifyCfg, GoodKernelHasLoopAndNoErrors) {
  asmparse::Program p = asmparse::parseAssembly(kGoodKernel);
  Cfg cfg = buildCfg(p);
  EXPECT_TRUE(std::all_of(cfg.reachable.begin(), cfg.reachable.end(),
                          [](bool b) { return b; }));
  LoopScan scan = findLoops(p, cfg);
  ASSERT_EQ(scan.loops.size(), 1u);
  const LoopInfo& loop = scan.loops[0];
  EXPECT_EQ(loop.condition, isa::Condition::GE);
  ASSERT_TRUE(loop.inductionReg);
  EXPECT_EQ(loop.inductionReg->index, isa::kRdi);
  ASSERT_TRUE(loop.delta);
  EXPECT_EQ(*loop.delta, -4);
  ASSERT_TRUE(loop.boundImm);
  EXPECT_EQ(*loop.boundImm, 0);

  VerifyReport report = verifyProgram(p, VerifyOptions{.arrayCount = 1});
  EXPECT_TRUE(report.ok()) << rulesOf(report);
}

TEST(VerifyCfg, UnreachableInstructionWarns) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n ret\n mov $1, %r10\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG01"));
  EXPECT_TRUE(r.ok());  // warning only
}

TEST(VerifyCfg, FallOffEndIsError) {
  VerifyReport r = verifyAssembly("f:\n xor %eax, %eax\n add $1, %eax\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG04"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyCfg, LoopMovingAwayFromBoundIsError) {
  // add instead of sub: %rdi grows, jge never falls through.
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n"
      ".L1:\n add $4, %rdi\n jge .L1\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG02"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyCfg, LoopWithUnchangedInductionIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n"
      ".L1:\n add $1, %eax\n cmp $10, %rdi\n jl .L1\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG02"));
}

TEST(VerifyCfg, InvariantFlagsLoopIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n cmp $1, %rdi\n"
      ".L1:\n add $1, %eax\n jge .L1\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG02"));
}

TEST(VerifyCfg, JneLoopTerminationNotProvable) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n"
      ".L1:\n sub $3, %rdi\n jne .L1\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-CFG03"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyCfg, CountUpLoopWithRegisterBoundVerifies) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n xor %r10, %r10\n"
      ".L1:\n add $1, %eax\n add $4, %r10\n cmp %rdi, %r10\n jl .L1\n ret\n");
  EXPECT_TRUE(r.ok()) << rulesOf(r);
}

// -- ABI ---------------------------------------------------------------------

TEST(VerifyAbi, CalleeSavedClobberIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n mov $7, %rbx\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-ABI01"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyAbi, StackPointerWriteIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n add $8, %rsp\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-ABI02"));
}

TEST(VerifyAbi, RedZoneStoreIsAllowed) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n mov %rax, -8(%rsp)\n ret\n");
  EXPECT_FALSE(hasRule(r, "MT-ABI03")) << rulesOf(r);
}

TEST(VerifyAbi, StoreBelowRedZoneIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n mov %rax, -136(%rsp)\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-ABI03"));
}

TEST(VerifyAbi, StoreAboveStackPointerIsError) {
  // (%rsp) and above holds the return address / caller frame.
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n mov %rax, (%rsp)\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-ABI03"));
}

TEST(VerifyAbi, MissingReturnValueWarns) {
  VerifyReport r = verifyAssembly("f:\n add $16, %rsi\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-ABI04"));
  EXPECT_TRUE(r.ok());
}

// -- dataflow ----------------------------------------------------------------

TEST(VerifyDataflow, UninitializedAddressRegisterIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movss (%r10), %xmm0\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-DF01"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyDataflow, UninitializedDataRegisterIsWarning) {
  // Storing an uninitialized %xmm0 is the creator's store-kernel idiom.
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movaps %xmm0, (%rsi)\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-DF02"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyDataflow, BranchOnUnsetFlagsIsError) {
  // mov does not set flags, so the branch consumes undefined flags.
  VerifyReport r = verifyAssembly(
      "f:\n mov $0, %rax\n jge .L2\n"
      ".L2:\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-DF01"));
}

TEST(VerifyDataflow, DeadStoreIsWarning) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n mov $5, %rdx\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-DF03"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyDataflow, UnusedLoadIsDistinctWarning) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movss (%rsi), %xmm3\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-DF04"));
  EXPECT_FALSE(hasRule(r, "MT-DF03"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyDataflow, ZeroIdiomDoesNotReadItsDestination) {
  // pxor %xmm0,%xmm0 then store: no MT-DF02 for %xmm0.
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n pxor %xmm0, %xmm0\n"
      " movups %xmm0, (%rsi)\n ret\n");
  EXPECT_FALSE(hasRule(r, "MT-DF02")) << rulesOf(r);
}

TEST(VerifyDataflow, DefUseMetadataCoversCompareAndBranch) {
  asmparse::Program p = asmparse::parseAssembly(
      "f:\n cmp $4, %rdi\n jge .L\n.L:\n ret\n");
  const asmparse::UopRecipe& cmp = p.instructions[0].recipe;
  EXPECT_TRUE(cmp.reads.has(isa::gpr(isa::kRdi)));
  EXPECT_FALSE(cmp.writes.has(isa::gpr(isa::kRdi)));
  EXPECT_TRUE(cmp.writes.has(RegSet::kFlags));
  const asmparse::UopRecipe& jge = p.instructions[1].recipe;
  EXPECT_TRUE(jge.reads.has(RegSet::kFlags));
  EXPECT_TRUE(jge.writes.empty());
}

// -- memory bounds / alignment ----------------------------------------------

TEST(VerifyMemory, LeaComputesAnAddressWithoutAccessingMemory) {
  // lea 65536(%rsi) points far past the 16 KiB array, but it touches no
  // memory: no bounds error, and its result is no "loaded value".
  VerifyReport r = verifyAssembly(
      "\t.globl microkernel\n"
      "microkernel:\n"
      "\tmovslq %edi, %rdi\n"
      "\txor %eax, %eax\n"
      ".L6:\n"
      "\tlea 65536(%rsi), %rdx\n"
      "\tadd $16, %rsi\n"
      "\tadd $1, %eax\n"
      "\tsub $4, %rdi\n"
      "\tjge .L6\n"
      "\tret\n",
      withContext(4096, 16384));
  EXPECT_FALSE(hasRule(r, "MT-MEM01")) << rulesOf(r);
  EXPECT_FALSE(hasRule(r, "MT-DF04")) << rulesOf(r);
  EXPECT_TRUE(hasRule(r, "MT-DF03")) << rulesOf(r);  // %rdx is never read
  EXPECT_TRUE(r.ok()) << rulesOf(r);
}


TEST(VerifyMemory, GoodKernelInBounds) {
  // n = 262144 elements of 4 bytes over a 1 MiB array: the canonical
  // explore geometry. One trailing stride lands in the slack.
  VerifyReport r =
      verifyAssembly(kGoodKernel, withContext(262144, 1 << 20));
  EXPECT_TRUE(r.ok()) << rulesOf(r);
  EXPECT_FALSE(hasRule(r, "MT-MEM01"));
  EXPECT_FALSE(hasRule(r, "MT-MEM02"));
}

TEST(VerifyMemory, TripCountClosedFormMatchesSimulation) {
  // For several trip counts, brute-force the jge loop and derive the exact
  // furthest byte; the verifier must agree bit-for-bit: the geometry one
  // byte short of the furthest access errors, the exact geometry passes.
  for (std::int64_t n : {1, 3, 4, 5, 16, 17, 63, 64}) {
    std::int64_t rdi = n, offset = 0, maxEnd = 0, guard = 0;
    do {
      maxEnd = std::max(maxEnd, offset + 16);  // movaps (%rsi)
      offset += 16;
      rdi -= 4;
      ASSERT_LT(++guard, 1000);
    } while (rdi >= 0);

    // Shrink the slack to zero so `bytes` is the exact boundary.
    VerifyOptions exact = withContext(n, static_cast<std::size_t>(maxEnd));
    exact.context->slackBytes = 0;
    VerifyReport ok = verifyAssembly(kGoodKernel, exact);
    EXPECT_FALSE(hasRule(ok, "MT-MEM01")) << "n=" << n << " " << rulesOf(ok);

    VerifyOptions tight =
        withContext(n, static_cast<std::size_t>(maxEnd - 1));
    tight.context->slackBytes = 0;
    VerifyReport bad = verifyAssembly(kGoodKernel, tight);
    EXPECT_TRUE(hasRule(bad, "MT-MEM01")) << "n=" << n;
  }
}

TEST(VerifyMemory, OutOfBoundsStrideIsError) {
  // Stride 64 with an r0 decrement of 4 covers 16x the array extent.
  VerifyReport r = verifyAssembly(
      "\t.globl microkernel\n"
      "microkernel:\n"
      "\tmovslq %edi, %rdi\n"
      "\txor %eax, %eax\n"
      ".L6:\n"
      "\tmovaps (%rsi), %xmm0\n"
      "\tadd $64, %rsi\n"
      "\tadd $1, %eax\n"
      "\tsub $4, %rdi\n"
      "\tjge .L6\n"
      "\tret\n",
      withContext(262144, 1 << 20));
  EXPECT_TRUE(hasRule(r, "MT-MEM01"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyMemory, NegativeDisplacementBeforeArrayStartIsError) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movss -4(%rsi), %xmm0\n ret\n",
      withContext(16, 64));
  EXPECT_TRUE(hasRule(r, "MT-MEM01"));
}

TEST(VerifyMemory, UnalignedMovapsIsError) {
  // Base offset 4 makes the 16-byte-aligned access unprovable (and wrong).
  VerifyReport r = verifyAssembly(kGoodKernel,
                                  withContext(262144, 1 << 20, 4096, 4));
  EXPECT_TRUE(hasRule(r, "MT-MEM02"));
  EXPECT_FALSE(r.ok());
}

TEST(VerifyMemory, WeakBaseAlignmentIsError) {
  VerifyReport r =
      verifyAssembly(kGoodKernel, withContext(262144, 1 << 20, 8, 0));
  EXPECT_TRUE(hasRule(r, "MT-MEM02"));
}

TEST(VerifyMemory, MovupsNeedsNoAlignmentProof) {
  VerifyReport r = verifyAssembly(
      "f:\n"
      "\tmovslq %edi, %rdi\n"
      "\txor %eax, %eax\n"
      ".L6:\n"
      "\tmovups (%rsi), %xmm0\n"
      "\tadd $16, %rsi\n"
      "\tadd $1, %eax\n"
      "\tsub $4, %rdi\n"
      "\tjge .L6\n"
      "\tret\n",
      withContext(262144, 1 << 20, 4096, 4));
  EXPECT_FALSE(hasRule(r, "MT-MEM02")) << rulesOf(r);
}

TEST(VerifyMemory, UnknownAddressIsWarningOnly) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movss 4096, %xmm0\n ret\n",
      withContext(16, 64));
  EXPECT_TRUE(hasRule(r, "MT-MEM03"));
  EXPECT_TRUE(r.ok());
}

TEST(VerifyMemory, NoContextSkipsBoundsRules) {
  VerifyReport r = verifyAssembly(
      "f:\n xor %eax, %eax\n movss 4096, %xmm0\n ret\n");
  EXPECT_FALSE(hasRule(r, "MT-MEM03"));
}

// -- parse / reporting -------------------------------------------------------

TEST(VerifyReporting, ParseFailureBecomesDiagnostic) {
  VerifyReport r = verifyAssembly("f:\n\tbogus %rax\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "MT-PARSE");
  EXPECT_EQ(r.diagnostics[0].line, 2u);
  EXPECT_EQ(r.diagnostics[0].column, 2u);
  EXPECT_FALSE(r.ok());
}

TEST(VerifyReporting, UnknownLabelBecomesDiagnostic) {
  VerifyReport r = verifyAssembly("f:\n xor %eax, %eax\n jge .Lmissing\n ret\n");
  EXPECT_TRUE(hasRule(r, "MT-PARSE"));
}

TEST(VerifyReporting, ShortSummaryGroupsRules) {
  VerifyReport r = verifyAssembly(
      "f:\n mov $7, %rbx\n movss (%rsi), %xmm3\n ret\n");
  std::string s = r.shortSummary();
  EXPECT_NE(s.find("E:"), std::string::npos) << s;
  EXPECT_NE(s.find("MT-ABI01"), std::string::npos) << s;
  EXPECT_NE(s.find("W:"), std::string::npos) << s;
  EXPECT_EQ(s.find(','), std::string::npos) << "must stay CSV-safe: " << s;
  VerifyReport clean = verifyAssembly("f:\n xor %eax, %eax\n ret\n");
  EXPECT_EQ(clean.shortSummary(), "ok");
}

TEST(VerifyReporting, RenderTextIncludesPositionsAndRuleIds) {
  VerifyReport r = verifyAssembly("f:\n mov $7, %rbx\n ret\n");
  std::string text = renderText(r, "bad.s");
  EXPECT_NE(text.find("bad.s:2"), std::string::npos) << text;
  EXPECT_NE(text.find("[MT-ABI01]"), std::string::npos) << text;
  EXPECT_NE(text.find("error"), std::string::npos) << text;
}

TEST(VerifyReporting, RenderJsonLinesIsOneObjectPerDiagnostic) {
  VerifyReport r = verifyAssembly("f:\n mov $7, %rbx\n ret\n");
  std::string json = renderJsonLines(r, "bad.s");
  EXPECT_NE(json.find("\"rule\":\"MT-ABI01\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":2"), std::string::npos) << json;
  // Located diagnostics carry the documented column field too.
  EXPECT_NE(json.find("\"column\":2"), std::string::npos) << json;
}

TEST(VerifyReporting, ParseDiagnosticsAlwaysCarryAColumn) {
  // Every MT-PARSE flavor must locate the offending token: an unknown
  // mnemonic, a duplicate label, and an unknown branch target.
  for (const char* bad : {"f:\n\tbogus %rax\n",            //
                          "f:\nf:\n ret\n",                //
                          "f:\n jge .Lmissing\n ret\n"}) {
    VerifyReport r = verifyAssembly(bad);
    ASSERT_TRUE(hasRule(r, "MT-PARSE")) << bad;
    for (const Diagnostic& d : r.diagnostics) {
      if (d.rule != "MT-PARSE") continue;
      EXPECT_GT(d.line, 0u) << bad;
      EXPECT_GT(d.column, 0u) << bad;
      std::string json = renderJsonLines(r, "bad.s");
      EXPECT_NE(json.find("\"column\":"), std::string::npos) << json;
    }
  }
}

// -- the five seeded-bad fixtures of the issue -------------------------------

TEST(VerifySeededFixtures, AllFiveBadKernelsAreFlagged) {
  struct Fixture {
    const char* name;
    std::string asmText;
    const char* rule;
  };
  const std::string goodLoop =
      ".L6:\n movaps (%rsi), %xmm0\n add $16, %rsi\n add $1, %eax\n"
      " sub $4, %rdi\n jge .L6\n ret\n";
  std::vector<Fixture> fixtures = {
      {"clobbered rbx",
       "f:\n movslq %edi, %rdi\n xor %eax, %eax\n mov $0, %rbx\n" + goodLoop,
       "MT-ABI01"},
      {"uninitialized read",
       "f:\n movslq %edi, %rdi\n xor %eax, %eax\n"
       ".L6:\n movaps (%r10), %xmm0\n add $16, %r10\n add $1, %eax\n"
       " sub $4, %rdi\n jge .L6\n ret\n",
       "MT-DF01"},
      {"dead store",
       "f:\n movslq %edi, %rdi\n xor %eax, %eax\n"
       ".L6:\n mov $3, %r10\n movaps (%rsi), %xmm0\n add $16, %rsi\n"
       " add $1, %eax\n sub $4, %rdi\n jge .L6\n ret\n",
       "MT-DF03"},
      {"out-of-bounds stride",
       "f:\n movslq %edi, %rdi\n xor %eax, %eax\n"
       ".L6:\n movaps (%rsi), %xmm0\n add $4096, %rsi\n add $1, %eax\n"
       " sub $4, %rdi\n jge .L6\n ret\n",
       "MT-MEM01"},
      {"unaligned movaps",
       "f:\n movslq %edi, %rdi\n xor %eax, %eax\n"
       ".L6:\n movaps 4(%rsi), %xmm0\n add $16, %rsi\n add $1, %eax\n"
       " sub $4, %rdi\n jge .L6\n ret\n",
       "MT-MEM02"},
  };
  for (const Fixture& f : fixtures) {
    VerifyReport r = verifyAssembly(f.asmText, withContext(262144, 1 << 20));
    EXPECT_TRUE(hasRule(r, f.rule))
        << f.name << " should raise " << f.rule << "; got " << rulesOf(r);
  }
}

// -- property test: every creator variant verifies clean ---------------------

TEST(VerifyProperty, AllLoadstoreSmallVariantsVerifyStrictClean) {
  // Mirrors examples/descriptions/loadstore_small.xml (movaps load kernel,
  // unroll 1..2) under the default explore geometry.
  auto programs = testing::generate(testing::figure6Xml(1, 2, false));
  ASSERT_FALSE(programs.empty());
  for (const auto& program : programs) {
    VerifyOptions options;
    options.arrayCount = program.arrayCount;
    LaunchContext ctx;
    ctx.tripCount = (1 << 20) / 4;
    for (int a = 0; a < program.arrayCount; ++a) {
      ctx.arrays.push_back({1 << 20, 4096, 0});
    }
    options.context = ctx;
    VerifyReport report = verifyAssembly(program.asmText, options);
    EXPECT_TRUE(report.ok())
        << program.name << ": " << renderText(report, program.name);
  }
}

TEST(VerifyProperty, StoreSwapAndMultiArrayVariantsHaveNoErrors) {
  // Figure-6 store variants (uninitialized xmm stores are warnings, not
  // errors) and two-array movss kernels, unroll up to 4 (one unrolled
  // stride of slack is guaranteed for strides up to a page).
  for (const std::string& xml :
       {testing::figure6Xml(1, 4, true), testing::movssLoadXml(1, 4, 2)}) {
    for (const auto& program : testing::generate(xml)) {
      VerifyOptions options;
      options.arrayCount = program.arrayCount;
      LaunchContext ctx;
      ctx.tripCount = (1 << 20) / 4;
      for (int a = 0; a < program.arrayCount; ++a) {
        ctx.arrays.push_back({1 << 20, 4096, 0});
      }
      options.context = ctx;
      VerifyReport report = verifyAssembly(program.asmText, options);
      EXPECT_TRUE(report.ok())
          << program.name << ": " << renderText(report, program.name);
    }
  }
}

}  // namespace
}  // namespace microtools::verify
