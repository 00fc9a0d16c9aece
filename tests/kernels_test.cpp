#include <gtest/gtest.h>

#include "asmparse/asmparse.hpp"
#include "creator/creator.hpp"
#include "kernels/matmul.hpp"
#include "native/compile.hpp"
#include "sim/core.hpp"
#include "support/error.hpp"

namespace microtools::kernels {
namespace {

TEST(NaiveMatmul, ComputesCorrectProduct) {
  // 2x2: B = [[1,2],[3,4]], C = [[5,6],[7,8]] -> A = [[19,22],[43,50]].
  std::vector<double> b{1, 2, 3, 4}, c{5, 6, 7, 8}, a(4, -1.0);
  naiveMatmul(2, b.data(), c.data(), a.data());
  EXPECT_DOUBLE_EQ(a[0], 19.0);
  EXPECT_DOUBLE_EQ(a[1], 22.0);
  EXPECT_DOUBLE_EQ(a[2], 43.0);
  EXPECT_DOUBLE_EQ(a[3], 50.0);
}

TEST(NaiveMatmul, IdentityIsNeutral) {
  int n = 5;
  std::vector<double> b(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<double> c(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i) * n + i] = 1.0;  // B = I
    for (int j = 0; j < n; ++j) {
      c[static_cast<std::size_t>(i) * n + j] = i * 10.0 + j;
    }
  }
  naiveMatmul(n, b.data(), c.data(), a.data());
  EXPECT_EQ(a, c);
}

TEST(NaiveMatmul, CSourceCompilesAndMatchesReference) {
  native::CompiledKernel kernel(naiveMatmulCSource(), "c", "multiplySingle");
  int n = 8;
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<double> b(static_cast<std::size_t>(n) * n);
  std::vector<double> c(static_cast<std::size_t>(n) * n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(i % 7) - 3.0;
    c[i] = static_cast<double>(i % 5) + 0.5;
  }
  void* ptrs[3] = {a.data(), b.data(), c.data()};
  EXPECT_EQ(kernel.call(n, ptrs, 3), n);
  std::vector<double> expected(a.size(), 0.0);
  naiveMatmul(n, b.data(), c.data(), expected.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], expected[i], 1e-9) << i;
  }
}

TEST(InnerKernelAsm, ParsesAndHasFigure2Structure) {
  std::string text = matmulInnerKernelAsm(1, 1600);
  asmparse::Program p = asmparse::parseAssembly(text);
  EXPECT_EQ(p.functionName, "matmul_kernel");
  // load, mul (with memory), add, store present.
  bool sawMovsdLoad = false, sawMulsd = false, sawAddsd = false,
       sawStore = false;
  for (const auto& insn : p.instructions) {
    bool loads = insn.recipe.loads();
    bool stores = insn.recipe.mem == asmparse::UopRecipe::Mem::Store;
    if (insn.mnemonic == "movsd" && loads) sawMovsdLoad = true;
    if (insn.mnemonic == "mulsd" && loads) sawMulsd = true;
    if (insn.mnemonic == "addsd") sawAddsd = true;
    if (insn.mnemonic == "movsd" && stores) sawStore = true;
  }
  EXPECT_TRUE(sawMovsdLoad);
  EXPECT_TRUE(sawMulsd);
  EXPECT_TRUE(sawAddsd);
  EXPECT_TRUE(sawStore);
}

TEST(InnerKernelAsm, UnrollBoundsEnforced) {
  EXPECT_THROW(matmulInnerKernelAsm(0, 1600), McError);
  EXPECT_THROW(matmulInnerKernelAsm(8, 1600), McError);
  EXPECT_NO_THROW(matmulInnerKernelAsm(7, 1600));
}

TEST(InnerKernelAsm, ExecutesNativelyWithCorrectResult) {
  // With unroll 1 the kernel computes an exact dot-product-with-running-
  // store; check the final *res value natively.
  int n = 64;
  std::string text = matmulInnerKernelAsm(1, 8);  // C stride 8: contiguous
  native::CompiledKernel kernel(text, "asm", "matmul_kernel");
  std::vector<double> bRow(static_cast<std::size_t>(n), 2.0);
  std::vector<double> cCol(static_cast<std::size_t>(n), 3.0);
  double res = -1.0;
  void* ptrs[3] = {bRow.data(), cCol.data(), &res};
  int iterations = kernel.call(n, ptrs, 3);
  EXPECT_EQ(iterations, n);
  EXPECT_DOUBLE_EQ(res, 2.0 * 3.0 * n);
}

TEST(InnerKernelXml, GeneratesMatchingVariants) {
  creator::MicroCreator mc;
  auto programs = mc.generateFromText(matmulInnerKernelXml(1, 4, 1600));
  ASSERT_EQ(programs.size(), 4u);
  for (const auto& p : programs) {
    EXPECT_EQ(p.functionName, "matmul_kernel");
    EXPECT_EQ(p.arrayCount, 3);
    EXPECT_NO_THROW(asmparse::parseAssembly(p.asmText));
  }
}

TEST(Study, InCacheSizesAreFast) {
  auto cfg = sim::nehalemX5650DualSocket();
  MatmulStudyOptions small;
  small.n = 64;
  MatmulStudyResult r = runMatmulStudy(cfg, small);
  EXPECT_GT(r.cyclesPerKIteration, 1.0);
  EXPECT_LT(r.cyclesPerKIteration, 8.0);
  EXPECT_GT(r.measuredIterations, 0u);
}

TEST(Study, CyclesGrowWithMatrixSize) {
  auto cfg = sim::nehalemX5650DualSocket();
  MatmulStudyOptions a, b;
  a.n = 100;
  b.n = 500;
  double smallCycles = runMatmulStudy(cfg, a).cyclesPerKIteration;
  double largeCycles = runMatmulStudy(cfg, b).cyclesPerKIteration;
  EXPECT_GT(largeCycles, smallCycles * 1.5);
}

TEST(Study, UnrollingImprovesInCachePerformance) {
  auto cfg = sim::nehalemX5650DualSocket();
  MatmulStudyOptions u1, u4;
  u1.n = u4.n = 200;
  u1.unroll = 1;
  u4.unroll = 4;
  double base = runMatmulStudy(cfg, u1).cyclesPerKIteration;
  double unrolled = runMatmulStudy(cfg, u4).cyclesPerKIteration;
  EXPECT_LT(unrolled, base);
}

TEST(Study, ValidatesSize) {
  auto cfg = sim::nehalemX5650DualSocket();
  MatmulStudyOptions tiny;
  tiny.n = 4;
  EXPECT_THROW(runMatmulStudy(cfg, tiny), McError);
}

}  // namespace
}  // namespace microtools::kernels
