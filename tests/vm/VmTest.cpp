//===- VmTest.cpp - bytecode engine tests ------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "property/ProgramGenerator.h"
#include "TestUtil.h"
#include "driver/Pipeline.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

using namespace eal;
using namespace eal::test;

namespace {

PipelineResult runOn(ExecutionEngine Engine, const std::string &Source,
                     bool Reuse = true, bool Stack = true,
                     bool Region = true) {
  PipelineOptions Options;
  Options.Engine = Engine;
  Options.Optimize.EnableReuse = Reuse;
  Options.Optimize.EnableStack = Stack;
  Options.Optimize.EnableRegion = Region;
  Options.Run.ValidateArenaFrees = true;
  return runPipeline(Source, Options);
}

TEST(VmTest, CoreForms) {
  struct Row {
    const char *Source;
    const char *Expected;
  };
  const Row Rows[] = {
      {"1 + 2 * 3", "7"},
      {"if 1 < 2 then 10 else 20", "10"},
      {"let x = 4 in x * x", "16"},
      {"(lambda(a b). a - b) 10 3", "7"},
      {"letrec fact n = if n = 0 then 1 else n * fact (n - 1) "
       "in fact 6",
       "720"},
      {"[1, 2, 3]", "[1, 2, 3]"},
      {"car (cdr [1, 2, 3])", "2"},
      {"(1, (true, [2]))", "(1, (true, [2]))"},
      {"fst (snd (1, (2, 3)))", "2"},
      {"letrec even n = if n = 0 then true else odd (n - 1);"
       "       odd n = if n = 0 then false else even (n - 1) "
       "in if even 10 then 1 else 0",
       "1"},
  };
  for (const Row &Row : Rows) {
    PipelineResult R = runOn(ExecutionEngine::Bytecode, Row.Source);
    ASSERT_TRUE(R.Success) << Row.Source << "\n" << R.diagnostics();
    EXPECT_EQ(R.RenderedValue, Row.Expected) << Row.Source;
  }
}

TEST(VmTest, PartialAndOverApplication) {
  PipelineResult R = runOn(
      ExecutionEngine::Bytecode,
      "letrec add a b = a + b; twice f x = f (f x) "
      "in twice (add 5) 1");
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_EQ(R.RenderedValue, "11");

  // Over-application: k returns a closure which is applied immediately.
  PipelineResult R2 = runOn(
      ExecutionEngine::Bytecode,
      "letrec k a = lambda(b). a + b in k 1 2");
  ASSERT_TRUE(R2.Success) << R2.diagnostics();
  EXPECT_EQ(R2.RenderedValue, "3");
}

TEST(VmTest, PrimAsValue) {
  PipelineResult R = runOn(
      ExecutionEngine::Bytecode,
      "letrec foldr f z l = if (null l) then z "
      "else f (car l) (foldr f z (cdr l)) in foldr cons nil [1, 2, 3]");
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_EQ(R.RenderedValue, "[1, 2, 3]");
}

TEST(VmTest, MatchesInterpreterOnPaperPrograms) {
  const char *Programs[] = {partitionSortSource(), mapPairSource(),
                            reverseSource()};
  for (const char *Source : Programs) {
    PipelineResult Tree = runOn(ExecutionEngine::TreeWalker, Source);
    PipelineResult Byte = runOn(ExecutionEngine::Bytecode, Source);
    ASSERT_TRUE(Tree.Success && Byte.Success)
        << Tree.diagnostics() << Byte.diagnostics();
    EXPECT_EQ(Byte.RenderedValue, Tree.RenderedValue);
    // Identical storage behaviour: the engines share the heap machinery.
    EXPECT_EQ(Byte.Stats.DconsReuses, Tree.Stats.DconsReuses);
    EXPECT_EQ(Byte.Stats.StackCellsAllocated, Tree.Stats.StackCellsAllocated);
    EXPECT_EQ(Byte.Stats.RegionCellsAllocated,
              Tree.Stats.RegionCellsAllocated);
  }
}

TEST(VmTest, InternedPrimClosuresStopPerUseAllocation) {
  // The §1 map/pair shape with a primitive passed as a value inside a
  // loop. The tree-walker materializes a fresh closure every time `cons`
  // is evaluated as an argument; the VM interns one closure per
  // (prim, site) pair at construction, so its count is a small constant
  // independent of the iteration count.
  const char *Source = R"(
letrec
  pair x = if (null x) then nil else cons (car x) (cons (car x) nil);
  map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));
  foldr f z l = if (null l) then z else f (car l) (foldr f z (cdr l));
  len l = if (null l) then 0 else 1 + len (cdr l);
  loop n acc =
    if n = 0 then acc
    else loop (n - 1)
              (acc + len (foldr cons nil (map pair [[1, 2], [3, 4], [5, 6]])))
in loop 64 0
)";
  PipelineResult Tree = runOn(ExecutionEngine::TreeWalker, Source);
  PipelineResult Byte = runOn(ExecutionEngine::Bytecode, Source);
  ASSERT_TRUE(Tree.Success && Byte.Success)
      << Tree.diagnostics() << Byte.diagnostics();
  EXPECT_EQ(Byte.RenderedValue, Tree.RenderedValue);
  // One closure per loop iteration (at least), versus a per-program
  // constant: the drop the interning buys on this workload.
  EXPECT_GE(Tree.Stats.ClosuresCreated, 64u);
  EXPECT_LE(Byte.Stats.ClosuresCreated, 16u);
  EXPECT_LT(Byte.Stats.ClosuresCreated * 4, Tree.Stats.ClosuresCreated);
}

TEST(VmTest, DeepRecursionNeedsNoBigStack) {
  // Non-tail recursion 100k deep: VM call frames live on the heap, so no
  // dedicated big-stack thread is needed.
  const char *Source = R"(
letrec build n = if n = 0 then nil else cons n (build (n - 1));
       len l = if (null l) then 0 else 1 + len (cdr l)
in len (build 100000)
)";
  PipelineOptions Options;
  Options.Engine = ExecutionEngine::Bytecode;
  Options.UseLargeStack = false; // the run stays on this thread's stack
  PipelineResult R = runPipeline(Source, Options);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_EQ(R.RenderedValue, "100000");
}

TEST(VmTest, GcUnderPressure) {
  const char *Source = R"(
letrec
  build n = if n = 0 then nil else cons n (build (n - 1));
  suml l = if (null l) then 0 else car l + suml (cdr l);
  loop i acc = if i = 0 then acc
               else loop (i - 1) (acc + suml (build 10))
in loop 200 0
)";
  PipelineOptions Options;
  Options.Engine = ExecutionEngine::Bytecode;
  Options.Optimize.EnableReuse = false;
  Options.Optimize.EnableStack = false;
  Options.Optimize.EnableRegion = false;
  Options.Run.HeapCapacity = 64;
  Options.Run.AllowHeapGrowth = false;
  PipelineResult R = runPipeline(Source, Options);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_EQ(R.RenderedValue, "11000");
  EXPECT_GE(R.Stats.GcRuns, 1u);
}

TEST(VmTest, RuntimeErrorsReported) {
  PipelineOptions Options;
  Options.Engine = ExecutionEngine::Bytecode;
  PipelineResult R = runPipeline("car nil", Options);
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.diagnostics().find("empty list"), std::string::npos);
  PipelineResult R2 = runPipeline("1 div 0", Options);
  EXPECT_FALSE(R2.Success);
}

TEST(VmTest, FuelLimit) {
  PipelineOptions Options;
  Options.Engine = ExecutionEngine::Bytecode;
  Options.Run.MaxSteps = 10000;
  PipelineResult R =
      runPipeline("letrec loop x = loop x in loop 1", Options);
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.diagnostics().find("step budget"), std::string::npos);
}

TEST(VmTest, DisassemblerRoundTrip) {
  Frontend FE;
  ASSERT_TRUE(FE.parseAndType(
      "letrec f x = if (null x) then 0 else 1 + f (cdr x) in f [1, 2]"));
  auto Chunk = compileToBytecode(FE.Ast, FE.Root, nullptr, FE.Diags);
  ASSERT_TRUE(Chunk.has_value()) << FE.diagText();
  std::string Asm = disassemble(*Chunk);
  EXPECT_NE(Asm.find("proto 0 '<entry>'"), std::string::npos) << Asm;
  // f's frame never escapes: its parameter flattens to a stack slot and
  // `cdr x` fuses into a prim.l superinstruction.
  EXPECT_NE(Asm.find("'f' arity 1 flat"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("prim.l cdr"), std::string::npos) << Asm;
  // `null x` fuses too, and the recursive call is in tail position only
  // on the else branch's inner call spine, which is an argument of `+`,
  // so a plain call remains.
  EXPECT_NE(Asm.find("prim.l null"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("call nargs=1"), std::string::npos) << Asm;
  EXPECT_GT(Chunk->instructionCount(), 10u);
}

//===----------------------------------------------------------------------===//
// Differential: both engines agree on random programs under every
// optimization configuration.
//===----------------------------------------------------------------------===//

class VmDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(VmDifferentialTest, EnginesAgree) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  for (bool Optimized : {false, true}) {
    PipelineResult Tree = runOn(ExecutionEngine::TreeWalker, Prog.Source,
                                Optimized, Optimized, Optimized);
    PipelineResult Byte = runOn(ExecutionEngine::Bytecode, Prog.Source,
                                Optimized, Optimized, Optimized);
    ASSERT_TRUE(Tree.Success) << Prog.Source << Tree.diagnostics();
    ASSERT_TRUE(Byte.Success) << Prog.Source << Byte.diagnostics();
    EXPECT_EQ(Byte.RenderedValue, Tree.RenderedValue)
        << "ENGINE DIVERGENCE (seed " << GetParam()
        << ", optimized=" << Optimized << "):\n"
        << Prog.Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmDifferentialTest,
                         ::testing::Range(100u, 160u));

} // namespace
