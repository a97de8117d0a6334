//===- PipelineTest.cpp - End-to-end optimization correctness --------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The decisive integration property: every optimization configuration
// computes exactly the same value as the unoptimized program, while the
// runtime counters show the optimization actually happened — and arena
// frees are validated cell-by-cell.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eal;
using namespace eal::test;

namespace {

PipelineOptions configFor(bool Reuse, bool Stack, bool Region,
                          bool Validate = true) {
  PipelineOptions Options;
  Options.Optimize.EnableReuse = Reuse;
  Options.Optimize.EnableStack = Stack;
  Options.Optimize.EnableRegion = Region;
  Options.Run.ValidateArenaFrees = Validate;
  return Options;
}

/// Runs \p Source under a configuration and returns the result;
/// EXPECT-fails on any pipeline error.
PipelineResult runConfig(const std::string &Source, bool Reuse, bool Stack,
                         bool Region) {
  PipelineResult R = runPipeline(Source, configFor(Reuse, Stack, Region));
  EXPECT_TRUE(R.Success) << R.diagnostics();
  return R;
}

const char *createListSource() {
  // A.3.3: the argument of ps is produced by a function call, so its
  // spine cannot be built in ps's activation record; it goes to a block.
  return R"(
letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  split p x l h = if (null x) then cons l (cons h nil)
                  else if (car x) <= p
                       then split p (cdr x) (cons (car x) l) h
                       else split p (cdr x) l (cons (car x) h);
  ps x = if (null x) then nil
         else append (ps (car (split (car x) (cdr x) nil nil)))
                     (cons (car x)
                           (ps (car (cdr (split (car x) (cdr x) nil nil)))));
  create_list i = if i = 0 then nil
                  else cons (i * 37 mod 101) (create_list (i - 1))
in ps (create_list 50)
)";
}

//===----------------------------------------------------------------------===//
// Semantic preservation across all configurations.
//===----------------------------------------------------------------------===//

class PipelineConfigTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(PipelineConfigTest, PartitionSortValuePreserved) {
  auto [Reuse, Stack, Region] = GetParam();
  PipelineResult Base = runConfig(partitionSortSource(), false, false, false);
  PipelineResult Opt = runConfig(partitionSortSource(), Reuse, Stack, Region);
  EXPECT_EQ(Base.RenderedValue, "[1, 2, 3, 4, 5, 7]");
  EXPECT_EQ(Opt.RenderedValue, Base.RenderedValue);
}

TEST_P(PipelineConfigTest, ReverseValuePreserved) {
  auto [Reuse, Stack, Region] = GetParam();
  PipelineResult Base = runConfig(reverseSource(), false, false, false);
  PipelineResult Opt = runConfig(reverseSource(), Reuse, Stack, Region);
  EXPECT_EQ(Base.RenderedValue, "[5, 4, 3, 2, 1]");
  EXPECT_EQ(Opt.RenderedValue, Base.RenderedValue);
}

TEST_P(PipelineConfigTest, MapPairValuePreserved) {
  auto [Reuse, Stack, Region] = GetParam();
  PipelineResult Base = runConfig(mapPairSource(), false, false, false);
  PipelineResult Opt = runConfig(mapPairSource(), Reuse, Stack, Region);
  EXPECT_EQ(Opt.RenderedValue, Base.RenderedValue);
}

TEST_P(PipelineConfigTest, CreateListValuePreserved) {
  auto [Reuse, Stack, Region] = GetParam();
  PipelineResult Base = runConfig(createListSource(), false, false, false);
  PipelineResult Opt = runConfig(createListSource(), Reuse, Stack, Region);
  EXPECT_EQ(Opt.RenderedValue, Base.RenderedValue);
}

std::string configName(
    const ::testing::TestParamInfo<std::tuple<bool, bool, bool>> &Info) {
  std::string Name;
  Name += std::get<0>(Info.param) ? "Reuse" : "NoReuse";
  Name += std::get<1>(Info.param) ? "Stack" : "NoStack";
  Name += std::get<2>(Info.param) ? "Region" : "NoRegion";
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PipelineConfigTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()),
                         configName);

//===----------------------------------------------------------------------===//
// The optimizations demonstrably fire.
//===----------------------------------------------------------------------===//

TEST(PipelineEffectsTest, ReuseEliminatesAllocations) {
  PipelineResult Base = runConfig(partitionSortSource(), false, false, false);
  PipelineResult Reuse = runConfig(partitionSortSource(), true, false, false);
  EXPECT_EQ(Reuse.Stats.DconsReuses, 0u + Reuse.Stats.DconsReuses);
  EXPECT_GT(Reuse.Stats.DconsReuses, 0u);
  EXPECT_LT(Reuse.Stats.HeapCellsAllocated, Base.Stats.HeapCellsAllocated);
}

TEST(PipelineEffectsTest, StackAllocationMovesLiteralSpine) {
  PipelineResult R = runConfig(partitionSortSource(), false, true, false);
  // The [5,2,7,1,3,4] literal spine (6 cells) goes to ps's activation.
  EXPECT_GE(R.Stats.StackCellsAllocated, 6u);
  EXPECT_GE(R.Stats.StackArenaFrees, 1u);
  EXPECT_EQ(R.Stats.StackCellsAllocated, R.Stats.StackCellsFreed);
}

TEST(PipelineEffectsTest, RegionAllocationCapturesProducerSpine) {
  PipelineResult R = runConfig(createListSource(), false, false, true);
  // create_list builds 50 spine cells; they go to the block owned by
  // ps's activation and are bulk-freed.
  EXPECT_GE(R.Stats.RegionCellsAllocated, 50u);
  EXPECT_GE(R.Stats.RegionBulkFrees, 1u);
  EXPECT_EQ(R.Stats.RegionCellsAllocated, R.Stats.RegionCellsFreed);
}

TEST(PipelineEffectsTest, ReverseReusePreservesAllocationCount) {
  // REV'/APPEND' recycle every spine cell of the intermediate lists:
  // with reuse the total fresh allocations drop dramatically (naive
  // reverse is quadratic in allocations, reuse makes it linear).
  PipelineResult Base = runConfig(reverseSource(), false, false, false);
  PipelineResult Reuse = runConfig(reverseSource(), true, false, false);
  EXPECT_GT(Reuse.Stats.DconsReuses, 0u);
  EXPECT_LT(Reuse.Stats.HeapCellsAllocated, Base.Stats.HeapCellsAllocated);
}

TEST(PipelineEffectsTest, AnalysisOnlyModeSkipsExecution) {
  PipelineOptions Options;
  Options.RunProgram = false;
  PipelineResult R = runPipeline(partitionSortSource(), Options);
  EXPECT_TRUE(R.Success) << R.diagnostics();
  EXPECT_FALSE(R.Value.has_value());
  EXPECT_FALSE(R.Optimized->BaseEscape.Functions.empty());
}

TEST(PipelineEffectsTest, ParseErrorsPropagate) {
  PipelineResult R = runPipeline("letrec f x = in f 1");
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.diagnostics().empty());
}

TEST(PipelineEffectsTest, TypeErrorsPropagate) {
  PipelineResult R = runPipeline("1 + nil");
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.diagnostics().empty());
}

//===----------------------------------------------------------------------===//
// Deep input: every pass recurses as deep as the source nests, so the
// whole pipeline runs on the big stack. Each of these crashed some pass
// on the default 8 MB stack (tests/driver/DeepInput.cmake runs them
// through `eal analyze`).
//===----------------------------------------------------------------------===//

std::string repeat(const std::string &Piece, size_t Times) {
  std::string Out;
  Out.reserve(Piece.size() * Times);
  for (size_t I = 0; I != Times; ++I)
    Out += Piece;
  return Out;
}

void expectValueOnBothEngines(const std::string &Source,
                              const std::string &Value) {
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    PipelineOptions Options;
    Options.Engine = Engine;
    PipelineResult R = runPipeline(Source, Options);
    const char *Name = Engine == ExecutionEngine::Bytecode ? "vm" : "tree";
    ASSERT_TRUE(R.Success) << Name << ": " << R.diagnostics();
    EXPECT_EQ(R.RenderedValue, Value) << Name;
  }
}

TEST(DeepInputTest, NestedParentheses) {
  expectValueOnBothEngines(repeat("(", 50000) + "1" + repeat(")", 50000),
                           "1");
}

TEST(DeepInputTest, LongListLiteral) {
  // The printer shows the first 64 elements.
  // Built with append: GCC 12's -Werror=restrict misreads "[" + string.
  expectValueOnBothEngines(std::string("[").append(repeat("1, ", 39999)) + "1]",
                           std::string("[").append(repeat("1, ", 64)) + "...]");
}

TEST(DeepInputTest, LongSum) {
  expectValueOnBothEngines(repeat("1+", 49999) + "1", "50000");
}

} // namespace
