//===- InterpreterTest.cpp - Evaluator and GC behaviour --------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace eal;
using namespace eal::test;

namespace {

class InterpreterTest : public ::testing::Test {
protected:
  Frontend FE;
  std::unique_ptr<Interpreter> Interp;

  std::optional<RtValue> evalSource(const std::string &Source,
                                    Interpreter::Options Opts = {}) {
    if (!FE.parseAndType(Source))
      return std::nullopt;
    Interp = std::make_unique<Interpreter>(FE.Ast, *FE.Typed, nullptr,
                                           FE.Diags, Opts);
    return Interp->run();
  }
};

//===----------------------------------------------------------------------===//
// Core evaluation.
//===----------------------------------------------------------------------===//

TEST_F(InterpreterTest, Arithmetic) {
  auto V = evalSource("1 + 2 * 3 - 4");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 3);
}

TEST_F(InterpreterTest, DivAndMod) {
  auto V = evalSource("(17 div 5) * 10 + (17 mod 5)");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 32);
}

TEST_F(InterpreterTest, Comparison) {
  auto V = evalSource("if 3 <= 4 then 1 else 0");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 1);
}

TEST_F(InterpreterTest, LetAndLambda) {
  auto V = evalSource("let add = lambda(a b). a + b in add 20 22");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 42);
}

TEST_F(InterpreterTest, LetrecFactorial) {
  auto V = evalSource(
      "letrec fact n = if n = 0 then 1 else n * fact (n - 1) in fact 10");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 3628800);
}

TEST_F(InterpreterTest, ListLiteralRenders) {
  auto V = evalSource("[1, 2, 3]");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interp->render(*V), "[1, 2, 3]");
}

TEST_F(InterpreterTest, ConsCarCdrNull) {
  auto V = evalSource("car (cdr (1 :: 2 :: 3 :: nil))");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 2);
}

TEST_F(InterpreterTest, HigherOrderMap) {
  const char *Source = R"(
letrec map f l = if (null l) then nil
                 else cons (f (car l)) (map f (cdr l))
in map (lambda(x). x * x) [1, 2, 3, 4]
)";
  auto V = evalSource(Source);
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interpreter::toIntVector(*V),
            (std::vector<int64_t>{1, 4, 9, 16}));
}

TEST_F(InterpreterTest, PartialApplicationOfUserFunction) {
  auto V = evalSource(
      "letrec add a b = a + b in let inc = add 1 in inc 41");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 42);
}

TEST_F(InterpreterTest, PrimAsValue) {
  // cons passed as a function value to a fold.
  const char *Source = R"(
letrec foldr f z l = if (null l) then z
                     else f (car l) (foldr f z (cdr l))
in foldr cons nil [1, 2, 3]
)";
  auto V = evalSource(Source);
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interpreter::toIntVector(*V), (std::vector<int64_t>{1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// The paper's programs compute correct results.
//===----------------------------------------------------------------------===//

TEST_F(InterpreterTest, PartitionSortSorts) {
  auto V = evalSource(partitionSortSource());
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interpreter::toIntVector(*V),
            (std::vector<int64_t>{1, 2, 3, 4, 5, 7}));
}

TEST_F(InterpreterTest, ReverseReverses) {
  auto V = evalSource(reverseSource());
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interpreter::toIntVector(*V),
            (std::vector<int64_t>{5, 4, 3, 2, 1}));
}

TEST_F(InterpreterTest, MapPairDuplicates) {
  auto V = evalSource(mapPairSource());
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interp->render(*V), "[[1, 1], [3, 3], [5, 5]]");
}

//===----------------------------------------------------------------------===//
// DCONS semantics.
//===----------------------------------------------------------------------===//

TEST_F(InterpreterTest, DconsReusesCellInPlace) {
  auto V = evalSource(
      "letrec f x = if (null x) then nil else dcons x 9 nil in f [1, 2]");
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(Interpreter::toIntVector(*V), (std::vector<int64_t>{9}));
  EXPECT_EQ(Interp->stats().DconsReuses, 1u);
}

TEST_F(InterpreterTest, DconsOnNilIsAnError) {
  auto V = evalSource("dcons nil 1 nil");
  EXPECT_FALSE(V.has_value());
  EXPECT_TRUE(FE.Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Garbage collection.
//===----------------------------------------------------------------------===//

TEST_F(InterpreterTest, GcReclaimsGarbageInSmallHeap) {
  // Builds and discards many short lists; a 64-cell heap with growth
  // disabled only survives if collection works.
  const char *Source = R"(
letrec
  build n = if n = 0 then nil else cons n (build (n - 1));
  sum l = if (null l) then 0 else car l + sum (cdr l);
  loop i acc = if i = 0 then acc
               else loop (i - 1) (acc + sum (build 10))
in loop 100 0
)";
  Interpreter::Options Opts;
  Opts.HeapCapacity = 64;
  Opts.AllowHeapGrowth = false;
  auto V = evalSource(Source, Opts);
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 100 * 55);
  EXPECT_GE(Interp->stats().GcRuns, 1u);
  EXPECT_GT(Interp->stats().CellsSwept, 0u);
}

TEST_F(InterpreterTest, GcTracesThroughClosures) {
  // After mk returns, its let frame is gone: the list `keep` is reachable
  // only through the returned closure's environment. Churning then forces
  // collections; a GC that fails to trace closures would reclaim it.
  const char *Source = R"(
letrec
  build n = if n = 0 then nil else cons n (build (n - 1));
  sum l = if (null l) then 0 else car l + sum (cdr l);
  mk u = let keep = build 10 in lambda(z). sum keep + z;
  churn i = if i = 0 then 0
            else churn (i - (sum (build 8) - sum (build 8)) - 1)
in let get = mk 0 in get (churn 50)
)";
  Interpreter::Options Opts;
  Opts.HeapCapacity = 64;
  Opts.AllowHeapGrowth = false;
  auto V = evalSource(Source, Opts);
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 55);
  EXPECT_GE(Interp->stats().GcRuns, 1u);
}

TEST_F(InterpreterTest, HeapGrowsWhenEverythingLive) {
  // All cells stay live: growth must kick in (or the run would fail).
  const char *Source = R"(
letrec build n = if n = 0 then nil else cons n (build (n - 1))
in build 200
)";
  Interpreter::Options Opts;
  Opts.HeapCapacity = 64;
  Opts.AllowHeapGrowth = true;
  auto V = evalSource(Source, Opts);
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_GE(Interp->stats().HeapGrowths, 1u);
}

TEST_F(InterpreterTest, OutOfMemoryWithoutGrowth) {
  const char *Source = R"(
letrec build n = if n = 0 then nil else cons n (build (n - 1))
in build 200
)";
  Interpreter::Options Opts;
  Opts.HeapCapacity = 64;
  Opts.AllowHeapGrowth = false;
  auto V = evalSource(Source, Opts);
  EXPECT_FALSE(V.has_value());
  EXPECT_TRUE(FE.Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Runtime errors.
//===----------------------------------------------------------------------===//

TEST_F(InterpreterTest, CarOfNilFails) {
  EXPECT_FALSE(evalSource("car nil").has_value());
  EXPECT_TRUE(FE.Diags.hasErrors());
}

TEST_F(InterpreterTest, DivisionByZeroFails) {
  EXPECT_FALSE(evalSource("1 div 0").has_value());
  EXPECT_TRUE(FE.Diags.hasErrors());
}

TEST_F(InterpreterTest, FuelLimitStopsDivergence) {
  Interpreter::Options Opts;
  Opts.MaxSteps = 10000;
  // The diverging loop recurses natively until the fuel runs out, which
  // needs more than a default test-thread stack under sanitizers; run it
  // the way the CLI does, on the big stack.
  ASSERT_TRUE(FE.parseAndType("letrec loop x = loop x in loop 1"))
      << FE.diagText();
  Interp = std::make_unique<Interpreter>(FE.Ast, *FE.Typed, nullptr, FE.Diags,
                                         Opts);
  auto V = Interp->runOnLargeStack();
  EXPECT_FALSE(V.has_value());
  EXPECT_TRUE(FE.Diags.hasErrors());
}

TEST_F(InterpreterTest, DeepRecursionOnLargeStack) {
  const char *Source = R"(
letrec build n = if n = 0 then nil else cons n (build (n - 1));
       len l = if (null l) then 0 else 1 + len (cdr l)
in len (build 50000)
)";
  ASSERT_TRUE(FE.parseAndType(Source)) << FE.diagText();
  Interp = std::make_unique<Interpreter>(FE.Ast, *FE.Typed, nullptr, FE.Diags,
                                         Interpreter::Options());
  auto V = Interp->runOnLargeStack();
  ASSERT_TRUE(V.has_value()) << FE.diagText();
  EXPECT_EQ(V->intValue(), 50000);
}

} // namespace
