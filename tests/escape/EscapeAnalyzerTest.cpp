//===- EscapeAnalyzerTest.cpp - analyzer behaviour beyond the paper ---------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Exercises the abstract interpreter on shapes the appendix does not
// cover: higher-order escape through closures, nested letrec, lets,
// partial application, local-test precision, and evaluation of arbitrary
// expressions.
//
//===----------------------------------------------------------------------===//

#include "escape/EscapeAnalyzer.h"

#include "TestUtil.h"
#include "lang/AstUtils.h"

#include <gtest/gtest.h>

using namespace eal;
using namespace eal::test;

namespace {

class EscapeAnalyzerTest : public ::testing::Test {
protected:
  Frontend FE;
  std::unique_ptr<EscapeAnalyzer> Analyzer;

  bool setup(const std::string &Source,
             TypeInferenceMode Mode = TypeInferenceMode::Polymorphic) {
    if (!FE.parseAndType(Source, Mode))
      return false;
    Analyzer = std::make_unique<EscapeAnalyzer>(FE.Ast, *FE.Typed, FE.Diags);
    return true;
  }

  BasicEscape global(const char *Fn, unsigned OneBased) {
    auto PE = Analyzer->globalEscape(FE.Ast.intern(Fn), OneBased - 1);
    EXPECT_TRUE(PE.has_value());
    return PE ? PE->Escape : BasicEscape::none();
  }
};

//===----------------------------------------------------------------------===//
// Scalars, identity, and selection.
//===----------------------------------------------------------------------===//

TEST_F(EscapeAnalyzerTest, IdentityReturnsItsArgument) {
  // Monomorphic: the instance at int list (polymorphic mode would analyze
  // the simplest instance per Theorem 1).
  ASSERT_TRUE(setup("letrec id x = x in id [1]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("id", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, ScalarComputationEscapesNothing) {
  ASSERT_TRUE(setup("letrec len l = if (null l) then 0 "
                    "else 1 + len (cdr l) in len [1, 2]"))
      << FE.diagText();
  EXPECT_EQ(global("len", 1), BasicEscape::none());
}

TEST_F(EscapeAnalyzerTest, SelectionStripsOneSpine) {
  ASSERT_TRUE(setup("letrec hd x = car x in hd [[1], [2]]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  // hd : int list list -> int list; the inner spine escapes.
  EXPECT_EQ(global("hd", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, DoubleSelection) {
  ASSERT_TRUE(setup("letrec hd2 x = car (car x) in hd2 [[[1]]]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  // x has 3 spines; two cars strip two: <1,1>.
  EXPECT_EQ(global("hd2", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, CdrKeepsEverything) {
  ASSERT_TRUE(setup("letrec tl x = cdr x in tl [1, 2]")) << FE.diagText();
  // The abstract cdr is the identity: the whole list may escape.
  EXPECT_EQ(global("tl", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, ConditionDoesNotEscape) {
  ASSERT_TRUE(setup("letrec pick c a b = if (null c) then a else b "
                    "in pick [9] [1] [2]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("pick", 1), BasicEscape::none());
  EXPECT_EQ(global("pick", 2), BasicEscape::contained(1));
  EXPECT_EQ(global("pick", 3), BasicEscape::contained(1));
}

//===----------------------------------------------------------------------===//
// Higher-order escape: through closures and unknown functions.
//===----------------------------------------------------------------------===//

TEST_F(EscapeAnalyzerTest, EscapeThroughReturnedClosure) {
  // make returns a closure capturing x; calling it later releases x.
  // The closure value must carry x's escape (the V of §3.4).
  ASSERT_TRUE(setup("letrec make x = lambda(u). x in (make [1]) 0",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("make", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, ClosureThatIgnoresCaptureStillMarksIt) {
  // Conservative: the closure contains x even if the body never returns
  // it; G must report the capture (the closure object itself holds x).
  ASSERT_TRUE(setup("letrec make x = lambda(u). u in (make [1]) 0"))
      << FE.diagText();
  // The closure's ground includes x, but applying it returns only u;
  // with u = <0,0> the application result drops x. The paper's V rule
  // puts x in the *closure value*; the global test applies it, so the
  // final answer depends on the application result: <0,0>.
  EXPECT_EQ(global("make", 1), BasicEscape::none());
}

TEST_F(EscapeAnalyzerTest, UnknownFunctionWorstCase) {
  // apply f x = f x: with W for f, x escapes entirely.
  ASSERT_TRUE(setup("letrec app f x = f x in app (lambda(v). v) [1]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("app", 2), BasicEscape::contained(1));
  // The function value itself cannot be part of an int list result;
  // Definition 2's W propagates only argument grounds, so G(app,1) is
  // precise: nothing of f is in the result.
  EXPECT_EQ(global("app", 1), BasicEscape::none());
}

TEST_F(EscapeAnalyzerTest, MapElementsEscapeOnlyThroughF) {
  ASSERT_TRUE(setup(mapPairSource(), TypeInferenceMode::Monomorphic))
      << FE.diagText();
  // Global: worst-case f releases what it is given: elements escape.
  EXPECT_EQ(global("map", 2), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, LocalTestIsMorePreciseThanGlobal) {
  ASSERT_TRUE(setup(mapPairSource(), TypeInferenceMode::Monomorphic))
      << FE.diagText();
  const auto *Letrec = cast<LetrecExpr>(FE.Root);
  auto Local = Analyzer->localEscape(Letrec->body(), 1);
  auto Global = Analyzer->globalEscape(FE.Ast.intern("map"), 1);
  ASSERT_TRUE(Local && Global);
  EXPECT_TRUE(Local->Escape <= Global->Escape);
  EXPECT_LT(Local->Escape.spines(), Global->Escape.spines());
}

TEST_F(EscapeAnalyzerTest, PartialApplicationCapturesArgument) {
  // pairUp x = cons x: the partial application of cons holds x.
  ASSERT_TRUE(
      setup("letrec mk x = cons x; use g = g nil in use (mk [1])",
            TypeInferenceMode::Monomorphic))
      << FE.diagText();
  // mk's result is a function value containing x: <1,...> ground.
  EXPECT_TRUE(global("mk", 1).isContained());
}

//===----------------------------------------------------------------------===//
// Binder forms.
//===----------------------------------------------------------------------===//

TEST_F(EscapeAnalyzerTest, LetBoundValueFlows) {
  ASSERT_TRUE(setup("letrec f x = let y = cdr x in y in f [1, 2]",
                    TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("f", 1), BasicEscape::contained(1));
}

TEST_F(EscapeAnalyzerTest, NestedLetrecHelper) {
  const char *Source = R"(
letrec outer x =
  letrec walk l = if (null l) then 0 else 1 + walk (cdr l)
  in walk x + 0
in outer [1, 2, 3]
)";
  ASSERT_TRUE(setup(Source)) << FE.diagText();
  EXPECT_EQ(global("outer", 1), BasicEscape::none());
}

TEST_F(EscapeAnalyzerTest, NestedLetrecReturningSpine) {
  const char *Source = R"(
letrec outer x =
  letrec keep l = if (null l) then nil else cons (car l) (keep (cdr l))
  in keep x
in outer [1, 2, 3]
)";
  ASSERT_TRUE(setup(Source)) << FE.diagText();
  // keep rebuilds the spine: elements escape, spine does not.
  EXPECT_EQ(global("outer", 1), BasicEscape::contained(0));
}

TEST_F(EscapeAnalyzerTest, MutualRecursionConverges) {
  const char *Source = R"(
letrec
  evens l = if (null l) then nil else cons (car l) (odds (cdr l));
  odds l = if (null l) then nil else evens (cdr l)
in evens [1, 2, 3, 4]
)";
  ASSERT_TRUE(setup(Source)) << FE.diagText();
  EXPECT_EQ(global("evens", 1), BasicEscape::contained(0));
  EXPECT_EQ(global("odds", 1), BasicEscape::contained(0));
  EXPECT_FALSE(Analyzer->hitIterationLimit());
}

TEST_F(EscapeAnalyzerTest, GrowingClosureChainIsWidenedNotDiverging) {
  // g rebuilds its function argument at every recursive call, so each
  // application of g's closure carries a strictly larger abstract
  // closure — a fresh apply-cache key every time, which defeats the
  // ⊥-seeded cycle brake and, without the depth widening, recurses
  // without bound. The analysis must terminate, widen at least once,
  // and answer conservatively: once f is worst-cased, the argument it
  // is applied to (car l) escapes into the result, so the verdict for
  // l degrades from the exact ⟨0,0⟩ to ⟨1,0⟩ — sound, not precise.
  const char *Source = R"(
letrec
  compose f h = lambda(x). f (h x);
  g l f = if (null l) then f (car l)
          else (car l + (g (cdr l) (compose f (lambda(w). w + 1))))
in g [1, 2] (lambda(w). w + 3)
)";
  ASSERT_TRUE(setup(Source, TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("g", 1), BasicEscape::contained(0));
  EXPECT_GT(Analyzer->wideningCount(), 0u);
  EXPECT_FALSE(Analyzer->hitIterationLimit());
}

TEST_F(EscapeAnalyzerTest, WideningIsNeverNeededOnBoundedClosures) {
  // The same compose shape without the recursive rebuild: closures are
  // finitely many, so the budget is never reached and the analysis is
  // exact (g's list parameter feeds only a scalar fold).
  const char *Source = R"(
letrec
  compose f h = lambda(x). f (h x);
  g l f = if (null l) then f 0 else (car l + (g (cdr l) f))
in g [1, 2] (compose (lambda(w). w + 3) (lambda(w). w + 1))
)";
  ASSERT_TRUE(setup(Source, TypeInferenceMode::Monomorphic))
      << FE.diagText();
  EXPECT_EQ(global("g", 1), BasicEscape::none());
  EXPECT_EQ(Analyzer->wideningCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Query mechanics.
//===----------------------------------------------------------------------===//

TEST_F(EscapeAnalyzerTest, ConvergedQueryIsFinalForLaterQueries) {
  // The bounded compose shape never widens: the first query's last round
  // is final, so asking again evaluates nothing.
  const char *Source = R"(
letrec
  compose f h = lambda(x). f (h x);
  g l f = if (null l) then f 0 else (car l + (g (cdr l) f))
in g [1, 2] (compose (lambda(w). w + 3) (lambda(w). w + 1))
)";
  ASSERT_TRUE(setup(Source, TypeInferenceMode::Monomorphic))
      << FE.diagText();
  BasicEscape First = global("g", 1);
  uint64_t Evals = Analyzer->bodyEvalCount();
  EXPECT_GT(Evals, 0u);
  EXPECT_EQ(global("g", 1), First);
  EXPECT_EQ(Analyzer->bodyEvalCount(), Evals);
  EXPECT_EQ(Analyzer->lastRounds(), 1u);
}

TEST_F(EscapeAnalyzerTest, WideningQueryFreezesNothing) {
  // The runaway compose chain widens, and depth widening depends on the
  // path an entry is reached by: nothing is frozen, so the same query
  // asked again evaluates its closure bodies again.
  const char *Source = R"(
letrec
  compose f h = lambda(x). f (h x);
  g l f = if (null l) then f (car l)
          else (car l + (g (cdr l) (compose f (lambda(w). w + 1))))
in g [1, 2] (lambda(w). w + 3)
)";
  ASSERT_TRUE(setup(Source, TypeInferenceMode::Monomorphic))
      << FE.diagText();
  BasicEscape First = global("g", 1);
  unsigned Widenings = Analyzer->wideningCount();
  ASSERT_GT(Widenings, 0u);
  uint64_t Evals = Analyzer->bodyEvalCount();
  EXPECT_EQ(global("g", 1), First);
  EXPECT_GT(Analyzer->bodyEvalCount() - Evals, 0u)
      << "the repeated query re-evaluated nothing";
  EXPECT_GT(Analyzer->wideningCount(), Widenings)
      << "the repeated query did not walk the runaway chain again";
}

TEST_F(EscapeAnalyzerTest, UnknownFunctionNameReturnsNullopt) {
  ASSERT_TRUE(setup("letrec f x = x in f 1")) << FE.diagText();
  EXPECT_FALSE(Analyzer->globalEscape(FE.Ast.intern("nope"), 0).has_value());
  EXPECT_FALSE(Analyzer->globalEscape(FE.Ast.intern("f"), 5).has_value());
}

TEST_F(EscapeAnalyzerTest, NonFunctionBindingSkippedInProgramReport) {
  ASSERT_TRUE(setup("letrec xs = cons 1 nil; f y = y in f xs"))
      << FE.diagText();
  ProgramEscapeReport Report = Analyzer->analyzeProgram();
  EXPECT_EQ(Report.Functions.size(), 1u);
  EXPECT_EQ(Report.Functions[0].Name, FE.Ast.intern("f"));
}

TEST_F(EscapeAnalyzerTest, EvaluateExposesAbstractValues) {
  ASSERT_TRUE(setup(partitionSortSource())) << FE.diagText();
  const auto *Letrec = cast<LetrecExpr>(FE.Root);
  ValueId V = Analyzer->evaluate(Letrec->body());
  // Evaluating the body with no interesting object yields <0,0>.
  EXPECT_EQ(Analyzer->store().ground(V), BasicEscape::none());
}

TEST_F(EscapeAnalyzerTest, ReportRendering) {
  ASSERT_TRUE(setup(partitionSortSource())) << FE.diagText();
  ProgramEscapeReport Report = Analyzer->analyzeProgram();
  std::string Text = renderEscapeReport(FE.Ast, Report);
  EXPECT_NE(Text.find("G(append, 1) = <1,0>"), std::string::npos) << Text;
  EXPECT_NE(Text.find("G(split, 1) = <0,0>"), std::string::npos) << Text;
  EXPECT_NE(Text.find("no part of parameter 1 escapes"), std::string::npos);
}

TEST_F(EscapeAnalyzerTest, ResultsAreDeterministicAcrossAnalyzers) {
  ASSERT_TRUE(setup(partitionSortSource())) << FE.diagText();
  ProgramEscapeReport First = Analyzer->analyzeProgram();
  EscapeAnalyzer Second(FE.Ast, *FE.Typed, FE.Diags);
  ProgramEscapeReport Again = Second.analyzeProgram();
  ASSERT_EQ(First.Functions.size(), Again.Functions.size());
  for (size_t I = 0; I != First.Functions.size(); ++I)
    for (size_t P = 0; P != First.Functions[I].Params.size(); ++P)
      EXPECT_EQ(First.Functions[I].Params[P].Escape,
                Again.Functions[I].Params[P].Escape);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fixpoint iterate tracing (the append^(k) tables of A.1).
//===----------------------------------------------------------------------===//

TEST(FixpointTraceTest, RecordsIteratesAndStabilizes) {
  eal::test::Frontend FE;
  ASSERT_TRUE(FE.parseAndType(eal::test::partitionSortSource()))
      << FE.diagText();
  eal::EscapeAnalyzer Analyzer(FE.Ast, *FE.Typed, FE.Diags);
  Analyzer.enableTracing();
  (void)Analyzer.globalEscape(FE.Ast.intern("append"), 0);
  const auto &Trace = Analyzer.trace();
  ASSERT_FALSE(Trace.empty());
  // The last recorded iterate of every binding must be stable, and the
  // rounds must not exceed the analyzer's count.
  eal::Symbol Append = FE.Ast.intern("append");
  bool SawAppend = false;
  for (auto It = Trace.rbegin(); It != Trace.rend(); ++It)
    if (It->Binding == Append) {
      EXPECT_FALSE(It->Changed) << "last iterate not stable";
      SawAppend = true;
      break;
    }
  EXPECT_TRUE(SawAppend);
  std::string Rendered = Analyzer.renderTrace();
  EXPECT_NE(Rendered.find("append^("), std::string::npos) << Rendered;
}
