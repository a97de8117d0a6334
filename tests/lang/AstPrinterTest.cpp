//===- AstPrinterTest.cpp - printer canonicalization matrix ------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Parameterized source → canonical-form pairs: the printer must emit
// minimal parentheses while staying re-parsable, across the whole
// precedence ladder.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace eal;
using namespace eal::test;

namespace {

struct CanonCase {
  const char *Source;
  const char *Canonical;
};

// Without a printer gtest names each case by the raw bytes of its two
// pointers, which differ from run to run; print the texts instead.
void PrintTo(const CanonCase &C, std::ostream *OS) {
  *OS << C.Source << " -> " << C.Canonical;
}

class PrinterCanonTest : public ::testing::TestWithParam<CanonCase> {};

TEST_P(PrinterCanonTest, PrintsCanonicalForm) {
  Frontend FE;
  const Expr *Root = FE.parse(GetParam().Source);
  ASSERT_NE(Root, nullptr) << GetParam().Source << "\n" << FE.diagText();
  PrintOptions PO;
  PO.Multiline = false;
  EXPECT_EQ(printExpr(FE.Ast, Root, PO), GetParam().Canonical)
      << "for source: " << GetParam().Source;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PrinterCanonTest,
    ::testing::Values(
        // Arithmetic associativity and precedence.
        CanonCase{"((1 + 2) + 3)", "1 + 2 + 3"},
        CanonCase{"1 + (2 + 3)", "1 + (2 + 3)"},
        CanonCase{"(1 * 2) + 3", "1 * 2 + 3"},
        CanonCase{"1 * (2 + 3)", "1 * (2 + 3)"},
        CanonCase{"((1 - 2) * 3) div 4 mod 5", "(1 - 2) * 3 div 4 mod 5"},
        // Relational below cons below additive.
        CanonCase{"(1 + 2) < (3 * 4)", "1 + 2 < 3 * 4"},
        CanonCase{"1 :: (2 :: nil)", "[1, 2]"},
        CanonCase{"1 :: 2 :: x", "1 :: 2 :: x"},
        CanonCase{"(1 :: x) = y", "1 :: x = y"},
        // Application is tightest; arguments parenthesize compounds.
        CanonCase{"f (g x) y", "f (g x) y"},
        CanonCase{"f (x + 1)", "f (x + 1)"},
        CanonCase{"(f x) + 1", "f x + 1"},
        CanonCase{"f (lambda(v). v)", "f (lambda(v). v)"},
        // Expression-level forms as operands.
        CanonCase{"(if c then 1 else 2) + 3", "(if c then 1 else 2) + 3"},
        CanonCase{"if c then 1 else 2 + 3", "if c then 1 else 2 + 3"},
        CanonCase{"(let x = 1 in x) + 2", "(let x = 1 in x) + 2"},
        // Lists and pairs.
        CanonCase{"[1, 1 + 2, f x]", "[1, 1 + 2, f x]"},
        CanonCase{"[[1], []]", "[[1], nil]"},
        CanonCase{"(1, 2 + 3)", "(1, 2 + 3)"},
        CanonCase{"fst (1, (2, 3))", "fst (1, (2, 3))"},
        // Named primitives stay names; cons with non-nil tail is '::'.
        CanonCase{"cons x y", "x :: y"},
        CanonCase{"car (cdr l)", "car (cdr l)"},
        CanonCase{"dcons x 1 nil", "dcons x 1 nil"}));

TEST(PrinterTest, MultilineLetrecLayout) {
  Frontend FE;
  const Expr *Root =
      FE.parse("letrec f x = x; g y = f y in g 1");
  ASSERT_NE(Root, nullptr);
  std::string Text = printExpr(FE.Ast, Root);
  EXPECT_NE(Text.find("letrec\n  f x = x;\n  g y = f y\nin g 1"),
            std::string::npos)
      << Text;
}

TEST(PrinterTest, OperatorPrimValueIsEtaExpanded) {
  // A bare operator primitive has no surface form; the printer emits a
  // re-parsable eta expansion.
  Frontend FE;
  const Expr *Root = FE.parse("(lambda(f). f 1 2) (lambda(a b). a + b)");
  ASSERT_NE(Root, nullptr);
  // Build a bare '+' value through the AST API instead.
  const Expr *Plus =
      FE.Ast.createPrim(SourceRange(), PrimOp::Add);
  PrintOptions PO;
  PO.Multiline = false;
  std::string Text = printExpr(FE.Ast, Plus, PO);
  EXPECT_EQ(Text, "(lambda(opa opb). opa + opb)");
  Frontend FE2;
  EXPECT_NE(FE2.parse(Text), nullptr) << FE2.diagText();
}

} // namespace
