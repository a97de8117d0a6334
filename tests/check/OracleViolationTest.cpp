//===- OracleViolationTest.cpp - the oracle must actually fire -------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// A soundness oracle that never fires proves nothing. This test plants a
// claim the analysis would never make -- "append's second argument does
// not escape" (it does: it becomes the result's tail) -- via the
// test-only injectClaim hook and demands the run abort with a violation,
// on each engine.
//
//===----------------------------------------------------------------------===//

#include "check/Oracle.h"
#include "lang/AstUtils.h"
#include "opt/Optimizer.h"
#include "runtime/Interpreter.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eal;

namespace {

const char *AppendProgram = "letrec\n"
                            "  append x y = if (null x) then y\n"
                            "               else cons (car x) (append (cdr x) y)\n"
                            "in append [1, 2] [8, 9]";

struct OracleRun {
  test::Frontend F;
  std::optional<OptimizedProgram> Opt;
  std::unique_ptr<check::EscapeOracle> Oracle;
  std::unique_ptr<Interpreter> Interp;
  std::optional<Chunk> Code;
  std::unique_ptr<Vm> TheVm;
  std::optional<RtValue> Value;
};

/// Optimizes AppendProgram, plants a claim on argument \p ArgIndex of its
/// append call, and runs it under the oracle on the VM when \p OnVm.
void runWithPlantedClaim(OracleRun &R, unsigned ArgIndex, bool OnVm) {
  ASSERT_TRUE(R.F.parseAndType(AppendProgram)) << R.F.diagText();
  // Reuse stays off: a DCONS-rewritten append deliberately consumes its
  // first argument, which would make even the "true" claim false.
  OptimizerConfig Opt;
  Opt.EnableReuse = false;
  R.Opt = optimizeProgram(R.F.Ast, R.F.Types, *R.F.Typed, R.F.Diags, Opt);
  ASSERT_TRUE(R.Opt.has_value()) << R.F.diagText();

  check::ClaimTable Table = check::buildClaimTable(
      R.F.Ast, *R.Opt->Typed, *R.Opt->FinalAnalyzer);
  R.Oracle = std::make_unique<check::EscapeOracle>(R.F.Ast, std::move(Table));

  // The outermost application of the letrec body is the append call.
  const auto *Letrec = dyn_cast<LetrecExpr>(R.Opt->Root);
  ASSERT_NE(Letrec, nullptr);
  const Expr *Call = Letrec->body();
  std::vector<const Expr *> Args;
  uncurryCall(Call, Args);
  ASSERT_EQ(Args.size(), 2u);

  check::CallClaim Planted;
  Planted.CallAppId = Call->id();
  Planted.ArgIndex = ArgIndex;
  Planted.ProtectedSpines = 1;
  Planted.ParamSpines = 1;
  Planted.Callee = R.F.Ast.intern("append");
  Planted.CalleeLambda = nullptr; // match whichever closure answers
  Planted.CallLoc = Call->loc();
  R.Oracle->injectClaim(Planted);

  Interpreter::Options RO;
  RO.ValidateArenaFrees = true;
  RO.Observer = R.Oracle.get();
  if (OnVm) {
    R.Code = compileToBytecode(R.F.Ast, R.Opt->Root, &R.Opt->Plan, R.F.Diags);
    ASSERT_TRUE(R.Code.has_value()) << R.F.diagText();
    R.TheVm = std::make_unique<Vm>(*R.Code, R.F.Diags, RO);
    R.Value = R.TheVm->run();
  } else {
    R.Interp = std::make_unique<Interpreter>(R.F.Ast, *R.Opt->Typed,
                                             &R.Opt->Plan, R.F.Diags, RO);
    R.Value = R.Interp->runOnLargeStack();
  }
  R.Oracle->finalize(R.Value ? &*R.Value : nullptr);
}

TEST(OracleViolation, PlantedFalseClaimAbortsTheRun) {
  for (bool OnVm : {false, true}) {
    SCOPED_TRACE(OnVm ? "vm" : "tree-walker");
    OracleRun R;
    // Argument 2 (index 1) escapes: append returns it as the result tail.
    runWithPlantedClaim(R, 1, OnVm);
    EXPECT_FALSE(R.Value.has_value())
        << "a refuted claim must abort execution";
    EXPECT_TRUE(R.F.Diags.hasErrors());
    EXPECT_NE(R.F.diagText().find("escape oracle"), std::string::npos)
        << R.F.diagText();

    const check::OracleReport &O = R.Oracle->report();
    ASSERT_GE(O.Violations.size(), 1u);
    const check::OracleViolation &V = O.Violations.front();
    EXPECT_EQ(V.Kind, "injected-claim");
    EXPECT_EQ(V.Function, "append");
    EXPECT_EQ(V.ArgIndex, 1u);
    EXPECT_EQ(V.SpineLevel, 1u);
    EXPECT_TRUE(V.AllocLoc.isValid())
        << "the violation must name the allocation site";
  }
}

TEST(OracleViolation, TrueClaimOnSameCallPasses) {
  for (bool OnVm : {false, true}) {
    SCOPED_TRACE(OnVm ? "vm" : "tree-walker");
    OracleRun R;
    // Argument 1 (index 0) genuinely does not escape append: the same
    // planted-claim machinery must stay quiet, isolating the detection to
    // the false claim rather than the injection path.
    runWithPlantedClaim(R, 0, OnVm);
    ASSERT_TRUE(R.Value.has_value()) << R.F.diagText();
    EXPECT_EQ(R.Oracle->report().Violations.size(), 0u);
    EXPECT_FALSE(R.F.Diags.hasErrors()) << R.F.diagText();
  }
}

} // namespace
