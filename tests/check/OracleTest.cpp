//===- OracleTest.cpp - dynamic escape oracle soundness runs ---------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Every Appendix A case study, under every optimizer configuration, must
// execute with zero refuted claims: the static analysis' "does not
// escape" verdicts hold on the concrete heap. The reverse direction
// (dynamically local cells the analysis could not prove local) is
// counted as imprecision, never as failure.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Metrics.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eal;

namespace {

struct Config {
  const char *Name;
  bool Reuse, Stack, Region;
  EscapeAnalysisMode Analysis = EscapeAnalysisMode::SpineAware;
  TypeInferenceMode Mode = TypeInferenceMode::Polymorphic;
};

const Config Configs[] = {
    {"default", true, true, true},
    {"no-reuse", false, true, true},
    {"gc-only", false, false, false},
    {"whole-object", true, true, true, EscapeAnalysisMode::WholeObject},
    {"mono", true, true, true, EscapeAnalysisMode::SpineAware,
     TypeInferenceMode::Monomorphic},
};

PipelineResult runOracle(const std::string &Source, const Config &C) {
  PipelineOptions Options;
  Options.RunOracle = true;
  Options.Mode = C.Mode;
  Options.Optimize.EnableReuse = C.Reuse;
  Options.Optimize.EnableStack = C.Stack;
  Options.Optimize.EnableRegion = C.Region;
  Options.Optimize.Analysis = C.Analysis;
  return runPipeline(Source, Options);
}

void expectSound(const std::string &Source, const Config &C,
                 const char *Label) {
  PipelineResult R = runOracle(Source, C);
  ASSERT_TRUE(R.Success) << Label << " [" << C.Name << "]: "
                         << R.diagnostics();
  ASSERT_TRUE(R.Check && R.Check->Oracle);
  const check::OracleReport &O = *R.Check->Oracle;
  EXPECT_EQ(O.Violations.size(), 0u)
      << Label << " [" << C.Name << "]: " << R.Check->render(*R.SM);
  EXPECT_GT(O.Activations, 0u);
  EXPECT_GT(O.CellsTracked, 0u);
}

TEST(Oracle, PartitionSortSoundInEveryConfig) {
  for (const Config &C : Configs)
    expectSound(test::partitionSortSource(), C, "partition_sort");
}

TEST(Oracle, MapPairSoundInEveryConfig) {
  for (const Config &C : Configs)
    expectSound(test::mapPairSource(), C, "map_pair");
}

TEST(Oracle, ReverseSoundInEveryConfig) {
  for (const Config &C : Configs)
    expectSound(test::reverseSource(), C, "reverse");
}

TEST(Oracle, PartitionSortChecksClaims) {
  PipelineResult R = runOracle(test::partitionSortSource(), Configs[0]);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  // The analysis promises protected spines at split/append/ps call
  // sites; a run that checked nothing would prove nothing.
  EXPECT_GT(R.Check->Oracle->ClaimsChecked, 0u)
      << R.Check->render(*R.SM);
}

TEST(Oracle, CountsImprecisionNotViolation) {
  // Statically car x escapes (so only the top spine of x is protected);
  // dynamically y is false, the else branch runs, and nothing escapes.
  // The probe level (one past the protected prefix) stays local -> the
  // claim is counted imprecise, and the heap cells that died with their
  // activation land in heap_cells_unescaped.
  const char *Source = "letrec f x y = if y then car x else nil\n"
                       "in f [[1], [2]] false";
  PipelineResult R = runOracle(Source, Configs[0]);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  const check::OracleReport &O = *R.Check->Oracle;
  EXPECT_EQ(O.Violations.size(), 0u) << R.Check->render(*R.SM);
  EXPECT_GT(O.ClaimsChecked, 0u);
  EXPECT_GT(O.ImpreciseClaims, 0u) << R.Check->render(*R.SM);
}

TEST(Oracle, AliasedArgumentRolesAreExemptNotRefuted) {
  // One list routed into BOTH roles of append: its cells legitimately
  // escape through the second role (which the analysis lets escape), so
  // charging them against the first role's protected prefix would be a
  // false refutation. The oracle's per-role exemption must fire — the
  // run stays violation-free and AliasExemptions counts the shared
  // cells it excused.
  const char *Source =
      "letrec\n"
      "  append x y = if (null x) then y\n"
      "               else cons (car x) (append (cdr x) y);\n"
      "  suml l = if (null l) then 0 else (car l) + (suml (cdr l))\n"
      "in let aa = cons 1 (cons 2 (cons 3 nil))\n"
      "   in (suml (append aa aa)) + (suml aa)\n";
  PipelineResult R = runOracle(Source, Configs[0]);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  ASSERT_TRUE(R.Check && R.Check->Oracle);
  const check::OracleReport &O = *R.Check->Oracle;
  EXPECT_EQ(O.Violations.size(), 0u) << R.Check->render(*R.SM);
  EXPECT_GT(O.AliasExemptions, 0u)
      << "the aliased call should exercise the per-role exemption:\n"
      << R.Check->render(*R.SM);
}

TEST(Oracle, DconsVersionsStaySound) {
  // In-place reuse rewrites append into append' (DCONS); the oracle must
  // agree that the rewrite never let a protected spine escape.
  PipelineResult R = runOracle(test::reverseSource(), Configs[0]);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_GT(R.Stats.DconsReuses, 0u)
      << "reverse should exercise DCONS under the default config";
  EXPECT_EQ(R.Check->Oracle->Violations.size(), 0u)
      << R.Check->render(*R.SM);
}

TEST(Oracle, ExportsMetricsCounters) {
  PipelineResult R = runOracle(test::partitionSortSource(), Configs[0]);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  obs::MetricsRegistry Reg;
  R.Check->Oracle->exportTo(Reg);
  EXPECT_TRUE(Reg.hasCounter("check.oracle.claims_checked"));
  EXPECT_TRUE(Reg.hasCounter("check.oracle.violations"));
  EXPECT_TRUE(Reg.hasCounter("check.oracle.imprecise_claims"));
  EXPECT_EQ(Reg.counter("check.oracle.violations").value(), 0u);
  EXPECT_EQ(Reg.counter("check.oracle.claims_checked").value(),
            R.Check->Oracle->ClaimsChecked);
}

TEST(Oracle, ForcesTreeWalkerEngine) {
  // Named for what --oracle once did to the engine flag; the oracle now
  // runs on the VM asked for here (RunsOnRequestedEngine), and must
  // still produce an oracle report and a correct value.
  PipelineOptions Options;
  Options.RunOracle = true;
  Options.Engine = ExecutionEngine::Bytecode;
  PipelineResult R = runPipeline(test::partitionSortSource(), Options);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  EXPECT_EQ(R.RenderedValue, "[1, 2, 3, 4, 5, 7]");
  ASSERT_TRUE(R.Check && R.Check->Oracle);
  EXPECT_GT(R.Check->Oracle->CellsTracked, 0u);
}

TEST(Oracle, RunsOnRequestedEngine) {
  // Both engines report activations through the runtime core, so the
  // oracle runs on the engine asked for and counts exactly what the
  // tree-walker counts.
  PipelineResult R[2];
  for (int I = 0; I != 2; ++I) {
    PipelineOptions Options;
    Options.RunOracle = true;
    Options.Engine =
        I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
    R[I] = runPipeline(test::partitionSortSource(), Options);
    ASSERT_TRUE(R[I].Success) << R[I].diagnostics();
    ASSERT_TRUE(R[I].Check && R[I].Check->Oracle);
  }
  EXPECT_NE(R[1].TheVm, nullptr);
  EXPECT_EQ(R[1].Interp, nullptr);
  EXPECT_EQ(R[1].RenderedValue, R[0].RenderedValue);
  const check::OracleReport &Tree = *R[0].Check->Oracle;
  const check::OracleReport &Vm = *R[1].Check->Oracle;
  EXPECT_GT(Vm.ClaimsChecked, 0u);
  EXPECT_EQ(Vm.Activations, Tree.Activations);
  EXPECT_EQ(Vm.ClaimsChecked, Tree.ClaimsChecked);
  EXPECT_EQ(Vm.CellsTracked, Tree.CellsTracked);
  EXPECT_EQ(Vm.HeapCellsEscaped, Tree.HeapCellsEscaped);
  EXPECT_EQ(Vm.HeapCellsUnescaped, Tree.HeapCellsUnescaped);
  EXPECT_EQ(Vm.ImpreciseClaims, Tree.ImpreciseClaims);
  EXPECT_EQ(Vm.AliasExemptions, Tree.AliasExemptions);
  EXPECT_EQ(Vm.Violations.size(), 0u);
}

} // namespace
