//===- DifferentialTest.cpp - optimizations preserve semantics --------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// For randomly generated programs, every optimization configuration ×
// every execution engine must compute exactly the value the unoptimized
// tree-walker computes, with arena-free validation enabled (so an unsafe
// allocation plan fails the run instead of silently corrupting it). The
// engines share the heap machinery, so their storage counters must also
// agree configuration by configuration. A final run on each engine
// cross-checks the static escape claims against the dynamic oracle, and
// the two oracle reports must agree.
//
// The Seeds instantiation is the fixed tier-1 sweep. The Fuzz
// instantiation reads EAL_FUZZ_SEEDS (default 1): CI's fuzz-smoke step
// widens it without recompiling (tools/ci.sh).
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"

#include "driver/Pipeline.h"
#include "lang/AstPrinter.h"

#include <cstdlib>
#include <gtest/gtest.h>

using namespace eal;
using namespace eal::test;

namespace {

/// The check report of an oracle run. A closure exposes the values of
/// its free variables, whatever frames the engine keeps them in
/// (docs/CHECKING.md), so every counter, alias exemptions included, must
/// agree across engines.
std::string oracleReport(const PipelineResult &R) {
  return R.Check->render(*R.SM);
}

class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, AllConfigsAndEnginesAgreeWithBaseline) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);

  auto Run = [&](bool Reuse, bool Stack, bool Region, ExecutionEngine E) {
    PipelineOptions Options;
    Options.Mode = TypeInferenceMode::Monomorphic;
    Options.Engine = E;
    Options.Optimize.EnableReuse = Reuse;
    Options.Optimize.EnableStack = Stack;
    Options.Optimize.EnableRegion = Region;
    Options.Run.ValidateArenaFrees = true;
    return runPipeline(Prog.Source, Options);
  };

  PipelineResult Base = Run(false, false, false, ExecutionEngine::TreeWalker);
  ASSERT_TRUE(Base.Success) << "baseline failed (seed " << GetParam()
                            << "):\n"
                            << Prog.Source << Base.diagnostics();
  for (bool Reuse : {false, true})
    for (bool Stack : {false, true})
      for (bool Region : {false, true}) {
        PipelineResult Tree =
            Run(Reuse, Stack, Region, ExecutionEngine::TreeWalker);
        ASSERT_TRUE(Tree.Success)
            << "config " << Reuse << Stack << Region << " failed (seed "
            << GetParam() << "):\n"
            << Prog.Source << Tree.diagnostics();
        EXPECT_EQ(Tree.RenderedValue, Base.RenderedValue)
            << "MISCOMPILE by config reuse=" << Reuse << " stack=" << Stack
            << " region=" << Region << " (seed " << GetParam() << "):\n"
            << Prog.Source;

        PipelineResult Byte =
            Run(Reuse, Stack, Region, ExecutionEngine::Bytecode);
        ASSERT_TRUE(Byte.Success)
            << "VM config " << Reuse << Stack << Region << " failed (seed "
            << GetParam() << "):\n"
            << Prog.Source << Byte.diagnostics();
        EXPECT_EQ(Byte.RenderedValue, Base.RenderedValue)
            << "ENGINE DIVERGENCE under config reuse=" << Reuse
            << " stack=" << Stack << " region=" << Region << " (seed "
            << GetParam() << "):\n"
            << Prog.Source;
        // Identical storage behaviour engine-to-engine, per config.
        EXPECT_EQ(Byte.Stats.DconsReuses, Tree.Stats.DconsReuses)
            << Prog.Source;
        EXPECT_EQ(Byte.Stats.StackCellsAllocated,
                  Tree.Stats.StackCellsAllocated)
            << Prog.Source;
        EXPECT_EQ(Byte.Stats.RegionCellsAllocated,
                  Tree.Stats.RegionCellsAllocated)
            << Prog.Source;
      }

  // Dynamic escape oracle over the fully optimized program: every static
  // claim the optimizer acted on must hold on this run, and the VM must
  // report what the tree-walker reports.
  PipelineOptions Oracle;
  Oracle.Mode = TypeInferenceMode::Monomorphic;
  Oracle.Optimize.EnableReuse = true;
  Oracle.Optimize.EnableStack = true;
  Oracle.Optimize.EnableRegion = true;
  Oracle.Run.ValidateArenaFrees = true;
  Oracle.RunOracle = true;
  std::string Reports[2];
  for (int I = 0; I != 2; ++I) {
    Oracle.Engine =
        I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
    PipelineResult Checked = runPipeline(Prog.Source, Oracle);
    ASSERT_TRUE(Checked.Success)
        << "ORACLE REFUTED a claim on the " << (I ? "VM" : "tree-walker")
        << " (seed " << GetParam() << "):\n"
        << Prog.Source << Checked.diagnostics();
    EXPECT_EQ(Checked.RenderedValue, Base.RenderedValue) << Prog.Source;
    Reports[I] = oracleReport(Checked);
  }
  EXPECT_EQ(Reports[1], Reports[0])
      << "ORACLE DIFFERS ACROSS ENGINES (seed " << GetParam() << "):\n"
      << Prog.Source;
}

// The why-provenance recorder is an observer: attaching it must not
// change a single optimization decision. Optimize each generated program
// with and without a recorder and require the final program, the
// allocation plan, and the reuse record to render byte-identically
// (docs/EXPLAIN.md).
TEST_P(DifferentialTest, ProvenanceRecorderIsObservationOnly) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);

  auto Optimize = [&](bool Explain) {
    PipelineOptions Options;
    Options.Mode = TypeInferenceMode::Monomorphic;
    Options.RunProgram = false;
    Options.RunExplain = Explain;
    return runPipeline(Prog.Source, Options);
  };

  PipelineResult Plain = Optimize(false);
  PipelineResult Observed = Optimize(true);
  ASSERT_TRUE(Plain.Success) << Prog.Source << Plain.diagnostics();
  ASSERT_TRUE(Observed.Success) << Prog.Source << Observed.diagnostics();
  ASSERT_TRUE(Plain.Optimized && Observed.Optimized);
  EXPECT_EQ(Plain.Prov, nullptr);
  ASSERT_NE(Observed.Prov, nullptr);

  EXPECT_EQ(printExpr(*Plain.Ast, Plain.Optimized->Root),
            printExpr(*Observed.Ast, Observed.Optimized->Root))
      << "recorder perturbed the optimized program (seed " << GetParam()
      << "):\n"
      << Prog.Source;
  EXPECT_EQ(renderAllocationPlan(*Plain.Ast, Plain.Optimized->Plan),
            renderAllocationPlan(*Observed.Ast, Observed.Optimized->Plan))
      << "recorder perturbed the allocation plan (seed " << GetParam()
      << "):\n"
      << Prog.Source;
  EXPECT_EQ(renderReuseReport(*Plain.Ast, Plain.Optimized->Reuse),
            renderReuseReport(*Observed.Ast, Observed.Optimized->Reuse))
      << "recorder perturbed the reuse transform (seed " << GetParam()
      << "):\n"
      << Prog.Source;
}

// The liveness analysis is an observer too: with its one planner
// consumer (LiveGcPrune) left off, enabling it must not change a single
// byte of output or a single storage counter, on either engine, under
// any optimization configuration. And the dynamic liveness oracle must
// refute none of its dead-site claims on any of these runs, and report
// identically on both engines (docs/LIVENESS.md).
TEST_P(DifferentialTest, LivenessIsObservationOnlyAndClaimsHold) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);

  auto Run = [&](bool Reuse, bool Stack, bool Region, ExecutionEngine E,
                 bool Live, bool Oracle) {
    PipelineOptions Options;
    Options.Mode = TypeInferenceMode::Monomorphic;
    Options.Engine = E;
    Options.Optimize.EnableReuse = Reuse;
    Options.Optimize.EnableStack = Stack;
    Options.Optimize.EnableRegion = Region;
    Options.Run.ValidateArenaFrees = true;
    Options.RunLive = Live;
    Options.RunLiveOracle = Oracle;
    return runPipeline(Prog.Source, Options);
  };

  for (bool Reuse : {false, true})
    for (bool Stack : {false, true})
      for (bool Region : {false, true}) {
        PipelineResult Plain = Run(Reuse, Stack, Region,
                                   ExecutionEngine::TreeWalker, false, false);
        ASSERT_TRUE(Plain.Success)
            << "config " << Reuse << Stack << Region << " failed (seed "
            << GetParam() << "):\n"
            << Prog.Source << Plain.diagnostics();

        PipelineResult Live = Run(Reuse, Stack, Region,
                                  ExecutionEngine::TreeWalker, true, false);
        ASSERT_TRUE(Live.Success) << Prog.Source << Live.diagnostics();
        EXPECT_EQ(Live.RenderedValue, Plain.RenderedValue)
            << "LIVENESS PERTURBED OUTPUT under config reuse=" << Reuse
            << " stack=" << Stack << " region=" << Region << " (seed "
            << GetParam() << "):\n"
            << Prog.Source;
        EXPECT_EQ(Live.Stats.DconsReuses, Plain.Stats.DconsReuses)
            << Prog.Source;
        EXPECT_EQ(Live.Stats.StackCellsAllocated,
                  Plain.Stats.StackCellsAllocated)
            << Prog.Source;
        EXPECT_EQ(Live.Stats.RegionCellsAllocated,
                  Plain.Stats.RegionCellsAllocated)
            << Prog.Source;

        PipelineResult Byte = Run(Reuse, Stack, Region,
                                  ExecutionEngine::Bytecode, true, false);
        ASSERT_TRUE(Byte.Success) << Prog.Source << Byte.diagnostics();
        EXPECT_EQ(Byte.RenderedValue, Plain.RenderedValue)
            << "LIVENESS PERTURBED THE VM under config reuse=" << Reuse
            << " stack=" << Stack << " region=" << Region << " (seed "
            << GetParam() << "):\n"
            << Prog.Source;

        // The liveness oracle's dead-site claims must survive the
        // concrete run under every config, and the VM, which reports the
        // same births and touches, must produce the same report.
        PipelineResult Checked = Run(Reuse, Stack, Region,
                                     ExecutionEngine::TreeWalker, true, true);
        ASSERT_TRUE(Checked.Success) << Prog.Source << Checked.diagnostics();
        ASSERT_NE(Checked.LiveOracle, nullptr);
        EXPECT_TRUE(Checked.LiveOracle->report().Violations.empty())
            << "LIVENESS ORACLE REFUTED a dead-site claim under config reuse="
            << Reuse << " stack=" << Stack << " region=" << Region
            << " (seed " << GetParam() << "):\n"
            << Prog.Source
            << Checked.LiveOracle->report().render(*Checked.SM);
        EXPECT_EQ(Checked.RenderedValue, Plain.RenderedValue) << Prog.Source;

        PipelineResult CheckedVm = Run(Reuse, Stack, Region,
                                       ExecutionEngine::Bytecode, true, true);
        ASSERT_TRUE(CheckedVm.Success)
            << Prog.Source << CheckedVm.diagnostics();
        ASSERT_NE(CheckedVm.LiveOracle, nullptr);
        EXPECT_EQ(CheckedVm.LiveOracle->report().render(*CheckedVm.SM),
                  Checked.LiveOracle->report().render(*Checked.SM))
            << "LIVENESS ORACLE DIFFERS ACROSS ENGINES under config reuse="
            << Reuse << " stack=" << Stack << " region=" << Region
            << " (seed " << GetParam() << "):\n"
            << Prog.Source;
        EXPECT_EQ(CheckedVm.LiveOracle->lastTouchBySite(),
                  Checked.LiveOracle->lastTouchBySite())
            << Prog.Source;
      }
}

// The speculative tier (docs/SPECULATION.md) re-classifies heap sites
// under runtime guards, with a deopt path that migrates speculative
// cells back to the GC heap. None of that may be user-visible: for
// every seed, both engines must produce byte-identical output with
// speculation off, on, and with a forced deopt (every guard injected to
// fail at its first covered arena close), under arena-free validation.
// The user-visible counters -- reuse hits and the total allocation
// volume -- must not move either (storage-class splits legitimately
// shift heap->region; VM instruction counts legitimately grow by the
// guard opcodes). A final forced-deopt run under the dynamic escape
// oracle must refute nothing: migrated cells are real heap cells.
TEST_P(DifferentialTest, SpeculationIsSemanticsPreserving) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);

  enum class SpecMode { Off, On, ForcedDeopt };
  auto Run = [&](ExecutionEngine E, SpecMode Mode, bool Oracle) {
    PipelineOptions Options;
    Options.Mode = TypeInferenceMode::Monomorphic;
    Options.Engine = E;
    Options.Optimize.EnableReuse = true;
    Options.Optimize.EnableStack = true;
    Options.Optimize.EnableRegion = true;
    Options.Run.ValidateArenaFrees = true;
    Options.Spec.Enable = Mode != SpecMode::Off;
    // Any profiled allocation makes a site hot: generated programs are
    // small, and we want speculation to actually fire on this corpus.
    Options.Spec.HotMinAllocs = 1;
    if (Mode == SpecMode::ForcedDeopt)
      Options.Spec.Inject.All = true;
    Options.RunOracle = Oracle;
    return runPipeline(Prog.Source, Options);
  };

  PipelineResult Base = Run(ExecutionEngine::TreeWalker, SpecMode::Off, false);
  ASSERT_TRUE(Base.Success) << "baseline failed (seed " << GetParam()
                            << "):\n"
                            << Prog.Source << Base.diagnostics();

  for (SpecMode Mode :
       {SpecMode::Off, SpecMode::On, SpecMode::ForcedDeopt}) {
    const char *ModeName = Mode == SpecMode::Off     ? "off"
                           : Mode == SpecMode::On    ? "on"
                                                     : "forced-deopt";
    PipelineResult Tree = Run(ExecutionEngine::TreeWalker, Mode, false);
    ASSERT_TRUE(Tree.Success)
        << "spec=" << ModeName << " failed (seed " << GetParam() << "):\n"
        << Prog.Source << Tree.diagnostics();
    EXPECT_EQ(Tree.RenderedValue, Base.RenderedValue)
        << "SPECULATION PERTURBED OUTPUT (spec=" << ModeName << ", seed "
        << GetParam() << "):\n"
        << Prog.Source;
    EXPECT_EQ(Tree.Stats.Steps, Base.Stats.Steps) << Prog.Source;
    EXPECT_EQ(Tree.Stats.Applications, Base.Stats.Applications)
        << Prog.Source;
    EXPECT_EQ(Tree.Stats.DconsReuses, Base.Stats.DconsReuses) << Prog.Source;
    EXPECT_EQ(Tree.Stats.totalCellsAllocated(),
              Base.Stats.totalCellsAllocated())
        << "speculation changed the allocation volume (spec=" << ModeName
        << ", seed " << GetParam() << "):\n"
        << Prog.Source;

    PipelineResult Byte = Run(ExecutionEngine::Bytecode, Mode, false);
    ASSERT_TRUE(Byte.Success)
        << "VM spec=" << ModeName << " failed (seed " << GetParam() << "):\n"
        << Prog.Source << Byte.diagnostics();
    EXPECT_EQ(Byte.RenderedValue, Base.RenderedValue)
        << "ENGINE DIVERGENCE under spec=" << ModeName << " (seed "
        << GetParam() << "):\n"
        << Prog.Source;
    EXPECT_EQ(Byte.Stats.DconsReuses, Tree.Stats.DconsReuses) << Prog.Source;
    EXPECT_EQ(Byte.Stats.StackCellsAllocated, Tree.Stats.StackCellsAllocated)
        << Prog.Source;
    EXPECT_EQ(Byte.Stats.RegionCellsAllocated,
              Tree.Stats.RegionCellsAllocated)
        << Prog.Source;
  }

  // Forced-deopt sweep under the dynamic escape oracle, on each engine:
  // a migrated cell is a heap cell, so even the worst case must refute no
  // static claim, and both engines must report the same.
  std::string Reports[2];
  for (int I = 0; I != 2; ++I) {
    PipelineResult Checked =
        Run(I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker,
            SpecMode::ForcedDeopt, true);
    ASSERT_TRUE(Checked.Success)
        << "ORACLE REFUTED a claim under forced deopt on the "
        << (I ? "VM" : "tree-walker") << " (seed " << GetParam() << "):\n"
        << Prog.Source << Checked.diagnostics();
    EXPECT_EQ(Checked.RenderedValue, Base.RenderedValue) << Prog.Source;
    Reports[I] = oracleReport(Checked);
  }
  EXPECT_EQ(Reports[1], Reports[0])
      << "ORACLE DIFFERS ACROSS ENGINES under forced deopt (seed "
      << GetParam() << "):\n"
      << Prog.Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1u, 257u));

// The generator's aliased-argument family (`append l l`, ProgramGenerator
// IntList case 10) exists to exercise the oracle's per-role exemption:
// without it no generated program ever routed one value into two roles
// of the same call, leaving Oracle.cpp's exemption path untested by the
// fuzz corpus. Pin that coverage: across a small fixed corpus, at least
// one run must exempt shared cells, and no run may be refuted.
TEST(AliasCorpus, GeneratorExercisesOracleAliasExemption) {
  uint64_t Exemptions = 0;
  for (uint32_t Seed = 1; Seed <= 64; ++Seed) {
    ProgramGenerator Gen(Seed);
    GenProgram Prog = Gen.generate(3);
    PipelineOptions Options;
    Options.Mode = TypeInferenceMode::Monomorphic;
    Options.Optimize.EnableReuse = true;
    Options.Optimize.EnableStack = true;
    Options.Optimize.EnableRegion = true;
    Options.Run.ValidateArenaFrees = true;
    Options.RunOracle = true;
    PipelineResult R = runPipeline(Prog.Source, Options);
    ASSERT_TRUE(R.Success) << "seed " << Seed << ":\n"
                           << Prog.Source << R.diagnostics();
    ASSERT_TRUE(R.Check && R.Check->Oracle);
    EXPECT_TRUE(R.Check->Oracle->Violations.empty())
        << "seed " << Seed << ":\n"
        << Prog.Source << R.Check->render(*R.SM);
    Exemptions += R.Check->Oracle->AliasExemptions;
  }
  EXPECT_GT(Exemptions, 0u)
      << "the aliased-argument family never reached the oracle's "
         "per-role exemption";
}

// Extra seeds for CI fuzz-smoke runs: EAL_FUZZ_SEEDS widens the sweep
// without a recompile; the default keeps one fresh seed in tier 1.
unsigned fuzzSeedCount() {
  const char *Env = std::getenv("EAL_FUZZ_SEEDS");
  int N = Env ? std::atoi(Env) : 0;
  return N > 0 ? static_cast<unsigned>(N) : 1u;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialTest,
                         ::testing::Range(900000u,
                                          900000u + fuzzSeedCount()));

} // namespace
