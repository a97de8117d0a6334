//===- CounterParityTest.cpp - engines agree on counters + traces -----------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The two execution engines (tree-walking Interpreter, bytecode Vm)
// share the Heap, the arenas, and the DCONS machinery, so the storage
// counters the paper's experiments are built on must not depend on which
// engine ran the program. These tests pin that down, and check the
// pipeline's trace instrumentation end to end: one run under tracing
// must produce all seven phase spans.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>

using namespace eal;

namespace {

/// Partition sort over a 24-element literal: exercises reuse, stack, and
/// region planning depending on the configuration.
const char *sortProgram() {
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
                           (ps (car (cdr (split (car x) (cdr x) nil nil)))))
in ps [5, 2, 7, 1, 3, 4, 9, 8, 6, 0, 11, 10, 13, 12, 15, 14,
       17, 16, 19, 18, 21, 20, 23, 22]
)";
}

PipelineOptions engineOptions(ExecutionEngine Engine, bool Reuse) {
  PipelineOptions Options;
  Options.Engine = Engine;
  Options.Optimize.EnableReuse = Reuse;
  Options.Run.HeapCapacity = 512; // small enough to force collections
  return Options;
}

/// Runs the program under both engines and asserts that every counter
/// the optimizations are measured by agrees.
void expectParity(bool Reuse) {
  PipelineResult Tree =
      runPipeline(sortProgram(),
                  engineOptions(ExecutionEngine::TreeWalker, Reuse));
  PipelineResult Byte =
      runPipeline(sortProgram(),
                  engineOptions(ExecutionEngine::Bytecode, Reuse));
  ASSERT_TRUE(Tree.Success) << Tree.diagnostics();
  ASSERT_TRUE(Byte.Success) << Byte.diagnostics();
  EXPECT_EQ(Tree.RenderedValue, Byte.RenderedValue);

  // Allocation, reuse, and arena reclamation are plan-driven and must be
  // engine-independent. (GC timing/mark work may differ: the engines
  // have different root sets.)
  EXPECT_EQ(Tree.Stats.HeapCellsAllocated, Byte.Stats.HeapCellsAllocated);
  EXPECT_EQ(Tree.Stats.StackCellsAllocated, Byte.Stats.StackCellsAllocated);
  EXPECT_EQ(Tree.Stats.RegionCellsAllocated,
            Byte.Stats.RegionCellsAllocated);
  EXPECT_EQ(Tree.Stats.totalCellsAllocated(),
            Byte.Stats.totalCellsAllocated());
  EXPECT_EQ(Tree.Stats.DconsReuses, Byte.Stats.DconsReuses);
  EXPECT_EQ(Tree.Stats.StackArenaFrees, Byte.Stats.StackArenaFrees);
  EXPECT_EQ(Tree.Stats.StackCellsFreed, Byte.Stats.StackCellsFreed);
  EXPECT_EQ(Tree.Stats.RegionBulkFrees, Byte.Stats.RegionBulkFrees);
  EXPECT_EQ(Tree.Stats.RegionCellsFreed, Byte.Stats.RegionCellsFreed);
}

TEST(CounterParityTest, EnginesAgreeWithReuse) { expectParity(true); }

TEST(CounterParityTest, EnginesAgreeWithoutReuse) { expectParity(false); }

/// bad's argument arena is open when car nil fails, at the same program
/// point on both engines; \p Arg is stack-allocated (a literal) or
/// region-allocated (build's output).
std::string failingProgram(const char *Arg) {
  return std::string(
             "letrec\n"
             "  build n = if n = 0 then nil else cons n (build (n - 1));\n"
             "  bad l = if null l then car nil else 1 + bad (cdr l)\n"
             "in bad ") +
         Arg + "\n";
}

TEST(CounterParityTest, FailedRunsFreeTheSameArenas) {
  for (const char *Arg : {"[1, 2, 3]", "(build 3)"}) {
    PipelineResult Tree = runPipeline(
        failingProgram(Arg), engineOptions(ExecutionEngine::TreeWalker, true));
    PipelineResult Byte = runPipeline(
        failingProgram(Arg), engineOptions(ExecutionEngine::Bytecode, true));
    EXPECT_FALSE(Tree.Success);
    EXPECT_FALSE(Byte.Success);
    EXPECT_EQ(Tree.Stats.StackArenaFrees + Tree.Stats.RegionBulkFrees, 1u)
        << Arg;
    EXPECT_EQ(Tree.Stats.StackCellsFreed + Tree.Stats.RegionCellsFreed, 3u)
        << Arg;
    EXPECT_EQ(Tree.Stats.StackArenaFrees, Byte.Stats.StackArenaFrees) << Arg;
    EXPECT_EQ(Tree.Stats.StackCellsFreed, Byte.Stats.StackCellsFreed) << Arg;
    EXPECT_EQ(Tree.Stats.RegionBulkFrees, Byte.Stats.RegionBulkFrees) << Arg;
    EXPECT_EQ(Tree.Stats.RegionCellsFreed, Byte.Stats.RegionCellsFreed)
        << Arg;
  }
}

TEST(CounterParityTest, RenderedCountersMatch) {
  PipelineResult Tree = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
  PipelineResult Byte = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::Bytecode, true));
  ASSERT_TRUE(Tree.Success && Byte.Success);
  // The human-readable renders agree line for line on everything that is
  // engine-independent; compare the allocation block (it precedes the
  // GC block in forEachField order).
  std::string TreeStr = Tree.Stats.str();
  std::string ByteStr = Byte.Stats.str();
  std::string Key = "total cells allocated";
  ASSERT_NE(TreeStr.find(Key), std::string::npos);
  EXPECT_EQ(TreeStr.substr(0, TreeStr.find("gc runs")),
            ByteStr.substr(0, ByteStr.find("gc runs")));
}

//===----------------------------------------------------------------------===//
// Pipeline trace integration
//===----------------------------------------------------------------------===//

class PipelineTraceTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::disableTracing();
    obs::disableMetrics();
    obs::clearTrace();
    obs::globalMetrics().clear();
  }
};

TEST_F(PipelineTraceTest, TracedRunEmitsAllSevenPhaseSpans) {
  obs::enableTracing();
  PipelineResult R = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
  ASSERT_TRUE(R.Success) << R.diagnostics();

  std::set<std::string> SpanNames;
  for (const obs::TraceEvent &E : obs::snapshot())
    if (E.Phase == 'X')
      SpanNames.insert(E.Name);
  for (const char *Phase : {"lex", "parse", "type-inference", "escape",
                            "sharing", "optimize", "execute"})
    EXPECT_TRUE(SpanNames.count(Phase)) << "missing phase span: " << Phase;

  // The wall-clock ledger saw the same phases (escape/sharing nest
  // inside optimize; lex exists because tracing was on).
  std::set<std::string> Ledger;
  for (const auto &[Name, Micros] : R.PhaseMicros)
    Ledger.insert(Name);
  for (const char *Phase : {"lex", "parse", "type-inference", "escape",
                            "sharing", "optimize", "final-escape", "execute"})
    EXPECT_TRUE(Ledger.count(Phase)) << "missing phase time: " << Phase;
}

TEST_F(PipelineTraceTest, OptimizeSubphasesCoverOptimize) {
  // Every layer inside "optimize" has its own timer, so together they
  // account for nearly all of it. Best of three runs: a preemption that
  // lands between two timers is noise, not an untimed layer.
  double Best = 0;
  for (int Run = 0; Run != 3; ++Run) {
    PipelineResult R = runPipeline(
        sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
    ASSERT_TRUE(R.Success) << R.diagnostics();
    int64_t Optimize = 0, Subphases = 0;
    for (const auto &[Name, Micros] : R.PhaseMicros) {
      if (Name == "optimize")
        Optimize = Micros;
      else if (Name == "escape" || Name == "sharing" || Name == "retype" ||
               Name == "final-escape" || Name == "plan")
        Subphases += Micros;
    }
    ASSERT_GT(Optimize, 0);
    Best = std::max(Best, static_cast<double>(Subphases) /
                              static_cast<double>(Optimize));
  }
  EXPECT_GE(Best, 0.9);
}

TEST_F(PipelineTraceTest, ExecuteSubphasesCoverExecute) {
  // "execute" is compile (VM only) + heap-init + run, each with its own
  // timer, on both engines. Best of three runs, as above.
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    double Best = 0;
    for (int Run = 0; Run != 3; ++Run) {
      PipelineResult R = runPipeline(sortProgram(), engineOptions(Engine, true));
      ASSERT_TRUE(R.Success) << R.diagnostics();
      int64_t Execute = 0, Subphases = 0;
      for (const auto &[Name, Micros] : R.PhaseMicros) {
        if (Name == "execute")
          Execute = Micros;
        else if (Name == "compile" || Name == "heap-init" || Name == "run")
          Subphases += Micros;
      }
      ASSERT_GT(Execute, 0);
      Best = std::max(Best, static_cast<double>(Subphases) /
                                static_cast<double>(Execute));
    }
    EXPECT_GE(Best, 0.9) << (Engine == ExecutionEngine::Bytecode ? "vm"
                                                                 : "tree");
  }
}

TEST_F(PipelineTraceTest, TopLevelPhasesCoverRunPipeline) {
  // The top-level phases account for the wall time of the whole
  // runPipeline call, on both engines. Nested entries (the layers inside
  // "optimize", and compile/heap-init/run inside "execute") are skipped:
  // their parents already count them. Best of three runs, as above.
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    double Best = 0;
    for (int Run = 0; Run != 3; ++Run) {
      auto Start = std::chrono::steady_clock::now();
      PipelineResult R =
          runPipeline(sortProgram(), engineOptions(Engine, true));
      auto Wall = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      ASSERT_TRUE(R.Success) << R.diagnostics();
      int64_t TopLevel = 0;
      for (const auto &[Name, Micros] : R.PhaseMicros)
        if (Name != "escape" && Name != "sharing" && Name != "retype" &&
            Name != "final-escape" && Name != "plan" && Name != "compile" &&
            Name != "heap-init" && Name != "run")
          TopLevel += Micros;
      ASSERT_GT(Wall, 0);
      Best = std::max(Best, static_cast<double>(TopLevel) /
                                static_cast<double>(Wall));
    }
    EXPECT_GE(Best, 0.95) << (Engine == ExecutionEngine::Bytecode ? "vm"
                                                                  : "tree");
  }
}

TEST_F(PipelineTraceTest, UntracedRunRecordsNothing) {
  PipelineResult R = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(obs::eventCount(), 0u);
  // Phase wall times are still measured (no "lex": that pre-pass only
  // runs under tracing).
  std::set<std::string> Ledger;
  for (const auto &[Name, Micros] : R.PhaseMicros)
    Ledger.insert(Name);
  EXPECT_TRUE(Ledger.count("parse"));
  EXPECT_TRUE(Ledger.count("execute"));
  EXPECT_FALSE(Ledger.count("lex"));
}

TEST_F(PipelineTraceTest, MetricsRunExportsRuntimeCounters) {
  obs::enableMetrics();
  PipelineResult R = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
  ASSERT_TRUE(R.Success);
  obs::MetricsRegistry &Reg = obs::globalMetrics();
  EXPECT_EQ(Reg.counterValue("runtime.heap_cells_allocated"),
            R.Stats.HeapCellsAllocated);
  EXPECT_EQ(Reg.counterValue("runtime.dcons_reuses"), R.Stats.DconsReuses);
  EXPECT_TRUE(Reg.hasCounter("phase.parse.micros"));
  EXPECT_TRUE(Reg.hasCounter("escape.queries"));
}

TEST_F(PipelineTraceTest, MetricsRunExportsEscapeBodyEvals) {
  // escape.body_evals sums every analyzer of the run (base and final,
  // planner queries included), so it covers the final analyzer's count.
  obs::enableMetrics();
  PipelineResult R = runPipeline(
      sortProgram(), engineOptions(ExecutionEngine::TreeWalker, true));
  ASSERT_TRUE(R.Success);
  uint64_t Final = R.Optimized->FinalAnalyzer->bodyEvalCount();
  EXPECT_GT(Final, 0u);
  EXPECT_GT(obs::globalMetrics().counterValue("escape.body_evals"), Final);
}

} // namespace
