//===- CounterParityTest.cpp - engines agree on counters + traces -----------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The two execution engines (tree-walking Interpreter, bytecode Vm)
// share the Heap, the arenas, and the DCONS machinery, so the storage
// counters the paper's experiments are built on must not depend on which
// engine ran the program. These tests pin that down, and check the
// pipeline's Chrome trace end to end: every phase of the run is one
// balanced "B"/"E" pair, GC cycles and arena frees match the run's
// counters, and tracing changes no work the run does.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
    obs::disableMetrics();
    obs::globalMetrics().clear();
  }
};

/// One trace_event object of a written trace: the fields the tests read.
struct ChromeEvent {
  std::string Name, Cat, Ph;
};

/// The string value of \p Key in \p Line, one trace_event object as the
/// writer renders it (one per line; these names need no escapes).
std::string stringField(const std::string &Line, const std::string &Key) {
  size_t At = Line.find("\"" + Key + "\":\"");
  if (At == std::string::npos)
    return "";
  At += Key.size() + 4;
  return Line.substr(At, Line.find('"', At) - At);
}

/// The events of the Chrome trace at \p Path, in file order.
std::vector<ChromeEvent> readTrace(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<ChromeEvent> Events;
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("{", 0) == 0)
      Events.push_back({stringField(Line, "name"), stringField(Line, "cat"),
                        stringField(Line, "ph")});
  return Events;
}

std::string readSource(const char *Example) {
  std::ifstream In(std::string(EAL_SOURCE_DIR) + "/examples/nml/" + Example);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string tracePath(const char *Name) {
  return testing::TempDir() + Name;
}

/// Checks that the phase events of \p Events are balanced "B"/"E" pairs
/// whose "E" order is the phase ledger's order.
void expectPhasesMatchLedger(const std::vector<ChromeEvent> &Events,
                             const PipelineResult &R) {
  std::vector<std::string> Open, Ended;
  for (const ChromeEvent &E : Events) {
    if (E.Cat != "phase")
      continue;
    if (E.Ph == "B") {
      Open.push_back(E.Name);
    } else {
      ASSERT_EQ(E.Ph, "E");
      ASSERT_FALSE(Open.empty()) << "unopened phase " << E.Name;
      EXPECT_EQ(Open.back(), E.Name);
      Open.pop_back();
      Ended.push_back(E.Name);
    }
  }
  EXPECT_TRUE(Open.empty());
  std::vector<std::string> Ledger;
  for (const auto &[Name, Micros] : R.PhaseMicros)
    Ledger.push_back(Name);
  EXPECT_EQ(Ended, Ledger);
}

TEST_F(PipelineTraceTest, TracedRunEmitsAllSevenPhaseSpans) {
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    const std::string Path = tracePath("seven_phases.json");
    PipelineOptions Options = engineOptions(Engine, true);
    Options.Obs.TracePath = Path;
    PipelineResult R = runPipeline(sortProgram(), Options);
    ASSERT_TRUE(R.Success) << R.diagnostics();
    ASSERT_TRUE(R.ObsExportErrors.empty());

    std::vector<ChromeEvent> Events = readTrace(Path);
    expectPhasesMatchLedger(Events, R);
    std::set<std::string> Phases;
    for (const ChromeEvent &E : Events)
      if (E.Cat == "phase")
        Phases.insert(E.Name);
    for (const char *Phase : {"parse", "type-inference", "escape", "sharing",
                              "final-escape", "optimize", "execute"})
      EXPECT_TRUE(Phases.count(Phase)) << "missing phase: " << Phase;
    EXPECT_FALSE(Phases.count("lex"));
  }
}

TEST_F(PipelineTraceTest, GcCyclesArePairsOnePerCollection) {
  // gc_stress churns the collector at the default heap size.
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    const std::string Path = tracePath("gc_pairs.json");
    PipelineOptions Options;
    Options.Engine = Engine;
    Options.Obs.TracePath = Path;
    PipelineResult R = runPipeline(readSource("gc_stress.nml"), Options);
    ASSERT_TRUE(R.Success) << R.diagnostics();
    ASSERT_GT(R.Stats.GcRuns, 0u);

    uint64_t Begins = 0, Ends = 0;
    for (const ChromeEvent &E : readTrace(Path))
      if (E.Cat == "gc") {
        EXPECT_EQ(E.Name, "gc");
        EXPECT_EQ(E.Ph, Begins == Ends ? "B" : "E"); // never nested
        (E.Ph == "B" ? Begins : Ends) += 1;
      }
    EXPECT_EQ(Begins, R.Stats.GcRuns);
    EXPECT_EQ(Ends, R.Stats.GcRuns);
  }
}

TEST_F(PipelineTraceTest, ArenaFreesAreOneInstantEach) {
  // With reuse off, partition_sort's spines go to stack and region
  // arenas instead of DCONS.
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    const std::string Path = tracePath("arena_frees.json");
    PipelineOptions Options;
    Options.Engine = Engine;
    Options.Optimize.EnableReuse = false;
    Options.Obs.TracePath = Path;
    PipelineResult R = runPipeline(readSource("partition_sort.nml"), Options);
    ASSERT_TRUE(R.Success) << R.diagnostics();
    const uint64_t Frees = R.Stats.StackArenaFrees + R.Stats.RegionBulkFrees;
    ASSERT_GT(Frees, 0u);

    uint64_t Instants = 0;
    for (const ChromeEvent &E : readTrace(Path))
      if (E.Name == "arena.free") {
        EXPECT_EQ(E.Ph, "i");
        ++Instants;
      }
    EXPECT_EQ(Instants, Frees);
  }
}

TEST_F(PipelineTraceTest, TracingChangesNoWork) {
  // A trace is written from the events every run emits anyway, so it
  // adds no phase and no analysis work: the same phases run and the
  // escape analyzers evaluate the same bodies with and without it.
  obs::enableMetrics();
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode})
    for (bool Reuse : {true, false}) {
      std::vector<std::string> Phases[2];
      uint64_t BodyEvals[2] = {0, 0};
      for (bool Traced : {false, true}) {
        PipelineOptions Options = engineOptions(Engine, Reuse);
        if (Traced)
          Options.Obs.TracePath = tracePath("no_work.json");
        obs::globalMetrics().clear();
        PipelineResult R = runPipeline(sortProgram(), Options);
        ASSERT_TRUE(R.Success) << R.diagnostics();
        for (const auto &[Name, Micros] : R.PhaseMicros)
          Phases[Traced].push_back(Name);
        BodyEvals[Traced] =
            obs::globalMetrics().counterValue("escape.body_evals");
      }
      const std::string Config = std::string(
          Engine == ExecutionEngine::Bytecode ? "vm" : "tree") +
          (Reuse ? "" : " --no-reuse");
      EXPECT_EQ(Phases[0], Phases[1]) << Config;
      EXPECT_GT(BodyEvals[0], 0u) << Config;
      EXPECT_EQ(BodyEvals[0], BodyEvals[1]) << Config;
    }
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
  // A trace holds its own run alone: once that run has closed the file,
  // a later untraced run writes nothing to it, and creates no file of
  // its own.
  const std::string Path = tracePath("untraced.json");
  std::remove(Path.c_str());
  PipelineOptions Options = engineOptions(ExecutionEngine::TreeWalker, true);
  PipelineResult Untraced = runPipeline(sortProgram(), Options);
  ASSERT_TRUE(Untraced.Success);
  EXPECT_FALSE(std::ifstream(Path).good());

  Options.Obs.TracePath = Path;
  PipelineResult Traced = runPipeline(sortProgram(), Options);
  ASSERT_TRUE(Traced.Success);
  const std::vector<ChromeEvent> Written = readTrace(Path);
  expectPhasesMatchLedger(Written, Traced);

  Options.Obs.TracePath.clear();
  PipelineResult Later = runPipeline(sortProgram(), Options);
  ASSERT_TRUE(Later.Success);
  EXPECT_EQ(readTrace(Path).size(), Written.size());
  // Phase wall times are measured either way.
  std::set<std::string> Ledger;
  for (const auto &[Name, Micros] : Later.PhaseMicros)
    Ledger.insert(Name);
  EXPECT_TRUE(Ledger.count("parse"));
  EXPECT_TRUE(Ledger.count("execute"));
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
