//===- ChannelParityTest.cpp - both engines feed one cell channel ---------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The tree-walker and the VM report every cell event through the same
// ExecutionObserver channel (runtime/ExecutionObserver.h). They share the
// heap and execute the same primitives, so a counting observer must see
// identical counts per event kind, base site and storage class on both:
// over every shipped example (plain, speculative, and with a forced
// deopt) and over generated programs. The liveness oracle needs only
// births and touches, so it must produce the same report on either
// engine. Both engines open and free arenas by one protocol, so a
// replayed --record stream counts the same arena events on both, also
// when the run fails: a failed run frees every arena it opened.
//
// Activation begins and ends ride the same channel, and the runtime core
// (runtime/EngineCore.h) is their one source on both engines. The VM
// binds a whole lambda chain at once, reuses a frame on a tail call and
// applies an over-application's remaining arguments from its frame, yet
// it must report exactly the activations the tree-walker reports, in the
// same nesting: a recording observer's log (lambda, direct call site,
// argument count; result) must be identical on both engines, over every
// shipped example under each optimization configuration and over
// generated programs. A run the step budget stops must still end every
// activation it began, with a null result.
//
// The speculative tier's profiling pre-run runs on the engine asked for:
// the tree-walker reports every branch it enters, the VM a guard.spec at
// the top of every branch. Both must count the same entries and
// allocations, so the planned speculations and the merged plan must be
// identical on both engines, over every shipped example under each
// optimization configuration and over generated programs. So must the
// escape oracle's report, alias exemptions included: a closure exposes
// its free variables' values, whatever frames the engine keeps them in.
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"

#include "driver/Pipeline.h"
#include "obs/Timeline.h"
#include "runtime/ValuePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

using namespace eal;
using namespace eal::test;

namespace {

/// Counts channel events by (kind, base site, storage class).
struct EventCounter final : public ExecutionObserver {
  std::map<std::tuple<std::string, uint32_t, int>, uint64_t> Counts;
  uint64_t Births = 0;

  void count(const char *Kind, uint32_t Site, CellClass Class) {
    ++Counts[{Kind, baseSiteId(Site), static_cast<int>(Class)}];
  }
  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override {
    ++Births;
    count("birth", SiteId, Cell->Class);
  }
  void cellTouched(const ConsCell *Cell, uint64_t) override {
    count(Cell->Touched ? "touch" : "first-touch", Cell->SiteId, Cell->Class);
  }
  void cellDied(const ConsCell *Cell, CellDeath How, uint64_t) override {
    count(How == CellDeath::Sweep ? "sweep" : "arena-free", Cell->SiteId,
          Cell->Class);
  }
  void cellReused(const ConsCell *Cell, uint32_t SiteId, uint64_t) override {
    count("reuse", SiteId, Cell->Class);
    count("overwritten", Cell->SiteId, Cell->Class);
  }
  void cellMigrated(const ConsCell *Cell) override {
    count("migrate", Cell->SiteId, Cell->Class);
  }

  /// One "kind site class count" line per key, for readable diffs.
  std::string str() const {
    std::ostringstream OS;
    for (const auto &[Key, N] : Counts)
      OS << std::get<0>(Key) << ' ' << std::get<1>(Key) << ' '
         << std::get<2>(Key) << ' ' << N << '\n';
    return OS.str();
  }
};

/// Runs \p Options on both engines with a counting observer attached and
/// checks that the two saw the same events, and only the measured run's.
/// Returns the tree-walker's counter.
EventCounter expectParity(const std::string &Source, PipelineOptions Options,
                          const std::string &Label) {
  EventCounter Counted[2];
  const ExecutionEngine Engines[2] = {ExecutionEngine::TreeWalker,
                                      ExecutionEngine::Bytecode};
  for (int I = 0; I != 2; ++I) {
    Options.Engine = Engines[I];
    Options.Run.Observer = &Counted[I];
    PipelineResult R = runPipeline(Source, Options);
    EXPECT_TRUE(R.Success) << Label << ":\n" << R.diagnostics();
    EXPECT_EQ(Counted[I].Births, R.Stats.totalCellsAllocated())
        << Label << ": the observer must see the measured run's births only";
  }
  EXPECT_EQ(Counted[0].str(), Counted[1].str())
      << "ENGINES DISAGREE ON THE CELL CHANNEL: " << Label;
  return std::move(Counted[0]);
}

std::vector<std::filesystem::path> exampleFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           EAL_SOURCE_DIR "/examples/nml"))
    if (Entry.path().extension() == ".nml")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ChannelParity, EveryExampleOnBothEngines) {
  auto Files = exampleFiles();
  ASSERT_FALSE(Files.empty());
  uint64_t Kinds[3] = {0, 0, 0}; // reuse, arena-free, migrate keys seen
  for (const auto &Path : Files) {
    std::string Source = slurp(Path);
    for (int Spec = 0; Spec != 3; ++Spec) {
      PipelineOptions Options;
      // stats.nml documents itself as a prelude program in its header.
      Options.IncludeStdlib = Source.find("--stdlib") != std::string::npos;
      Options.Spec.Enable = Spec != 0;
      Options.Spec.Inject.All = Spec == 2;
      EventCounter C =
          expectParity(Source, Options,
                       Path.filename().string() + " spec mode " +
                           std::to_string(Spec));
      for (const auto &[Key, N] : C.Counts) {
        const std::string &Kind = std::get<0>(Key);
        Kinds[0] += Kind == "reuse";
        Kinds[1] += Kind == "arena-free";
        Kinds[2] += Kind == "migrate";
      }
    }
  }
  EXPECT_GT(Kinds[0], 0u) << "no example exercised DCONS";
  EXPECT_GT(Kinds[1], 0u) << "no example freed an arena";
  EXPECT_GT(Kinds[2], 0u) << "no forced deopt migrated a cell";
}

TEST(ChannelParity, LiveOracleAgreesAcrossEnginesOnEveryExample) {
  for (const auto &Path : exampleFiles()) {
    std::string Source = slurp(Path);
    std::string Report[2];
    std::map<uint32_t, uint64_t> LastTouch[2];
    for (int I = 0; I != 2; ++I) {
      PipelineOptions Options;
      Options.IncludeStdlib = Source.find("--stdlib") != std::string::npos;
      Options.Engine =
          I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
      Options.RunLiveOracle = true;
      PipelineResult R = runPipeline(Source, Options);
      ASSERT_TRUE(R.Success) << Path << ": " << R.diagnostics();
      ASSERT_NE(R.LiveOracle, nullptr);
      EXPECT_GT(R.LiveOracle->report().CellsTracked, 0u) << Path;
      Report[I] = R.LiveOracle->report().render(*R.SM);
      LastTouch[I].insert(R.LiveOracle->lastTouchBySite().begin(),
                          R.LiveOracle->lastTouchBySite().end());
    }
    EXPECT_EQ(Report[0], Report[1]) << Path;
    EXPECT_EQ(LastTouch[0], LastTouch[1]) << Path;
  }
}

/// The arena counts of one replayed recording: opens, frees, stack cells
/// freed and region cells freed.
using ArenaCounts = std::array<uint64_t, 4>;

/// Runs \p Options on both engines, each with a --record stream that
/// obs::rec::Timeline replays (as `eal timeline` does), and checks that
/// the two opened and freed the same arenas holding the same cells.
/// \p Succeeds says whether the run ends in a value or in a runtime
/// error. Returns the tree-walker's counts.
ArenaCounts expectArenaParity(const std::string &Source,
                              PipelineOptions Options,
                              const std::string &Label, bool Succeeds = true) {
  ArenaCounts Arenas[2];
  for (int I = 0; I != 2; ++I) {
    Options.Engine =
        I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
    // Named per test: ctest runs the tests of this file in parallel.
    Options.Obs.RecordPath =
        testing::TempDir() +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".rec";
    PipelineResult R = runPipeline(Source, Options);
    EXPECT_EQ(R.Success, Succeeds) << Label << ":\n" << R.diagnostics();
    obs::rec::Timeline T;
    std::string Err;
    EXPECT_TRUE(T.load(Options.Obs.RecordPath, &Err)) << Label << ": " << Err;
    std::remove(Options.Obs.RecordPath.c_str());
    Arenas[I] = {T.ArenaOpens, T.ArenaFrees, T.ArenaStackCellsFreed,
                 T.ArenaRegionCellsFreed};
  }
  EXPECT_EQ(Arenas[0], Arenas[1])
      << "ENGINES DISAGREE ON ARENA EVENTS (opens, frees, stack cells, "
         "region cells): "
      << Label;
  return Arenas[0];
}

TEST(ChannelParity, ArenaEventsAgreeAcrossEnginesOnEveryExample) {
  for (const auto &Path : exampleFiles()) {
    std::string Source = slurp(Path);
    for (int Spec = 0; Spec != 3; ++Spec) {
      PipelineOptions Options;
      Options.IncludeStdlib = Source.find("--stdlib") != std::string::npos;
      Options.Spec.Enable = Spec != 0;
      Options.Spec.Inject.All = Spec == 2;
      expectArenaParity(Source, Options,
                        Path.filename().string() + " spec mode " +
                            std::to_string(Spec));
    }
  }
}

TEST(ChannelParity, DeoptedProgramOpensTheSameArenasOnBothEngines) {
  // After the injected deopt, each later call of keep's speculative
  // directive is disarmed: neither engine may open an arena for it.
  const char *Source =
      "letrec\n"
      "  build n = if n = 0 then nil else cons n (build (n - 1));\n"
      "  suml l = if (null l) then 0 else (car l) + (suml (cdr l));\n"
      "  keep b l = if b then l else cons (suml l) nil;\n"
      "  loop k acc = if k = 0 then acc\n"
      "               else loop (k - 1) (acc + suml (keep false (build 8)))\n"
      "in loop 5 0\n";
  PipelineOptions Options;
  Options.Spec.Enable = true;
  Options.Spec.Inject.All = true;
  expectArenaParity(Source, Options, "deopted keep");
}

TEST(ChannelParity, FailedRunFreesEveryArenaOnBothEngines) {
  // bad's argument arena is open when car nil fails: the same primitive
  // error at the same program point on both engines. A literal list is
  // stack-allocated; build's output is region-allocated.
  auto Failing = [](const char *Arg) {
    return std::string(
               "letrec\n"
               "  build n = if n = 0 then nil else cons n (build (n - 1));\n"
               "  bad l = if null l then car nil else 1 + bad (cdr l)\n"
               "in bad ") +
           Arg + "\n";
  };
  EXPECT_EQ(expectArenaParity(Failing("[1, 2, 3]"), PipelineOptions(),
                              "stack bad", /*Succeeds=*/false),
            (ArenaCounts{1, 1, 3, 0}));
  EXPECT_EQ(expectArenaParity(Failing("(build 3)"), PipelineOptions(),
                              "region bad", /*Succeeds=*/false),
            (ArenaCounts{1, 1, 0, 3}));
}

class ChannelParitySeeds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ChannelParitySeeds, GeneratedProgramOnBothEngines) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  PipelineOptions Options;
  Options.Mode = TypeInferenceMode::Monomorphic;
  expectParity(Prog.Source, Options,
               "seed " + std::to_string(GetParam()) + ":\n" + Prog.Source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelParitySeeds, ::testing::Range(1u, 65u));

/// Logs one line per activation begin and end, checking the bracketing.
struct ActivationLog final : public ExecutionObserver {
  std::vector<std::string> Lines;
  size_t Open = 0;
  size_t Entries = 0;
  size_t NullExits = 0;
  bool Unbalanced = false;

  void activationEntered(const LambdaExpr *Fn, const AppExpr *CallSite,
                         std::span<const RtValue> Args) override {
    ++Open;
    ++Entries;
    Lines.push_back("enter " + std::to_string(Fn->id()) + " site " +
                    (CallSite ? std::to_string(CallSite->id()) : "-") +
                    " args " + std::to_string(Args.size()));
  }
  bool activationExited(const RtValue *Result) override {
    Unbalanced |= Open == 0;
    --Open;
    NullExits += Result == nullptr;
    Lines.push_back("exit " + (Result ? renderValue(*Result, 8) : "null"));
    return true;
  }
};

/// The first line where \p A and \p B differ, with its neighbours.
std::string firstDifference(const ActivationLog &A, const ActivationLog &B) {
  size_t N = std::min(A.Lines.size(), B.Lines.size());
  size_t I = 0;
  while (I != N && A.Lines[I] == B.Lines[I])
    ++I;
  std::ostringstream OS;
  OS << "logs of " << A.Lines.size() << " and " << B.Lines.size()
     << " lines first differ at line " << I << ":\n";
  for (size_t J = I > 3 ? I - 3 : 0; J != std::min(I + 3, N + 1); ++J)
    OS << "  " << (J < A.Lines.size() ? A.Lines[J] : "<end>") << "  |  "
       << (J < B.Lines.size() ? B.Lines[J] : "<end>") << '\n';
  return OS.str();
}

/// Runs \p Options on both engines with a recording observer attached and
/// expects identical, balanced logs. Returns the number of activations.
size_t expectActivationParity(const std::string &Source,
                              PipelineOptions Options,
                              const std::string &Label) {
  ActivationLog Logs[2];
  for (int I = 0; I != 2; ++I) {
    Options.Engine =
        I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
    Options.Run.Observer = &Logs[I];
    PipelineResult R = runPipeline(Source, Options);
    EXPECT_TRUE(R.Success) << Label << ":\n" << R.diagnostics();
    EXPECT_FALSE(Logs[I].Unbalanced) << Label;
    EXPECT_EQ(Logs[I].Open, 0u) << Label;
    EXPECT_EQ(Logs[I].NullExits, 0u) << Label;
  }
  EXPECT_TRUE(Logs[0].Lines == Logs[1].Lines)
      << "ENGINES DISAGREE ON THE ACTIVATION CHANNEL: " << Label << '\n'
      << firstDifference(Logs[0], Logs[1]);
  return Logs[0].Entries;
}

/// Calls \p Check(Source, Options, Label) for every shipped example under
/// each optimization configuration: default, --no-reuse, --whole-object,
/// --no-stack --no-region.
template <typename CheckFn> void forEveryExampleConfig(CheckFn Check) {
  auto Files = exampleFiles();
  ASSERT_FALSE(Files.empty());
  for (int Config = 0; Config != 4; ++Config)
    for (const auto &Path : Files) {
      std::string Source = slurp(Path);
      PipelineOptions Options;
      // stats.nml documents itself as a prelude program in its header.
      Options.IncludeStdlib = Source.find("--stdlib") != std::string::npos;
      Options.Optimize.EnableReuse = Config != 1;
      if (Config == 2)
        Options.Optimize.Analysis = EscapeAnalysisMode::WholeObject;
      Options.Optimize.EnableStack = Options.Optimize.EnableRegion =
          Config != 3;
      Check(Source, Options,
            Path.filename().string() + " config " + std::to_string(Config));
    }
}

TEST(ActivationParity, EveryExampleInEveryConfigOnBothEngines) {
  forEveryExampleConfig([](const std::string &Source,
                           const PipelineOptions &Options,
                           const std::string &Label) {
    EXPECT_GT(expectActivationParity(Source, Options, Label), 0u) << Label;
  });
}

TEST(ActivationParity, TailAndOverApplicationShapes) {
  // Each binding reaches one of the VM's call shapes: twice tail-calls a
  // partially applied closure, over tail-calls pick with two arguments
  // too many (applied to the closure pick returns), viaprim tail-calls a
  // primitive value, viafst applies the closure a primitive returns (not
  // the spine's direct callee), partial tail-calls add with one argument
  // too few, and loop replaces its own frame.
  const char *Source = R"(
letrec
  add a b = a + b;
  twice f x = f (f x);
  pick b = if b then add else add;
  over x = pick true x 2;
  viaprim f = f 1 nil;
  viafst p = fst p 3 4;
  partial x = add x;
  loop n acc = if n = 0 then acc else loop (n - 1) (acc + over n)
in (twice (add 5) 1,
    (loop 3 0, (viaprim cons, (viafst (add, 0), partial 4 5))))
)";
  EXPECT_GT(expectActivationParity(Source, PipelineOptions(), "call shapes"),
            0u);
}

TEST(ActivationParity, StepBudgetEndsEveryOpenActivation) {
  // Stopped deep in a plain recursion and deep in a tail-call loop: the
  // VM holds the loop's activations in one frame, whose ends the runtime
  // core reports when the run ends.
  const char *Sources[] = {
      "letrec down n = if n = 0 then 0 else 1 + down (n - 1) in down 100000",
      "letrec loop n acc = if n = 0 then acc else loop (n - 1) (acc + 1) "
      "in loop 100000 0"};
  for (const char *Source : Sources)
    for (ExecutionEngine E :
         {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
      ActivationLog Log;
      PipelineOptions Options;
      Options.Engine = E;
      Options.Run.MaxSteps = 2000;
      Options.Run.Observer = &Log;
      PipelineResult R = runPipeline(Source, Options);
      EXPECT_FALSE(R.Success) << Source;
      EXPECT_NE(R.diagnostics().find("step budget"), std::string::npos)
          << R.diagnostics();
      EXPECT_GT(Log.Entries, 10u) << Source;
      EXPECT_FALSE(Log.Unbalanced) << Source;
      EXPECT_EQ(Log.Open, 0u) << Source;
      EXPECT_EQ(Log.NullExits, Log.Entries) << Source;
    }
}

class ActivationParitySeeds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ActivationParitySeeds, GeneratedProgramOnBothEngines) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  PipelineOptions Options;
  Options.Mode = TypeInferenceMode::Monomorphic;
  expectActivationParity(Prog.Source, Options,
                         "seed " + std::to_string(GetParam()) + ":\n" +
                             Prog.Source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActivationParitySeeds,
                         ::testing::Range(1u, 257u));

/// One line per speculation (its if and guarded branch ids, the profiled
/// hot and cold entries, its directives) and per merged directive (call,
/// argument, speculation, protected spines, sites by id with their
/// class).
std::string renderSpecPlan(const spec::SpecPlan &Plan) {
  std::ostringstream OS;
  for (const spec::Speculation &S : Plan.Specs) {
    OS << "spec if " << S.IfExprId << " guard " << S.GuardBranchId
       << " hot " << S.HotEntries << " cold " << S.ColdEntries
       << " directives";
    for (uint32_t D : S.DirectiveIndices)
      OS << ' ' << D;
    OS << '\n';
  }
  for (const ArgArenaDirective &D : Plan.Merged.Directives) {
    OS << "directive call " << D.CallAppId << " arg " << D.ArgIndex
       << " spec " << D.SpecIndex << " top " << D.ProtectedSpines
       << " sites";
    std::map<uint32_t, ArenaSiteClass> Sites(D.Sites.begin(), D.Sites.end());
    for (const auto &[Site, Class] : Sites)
      OS << ' ' << Site << (Class == ArenaSiteClass::Stack ? "s" : "r");
    OS << '\n';
  }
  return OS.str();
}

/// Runs \p Options with speculation on both engines and expects the same
/// speculative plan. Returns the number of speculations.
size_t expectSpecPlanParity(const std::string &Source,
                            PipelineOptions Options,
                            const std::string &Label) {
  std::string Plans[2];
  size_t Specs = 0;
  Options.Spec.Enable = true;
  for (int I = 0; I != 2; ++I) {
    Options.Engine =
        I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
    PipelineResult R = runPipeline(Source, Options);
    EXPECT_TRUE(R.Success) << Label << ":\n" << R.diagnostics();
    EXPECT_TRUE(R.SpecPlan) << "the pre-run failed: " << Label;
    if (R.SpecPlan) {
      Plans[I] = renderSpecPlan(*R.SpecPlan);
      Specs = R.SpecPlan->Specs.size();
    }
  }
  EXPECT_EQ(Plans[0], Plans[1])
      << "ENGINES DISAGREE ON THE SPECULATIVE PLAN: " << Label;
  return Specs;
}

TEST(SpecPlanParity, EveryExampleInEveryConfigOnBothEngines) {
  size_t Specs = 0;
  forEveryExampleConfig([&](const std::string &Source,
                            const PipelineOptions &Options,
                            const std::string &Label) {
    Specs += expectSpecPlanParity(Source, Options, Label);
  });
  EXPECT_GT(Specs, 0u) << "no example planned a speculation";
}

TEST(OracleParity, EveryExampleInEveryConfigOnBothEngines) {
  forEveryExampleConfig([](const std::string &Source,
                           PipelineOptions Options,
                           const std::string &Label) {
    std::string Reports[2];
    Options.RunOracle = true;
    for (int I = 0; I != 2; ++I) {
      Options.Engine =
          I ? ExecutionEngine::Bytecode : ExecutionEngine::TreeWalker;
      PipelineResult R = runPipeline(Source, Options);
      ASSERT_TRUE(R.Success && R.Check) << Label << ":\n" << R.diagnostics();
      Reports[I] = R.Check->render(*R.SM);
    }
    EXPECT_EQ(Reports[0], Reports[1])
        << "ORACLE DIFFERS ACROSS ENGINES: " << Label;
  });
}

// A parameter name repeated in one frame, or across a closure's partial
// arguments, binds its innermost occurrence on both engines and in the
// oracle's closure rule, as it does in the scoping rules and the escape
// analysis.
TEST(OracleParity, RepeatedParameterBindsTheInnermostOccurrence) {
  const char *const Mk =
      "letrec mk n = if n = 0 then nil else cons n (mk (n - 1)); ";
  const struct {
    std::string Source;
    const char *Value;
  } Rows[] = {
      {std::string(Mk) + "f x x = x in f (mk 3) (mk 2)", "[2, 1]"},
      {std::string(Mk) + "f x x y = x in let h = f (mk 3) (mk 2) in h 0",
       "[2, 1]"},
      {"let g = lambda(x). lambda(x). x in let h = g 1 in h 2", "2"},
  };
  for (const auto &Row : Rows)
    for (ExecutionEngine Engine :
         {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
      PipelineOptions Options;
      Options.Engine = Engine;
      Options.RunOracle = true;
      Options.Run.ValidateArenaFrees = true;
      PipelineResult R = runPipeline(Row.Source, Options);
      ASSERT_TRUE(R.Success && R.Check) << Row.Source << "\n"
                                        << R.diagnostics();
      EXPECT_EQ(R.RenderedValue, Row.Value) << Row.Source;
      EXPECT_FALSE(R.Check->hasViolations()) << R.Check->render(*R.SM);
    }
}

class SpecPlanParitySeeds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SpecPlanParitySeeds, GeneratedProgramOnBothEngines) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  PipelineOptions Options;
  Options.Mode = TypeInferenceMode::Monomorphic;
  // Any profiled allocation makes a site hot: generated programs are
  // small, and the plans should hold speculations to compare.
  Options.Spec.HotMinAllocs = 1;
  expectSpecPlanParity(Prog.Source, Options,
                       "seed " + std::to_string(GetParam()) + ":\n" +
                           Prog.Source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecPlanParitySeeds,
                         ::testing::Range(1u, 257u));

} // namespace
