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
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"

#include "driver/Pipeline.h"
#include "obs/Timeline.h"

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

} // namespace
