//===- AnalysisWorkGoldenTest.cpp - deterministic analysis work counters ---==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Pins the work the two fixpoint analyses do on every shipped example
// under four optimizer configurations: the escape counters of a plain
// plan-only run (closure-body and binding evaluations, queries, rounds,
// apply-cache entries) and the liveness round and summary counts of an
// `eal live` run. These are deterministic work counters, so any drift
// is a real change in what the fixpoint solver evaluates, never timing
// noise. A change that is meant to alter the work (e.g. skipping
// converged entries) regenerates the golden with
//
//   EAL_UPDATE_GOLDEN=1 ./driver_tests --gtest_filter='AnalysisWorkGolden*'
//
// and reviews the diff like any other source change.
//
// A second test guards the shape of the escape work rather than its
// values: on a chain of F functions, each calling the previous one,
// converged queries leave their entries final, so the work grows
// linearly in F; re-walking the program per query grew it quadratically.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace eal;

namespace {

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

/// A CLI flag set and its effect on the pipeline options.
struct Config {
  const char *Flags;
  void (*Apply)(PipelineOptions &);
};

const Config Configs[] = {
    {"default", [](PipelineOptions &) {}},
    {"--no-reuse",
     [](PipelineOptions &O) { O.Optimize.EnableReuse = false; }},
    {"--whole-object",
     [](PipelineOptions &O) {
       O.Optimize.Analysis = EscapeAnalysisMode::WholeObject;
     }},
    {"--no-stack --no-region",
     [](PipelineOptions &O) {
       O.Optimize.EnableStack = false;
       O.Optimize.EnableRegion = false;
     }},
};

class AnalysisWorkGolden : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::disableMetrics();
    obs::globalMetrics().clear();
  }
};

TEST_F(AnalysisWorkGolden, EveryExampleUnderEveryConfig) {
  std::ostringstream Actual;
  for (const auto &Path : exampleFiles()) {
    std::string Source = slurp(Path);
    // stats.nml documents itself as a prelude program in its header.
    bool Stdlib = Source.find("--stdlib") != std::string::npos;
    for (const Config &C : Configs) {
      std::string Label = Path.filename().string() + " [" + C.Flags + "]";
      PipelineOptions Options;
      Options.IncludeStdlib = Stdlib;
      Options.RunProgram = false;
      C.Apply(Options);

      obs::globalMetrics().clear();
      obs::enableMetrics();
      PipelineResult Plain = runPipeline(Source, Options);
      obs::disableMetrics();
      ASSERT_TRUE(Plain.Success) << Label << ": " << Plain.diagnostics();
      const obs::MetricsRegistry &Reg = obs::globalMetrics();
      Actual << Label
             << ": escape.body_evals=" << Reg.counterValue("escape.body_evals")
             << " escape.queries=" << Reg.counterValue("escape.queries")
             << " escape.fixpoint_rounds="
             << Reg.counterValue("escape.fixpoint_rounds")
             << " escape.apply_cache_entries="
             << Reg.counterValue("escape.apply_cache_entries");

      Options.RunLive = true;
      PipelineResult Live = runPipeline(Source, Options);
      ASSERT_TRUE(Live.Success) << Label << ": " << Live.diagnostics();
      ASSERT_TRUE(Live.Live.has_value()) << Label;
      Actual << " live.rounds=" << Live.Live->Rounds
             << " live.summary_entries=" << Live.Live->SummaryEntries << '\n';
    }
  }

  const std::string Path =
      std::string(EAL_SOURCE_DIR) + "/tests/driver/golden/analysis_work.txt";
  if (std::getenv("EAL_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual.str();
    GTEST_SKIP() << "updated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with EAL_UPDATE_GOLDEN=1 to create)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Actual.str(), Buf.str())
      << "analysis work drifted from " << Path
      << "; if intentional, regenerate with EAL_UPDATE_GOLDEN=1";
}

/// A chain of \p F functions: f0 copies its list, and each fI appends
/// f(I-1)'s copy to a copy of its own. Every fI's escape queries reach
/// f0..f(I-1).
std::string chainSource(unsigned F) {
  std::string Source = "letrec\n"
                       "  append x y = if (null x) then y\n"
                       "               else cons (car x) (append (cdr x) y);\n"
                       "  f0 l = if (null l) then nil\n"
                       "         else cons (car l) (f0 (cdr l));\n";
  for (unsigned I = 1; I != F; ++I) {
    std::string Name = "f" + std::to_string(I);
    std::string Prev = "f" + std::to_string(I - 1);
    Source += "  " + Name + " l = if (null l) then nil\n";
    Source += "     else append (" + Prev + " l) (cons (car l) (" + Name +
              " (cdr l)));\n";
  }
  Source += "  last l = l\n";
  Source += "in f" + std::to_string(F - 1) + " [7]\n";
  return Source;
}

TEST_F(AnalysisWorkGolden, ChainEscapeWorkIsLinearInLength) {
  auto BodyEvals = [](unsigned F) {
    PipelineOptions Options;
    Options.Engine = ExecutionEngine::Bytecode;
    obs::globalMetrics().clear();
    obs::enableMetrics();
    PipelineResult R = runPipeline(chainSource(F), Options);
    obs::disableMetrics();
    EXPECT_TRUE(R.Success) << "F=" << F << ": " << R.diagnostics();
    return obs::globalMetrics().counterValue("escape.body_evals");
  };
  uint64_t At8 = BodyEvals(8);
  uint64_t At16 = BodyEvals(16);
  ASSERT_GT(At8, 0u);
  // From F=8 to F=16 linear work grows about 1.7x, quadratic work 3.3x.
  EXPECT_LE(At16 * 2, At8 * 5) << "F=8: " << At8 << ", F=16: " << At16;
}

} // namespace
