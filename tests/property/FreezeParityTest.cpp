//===- FreezeParityTest.cpp - final fixpoint entries change no decision ----==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// A converged escape query freezes the entries of its last round, so
// later queries read them without evaluating them again (docs/INTERNALS.md
// §3). The escape analyzers never freeze while a provenance recorder is
// attached, so optimizing with OptimizerConfig::Explain set is the
// unfrozen reference: both escape tables and every plan directive must be
// identical with and without it, over every shipped example under each
// optimization configuration and over generated programs.
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"
#include "TestUtil.h"

#include "driver/Stdlib.h"
#include "opt/Optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace eal;
using namespace eal::test;

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

/// The default, --no-reuse, --whole-object and --no-stack --no-region
/// optimizer configurations.
OptimizerConfig config(int Index, TypeInferenceMode Mode) {
  OptimizerConfig C;
  C.Mode = Mode;
  C.EnableReuse = Index != 1;
  if (Index == 2)
    C.Analysis = EscapeAnalysisMode::WholeObject;
  C.EnableStack = C.EnableRegion = Index != 3;
  return C;
}

/// What one optimizer run decided, and the final analyzer's work.
struct Decisions {
  std::string Text;
  uint64_t FinalEvals = 0;
};

/// Optimizes \p Source under \p Config, with a provenance recorder
/// attached when \p Explain, and renders the base and final escape tables
/// and the plan's directives (sites sorted by id).
Decisions optimize(const std::string &Source, OptimizerConfig Config,
                   bool Explain) {
  Decisions D;
  Frontend FE;
  if (!FE.parseAndType(Source, Config.Mode)) {
    ADD_FAILURE() << FE.diagText();
    return D;
  }
  explain::ProvenanceRecorder Prov;
  if (Explain)
    Config.Explain = &Prov;
  std::optional<OptimizedProgram> Out =
      optimizeProgram(FE.Ast, FE.Types, *FE.Typed, FE.Diags, Config);
  if (!Out) {
    ADD_FAILURE() << FE.diagText();
    return D;
  }
  std::ostringstream OS;
  OS << "base escape:\n"
     << renderEscapeReport(FE.Ast, Out->BaseEscape) << "final escape:\n"
     << renderEscapeReport(FE.Ast, Out->FinalEscape) << "plan:\n";
  for (const ArgArenaDirective &Dir : Out->Plan.Directives) {
    OS << "call " << Dir.CallAppId << " arg " << Dir.ArgIndex << " callee "
       << FE.Ast.spelling(Dir.Callee) << " top " << Dir.ProtectedSpines
       << " sites";
    std::map<uint32_t, ArenaSiteClass> Sites(Dir.Sites.begin(),
                                             Dir.Sites.end());
    for (const auto &[Site, Class] : Sites)
      OS << ' ' << Site << (Class == ArenaSiteClass::Stack ? "s" : "r");
    OS << '\n';
  }
  D.Text = OS.str();
  D.FinalEvals = Out->FinalAnalyzer->bodyEvalCount();
  return D;
}

/// Expects equal decisions with and without freezing; returns the final
/// analyzer's evaluations {frozen, unfrozen}.
std::pair<uint64_t, uint64_t> expectParity(const std::string &Source,
                                           const OptimizerConfig &Config,
                                           const std::string &Label) {
  Decisions Frozen = optimize(Source, Config, /*Explain=*/false);
  Decisions Unfrozen = optimize(Source, Config, /*Explain=*/true);
  EXPECT_FALSE(Frozen.Text.empty()) << Label;
  EXPECT_EQ(Frozen.Text, Unfrozen.Text)
      << "FROZEN ENTRIES CHANGED A DECISION: " << Label;
  return {Frozen.FinalEvals, Unfrozen.FinalEvals};
}

TEST(FreezeParity, EveryExampleInEveryConfig) {
  auto Files = exampleFiles();
  ASSERT_FALSE(Files.empty());
  uint64_t FrozenEvals = 0, UnfrozenEvals = 0;
  for (const auto &Path : Files) {
    std::string Source = slurp(Path);
    // stats.nml documents itself as a prelude program in its header.
    if (Source.find("--stdlib") != std::string::npos)
      Source = withStdlib(Source);
    for (int C = 0; C != 4; ++C) {
      auto [Frozen, Unfrozen] = expectParity(
          Source, config(C, TypeInferenceMode::Polymorphic),
          Path.filename().string() + " config " + std::to_string(C));
      FrozenEvals += Frozen;
      UnfrozenEvals += Unfrozen;
    }
  }
  // The comparison means something only if freezing saved work.
  EXPECT_LT(FrozenEvals, UnfrozenEvals);
}

// Shapes neither the examples nor the generator produce: mutual
// recursion, whose first round reads the cycle at ⊥ so that a later
// round raises it, and a function argument rebuilt at every recursive
// call, whose queries widen.
TEST(FreezeParity, RisingAndWideningShapesInEveryConfig) {
  const char *const Sources[] = {
      R"(
letrec
  evens l = if (null l) then nil else cons (car l) (odds (cdr l));
  odds l = if (null l) then nil else evens (cdr l)
in evens [1, 2, 3, 4]
)",
      R"(
letrec
  compose f h = lambda(x). f (h x);
  g l f = if (null l) then f (car l)
          else (car l + (g (cdr l) (compose f (lambda(w). w + 1))))
in g [1, 2] (lambda(w). w + 3)
)"};
  for (const char *Source : Sources)
    for (int C = 0; C != 4; ++C)
      expectParity(Source, config(C, TypeInferenceMode::Monomorphic),
                   "config " + std::to_string(C) + ":\n" + Source);
}

class FreezeParitySeeds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FreezeParitySeeds, GeneratedProgramInEveryConfig) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  for (int C = 0; C != 4; ++C)
    expectParity(Prog.Source, config(C, TypeInferenceMode::Monomorphic),
                 "seed " + std::to_string(GetParam()) + " config " +
                     std::to_string(C) + ":\n" + Prog.Source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreezeParitySeeds,
                         ::testing::Range(1u, 257u));

} // namespace
