//===- ClaimCoverageTest.cpp - the oracle checks what the planner used ------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The escape oracle's claim table and the allocation planner grade call
// arguments by the same rule over the same final program, so every arena
// directive the planner emits rests on a claim the oracle checks: a claim
// at the same (call, argument) promising the same protected prefix. Over
// every shipped example and generated programs, under the default
// configuration, without reuse, and in whole-object mode.
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"

#include "check/Oracle.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace eal;
using namespace eal::test;

namespace {

/// The three configurations each program is planned under.
std::vector<std::pair<std::string, OptimizerConfig>> configs() {
  OptimizerConfig Default;
  OptimizerConfig NoReuse;
  NoReuse.EnableReuse = false;
  OptimizerConfig WholeObject;
  WholeObject.Analysis = EscapeAnalysisMode::WholeObject;
  return {{"default", Default},
          {"--no-reuse", NoReuse},
          {"--whole-object", WholeObject}};
}

/// Plans \p Source under every configuration and checks each directive
/// against the claim table of the same final program.
void expectClaimsCoverPlan(const std::string &Source, PipelineOptions Options,
                           const std::string &Label) {
  Options.RunProgram = false;
  for (const auto &[Name, Config] : configs()) {
    Options.Optimize = Config;
    PipelineResult R = runPipeline(Source, Options);
    ASSERT_TRUE(R.Success) << Label << " [" << Name << "]: "
                           << R.diagnostics();
    check::ClaimTable Claims = check::buildClaimTable(
        *R.Ast, *R.Optimized->Typed, *R.Optimized->FinalAnalyzer);
    for (const ArgArenaDirective &D : R.Optimized->Plan.Directives) {
      const check::CallClaim *Match = nullptr;
      auto It = Claims.ByCall.find(D.CallAppId);
      if (It != Claims.ByCall.end())
        for (const check::CallClaim &C : It->second)
          if (C.ArgIndex == D.ArgIndex)
            Match = &C;
      ASSERT_NE(Match, nullptr)
          << Label << " [" << Name << "]: no claim for argument "
          << (D.ArgIndex + 1) << " of call node " << D.CallAppId;
      EXPECT_EQ(Match->ProtectedSpines, D.ProtectedSpines)
          << Label << " [" << Name << "]: call node " << D.CallAppId
          << ", argument " << (D.ArgIndex + 1);
    }
  }
}

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ClaimCoverage, EveryExampleDirectiveHasItsClaim) {
  size_t Examples = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(
           EAL_SOURCE_DIR "/examples/nml")) {
    if (Entry.path().extension() != ".nml")
      continue;
    std::string Source = slurp(Entry.path());
    PipelineOptions Options;
    // stats.nml documents itself as a prelude program in its header.
    Options.IncludeStdlib = Source.find("--stdlib") != std::string::npos;
    expectClaimsCoverPlan(Source, Options, Entry.path().filename().string());
    ++Examples;
  }
  EXPECT_GT(Examples, 0u);
}

class ClaimCoverageSeeds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClaimCoverageSeeds, GeneratedProgramDirectivesHaveTheirClaims) {
  ProgramGenerator Gen(GetParam());
  GenProgram Prog = Gen.generate(3);
  PipelineOptions Options;
  Options.Mode = TypeInferenceMode::Monomorphic;
  expectClaimsCoverPlan(Prog.Source, Options,
                        "seed " + std::to_string(GetParam()) + ":\n" +
                            Prog.Source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClaimCoverageSeeds, ::testing::Range(1u, 65u));

} // namespace
