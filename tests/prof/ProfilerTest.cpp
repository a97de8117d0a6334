//===- ProfilerTest.cpp ---------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// eal::prof: the StackTree cursor semantics, the site counters, and —
// end to end through the pipeline on both engines — that the profiler's
// per-site sums reconcile exactly with RuntimeStats and that every
// planned stack/region/reuse site actually fires with its planned
// storage class.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "lang/AstUtils.h"
#include "prof/ProfileReport.h"
#include "prof/Profiler.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

using namespace eal;

namespace {

//===----------------------------------------------------------------------===//
// StackTree
//===----------------------------------------------------------------------===//

std::string key(uint32_t K) {
  // Built with += rather than "f" + std::to_string(K): GCC 12's
  // -Wrestrict false-positives on the rvalue concatenation under -O2
  // (same workaround as elsewhere in the repo, see tools/ci.sh matrix).
  if (K == prof::StackTree::RootKey)
    return "root";
  std::string S = "f";
  S += std::to_string(K);
  return S;
}

TEST(StackTree, AttributesElapsedWeightToTheCursor) {
  prof::StackTree T;
  T.attribute(5); // 5 ticks of top-level work
  T.push(1);
  T.attribute(8); // 3 ticks in f1
  T.push(2);
  T.attribute(10); // 2 ticks in f1;f2
  T.pop();
  T.attribute(14); // 4 more in f1
  T.pop();
  T.finish(16); // 2 more at top level

  EXPECT_EQ(T.totalWeight(), 16u);
  EXPECT_EQ(T.selfWeight(prof::StackTree::RootKey), 7u);
  EXPECT_EQ(T.selfWeight(1), 7u);
  EXPECT_EQ(T.selfWeight(2), 2u);
  EXPECT_EQ(T.nodeCount(), 3u); // root, f1, f1;f2
}

TEST(StackTree, InternsRepeatedPaths) {
  prof::StackTree T;
  for (int I = 0; I != 100; ++I) {
    T.push(1);
    T.push(2);
    T.attribute(static_cast<uint64_t>(I) + 1);
    T.pop();
    T.pop();
  }
  EXPECT_EQ(T.nodeCount(), 3u);
  EXPECT_EQ(T.depth(), 0u); // every push was popped
}

TEST(StackTree, ReplaceMakesASibling) {
  prof::StackTree T;
  T.push(1);
  T.attribute(3);
  T.replace(2); // tail call: f2 replaces f1 under the root
  T.attribute(7);
  T.pop();
  T.finish(7);

  EXPECT_EQ(T.selfWeight(1), 3u);
  EXPECT_EQ(T.selfWeight(2), 4u);
  std::string Folded = T.folded(key, "e");
  EXPECT_NE(Folded.find("e;f1 3\n"), std::string::npos);
  EXPECT_NE(Folded.find("e;f2 4\n"), std::string::npos);
  // f2 is NOT a child of f1.
  EXPECT_EQ(Folded.find("e;f1;f2"), std::string::npos);
}

TEST(StackTree, FoldedEmitsOneLinePerHotNode) {
  prof::StackTree T;
  T.attribute(1);
  T.push(7);
  T.push(8);
  T.attribute(11);
  T.finish(11); // unwinds both frames

  std::string Folded = T.folded(key, "vm");
  EXPECT_NE(Folded.find("vm 1\n"), std::string::npos);
  EXPECT_NE(Folded.find("vm;f7;f8 10\n"), std::string::npos);
  // f7 accumulated no self weight: no line.
  EXPECT_EQ(Folded.find("vm;f7 "), std::string::npos);
}

TEST(StackTree, FinishUnwindsAbandonedFrames) {
  prof::StackTree T;
  T.push(1);
  T.push(2);
  T.push(3);
  T.finish(9);
  EXPECT_EQ(T.depth(), 0u);
  EXPECT_EQ(T.totalWeight(), 9u);
  // A fresh run can start pushing again from the root.
  T.push(4);
  T.attribute(12);
  T.finish(12);
  EXPECT_EQ(T.selfWeight(4), 3u);
}

//===----------------------------------------------------------------------===//
// Site counters
//===----------------------------------------------------------------------===//

TEST(Profiler, SiteCountersBucketByStorageClass) {
  // Free-standing cells fed through the event channel: three births at
  // site 10 (two heap, one stack), one at 11 (region), a sweep of a
  // site-10 heap cell, and a DCONS at site 12 over another.
  auto Cell = [](uint32_t Site, CellClass Class, uint64_t Seq) {
    ConsCell C;
    C.SiteId = Site;
    C.Class = Class;
    C.AllocSeq = Seq;
    return C;
  };
  ConsCell A = Cell(10, CellClass::Heap, 1), B = Cell(10, CellClass::Heap, 2),
           S = Cell(10, CellClass::Stack, 3),
           R = Cell(11, CellClass::Region, 4);
  prof::Profiler P;
  for (const ConsCell *C : {&A, &B, &S, &R})
    P.cellAllocated(C, C->SiteId);
  P.cellDied(&A, CellDeath::Sweep, 5);
  P.cellReused(&B, 12, 11);

  const prof::SiteCounters *S10 = P.site(10);
  ASSERT_NE(S10, nullptr);
  EXPECT_EQ(S10->Allocs[0], 2u);
  EXPECT_EQ(S10->Allocs[1], 1u);
  EXPECT_EQ(S10->Allocs[2], 0u);
  EXPECT_EQ(S10->totalAllocs(), 3u);
  EXPECT_EQ(S10->Deaths[0], 1u);
  EXPECT_EQ(S10->Overwritten, 1u);
  // Both the GC death and the overwrite recorded a lifetime.
  EXPECT_EQ(S10->Lifetime.count(), 2u);

  const prof::SiteCounters *S12 = P.site(12);
  ASSERT_NE(S12, nullptr);
  EXPECT_EQ(S12->Reuses, 1u);
  EXPECT_EQ(P.site(99), nullptr);
}

//===----------------------------------------------------------------------===//
// End to end through the pipeline
//===----------------------------------------------------------------------===//

// The paper's partition sort (A.3.1 shape): a literal input list whose
// spine is stack-allocatable into ps's activation, interior conses that
// the reuse transform turns into DCONS, and an append chain the planner
// regions when reuse is off.
const char *SortSource = R"(
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
in ps (cons 5 (cons 2 (cons 7 (cons 1 (cons 3 (cons 4 nil))))))
)";

PipelineResult profiledRun(ExecutionEngine Engine, prof::Profiler &P,
                           bool EnableReuse) {
  PipelineOptions O;
  O.Engine = Engine;
  O.RunLint = true;
  O.Optimize.EnableReuse = EnableReuse;
  O.Run.Profiler = &P;
  PipelineResult R = runPipeline(SortSource, O);
  EXPECT_TRUE(R.Success) << R.diagnostics();
  return R;
}

struct SiteSums {
  uint64_t Allocs[prof::NumStorageClasses] = {};
  uint64_t Reuses = 0;
};

SiteSums sumSites(const prof::Profiler &P) {
  SiteSums S;
  for (const auto &[Id, C] : P.sites()) {
    (void)Id;
    for (unsigned K = 0; K != prof::NumStorageClasses; ++K)
      S.Allocs[K] += C.Allocs[K];
    S.Reuses += C.Reuses;
  }
  return S;
}

class ProfiledEngineTest : public ::testing::TestWithParam<ExecutionEngine> {};

TEST_P(ProfiledEngineTest, SiteSumsReconcileWithRuntimeStats) {
  prof::Profiler P;
  PipelineResult R = profiledRun(GetParam(), P, /*EnableReuse=*/true);
  SiteSums S = sumSites(P);
  EXPECT_EQ(S.Allocs[0], R.Stats.HeapCellsAllocated);
  EXPECT_EQ(S.Allocs[1], R.Stats.StackCellsAllocated);
  EXPECT_EQ(S.Allocs[2], R.Stats.RegionCellsAllocated);
  EXPECT_EQ(S.Reuses, R.Stats.DconsReuses);
  EXPECT_GT(R.Stats.DconsReuses, 0u) << "workload lost its DCONS sites";
  // Every allocation was tagged: nothing landed on the no-site bucket.
  EXPECT_EQ(P.site(prof::NoSite), nullptr);
}

TEST_P(ProfiledEngineTest, PlannedStackAndRegionSitesFire) {
  prof::Profiler P;
  PipelineResult R = profiledRun(GetParam(), P, /*EnableReuse=*/false);
  ASSERT_TRUE(R.Optimized.has_value());
  EXPECT_GT(R.Stats.StackCellsAllocated, 0u) << "workload lost its plan";

  std::set<uint32_t> Stack, Region;
  for (const ArgArenaDirective &D : R.Optimized->Plan.Directives)
    for (const auto &[Site, Class] : D.Sites)
      (Class == ArenaSiteClass::Stack ? Stack : Region).insert(Site);
  ASSERT_FALSE(Stack.empty());

  // Every planned site allocated at least once, and only in its class.
  for (uint32_t Site : Stack) {
    const prof::SiteCounters *C = P.site(Site);
    ASSERT_NE(C, nullptr) << "stack site " << Site << " never fired";
    EXPECT_GT(C->Allocs[1], 0u);
    EXPECT_EQ(C->Allocs[0], 0u);
    EXPECT_EQ(C->Allocs[2], 0u);
    // Arena frees reported the deaths.
    EXPECT_EQ(C->Deaths[1], C->Allocs[1]);
  }
  for (uint32_t Site : Region) {
    const prof::SiteCounters *C = P.site(Site);
    ASSERT_NE(C, nullptr) << "region site " << Site << " never fired";
    EXPECT_GT(C->Allocs[2], 0u);
  }
}

TEST_P(ProfiledEngineTest, StacksAreNonTrivialAndConserveWeight) {
  prof::Profiler P;
  PipelineResult R = profiledRun(GetParam(), P, /*EnableReuse=*/true);
  EXPECT_EQ(P.stacks().totalWeight(), P.clock());
  EXPECT_EQ(P.clock(), R.Stats.Steps);
  EXPECT_GT(P.stacks().nodeCount(), 3u);
  EXPECT_EQ(P.stacks().depth(), 0u); // finish() unwound everything
  std::string Folded = P.stacks().folded(key, "e");
  EXPECT_GT(std::count(Folded.begin(), Folded.end(), '\n'), 3);
}

// A run stopped by the step budget still charges every step it counted:
// both engines weigh the tree by RuntimeStats::Steps.
TEST_P(ProfiledEngineTest, StepBudgetStopChargesEveryStep) {
  prof::Profiler P;
  PipelineOptions O;
  O.Engine = GetParam();
  O.Run.MaxSteps = 100;
  O.Run.Profiler = &P;
  PipelineResult R = runPipeline(SortSource, O);
  ASSERT_FALSE(R.Success);
  EXPECT_GT(R.Stats.Steps, 100u);
  EXPECT_EQ(P.clock(), R.Stats.Steps);
  EXPECT_EQ(P.stacks().totalWeight(), R.Stats.Steps);
}

INSTANTIATE_TEST_SUITE_P(Engines, ProfiledEngineTest,
                         ::testing::Values(ExecutionEngine::TreeWalker,
                                           ExecutionEngine::Bytecode),
                         [](const auto &Info) {
                           return Info.param == ExecutionEngine::TreeWalker
                                      ? "tree"
                                      : "vm";
                         });

TEST(Profiler, VmCountsEveryDispatchedInstruction) {
  prof::Profiler P;
  PipelineResult R = profiledRun(ExecutionEngine::Bytecode, P, true);
  ASSERT_TRUE(P.vmProfile());
  uint64_t ByOpcode = 0;
  for (uint64_t N : P.opcodeCounts())
    ByOpcode += N;
  uint64_t ByProto = 0;
  for (uint64_t N : P.protoInstrs())
    ByProto += N;
  EXPECT_EQ(ByOpcode, R.Stats.Steps);
  EXPECT_EQ(ByProto, R.Stats.Steps);
}

//===----------------------------------------------------------------------===//
// ProfileReport
//===----------------------------------------------------------------------===//

TEST(ProfileReport, JoinsPlanSitesWithBothEngines) {
  prof::Profiler TreeP, VmP;
  PipelineResult R1 =
      profiledRun(ExecutionEngine::TreeWalker, TreeP, /*EnableReuse=*/false);
  PipelineResult R2 =
      profiledRun(ExecutionEngine::Bytecode, VmP, /*EnableReuse=*/false);
  ASSERT_TRUE(R1.Optimized && R2.Optimized);

  std::vector<prof::EngineProfile> Engines(2);
  Engines[0] = {"tree", &TreeP, R1.Success, {}, {}};
  Engines[1] = {"vm", &VmP, R2.Success, {}, {}};
  prof::ProfileReport Report(*R1.Ast, *R1.SM, R1.Optimized->Root,
                             R1.Optimized->Plan, R1.Optimized->Reuse,
                             R1.Check ? &R1.Check->Findings : nullptr,
                             std::move(Engines));

  // Every planned site appears in the site table with its class.
  std::set<uint32_t> Reported;
  size_t NumStack = 0, NumRegion = 0;
  for (const prof::ProfileReport::Site &S : Report.sites()) {
    Reported.insert(S.Id);
    NumStack += S.Planned == "stack";
    NumRegion += S.Planned == "region";
    EXPECT_TRUE(S.Loc.isValid());
    EXPECT_GE(R1.SM->lineColumn(S.Loc).Line, 1u);
    EXPECT_FALSE(S.Why.empty());
  }
  size_t PlannedSites = 0;
  for (const ArgArenaDirective &D : R1.Optimized->Plan.Directives)
    for (const auto &[Site, Class] : D.Sites) {
      (void)Class;
      ++PlannedSites;
      EXPECT_TRUE(Reported.count(Site)) << "planned site " << Site
                                        << " missing from the report";
    }
  EXPECT_EQ(NumStack + NumRegion, PlannedSites);

  std::string Json = Report.toJson();
  EXPECT_NE(Json.find("\"schema\": \"eal-profile-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"planned\": \"stack\""), std::string::npos);
  EXPECT_NE(Json.find("\"planned\": \"region\""), std::string::npos);

  // Folded stacks cover both engines with named frames.
  std::string Folded = Report.folded();
  EXPECT_NE(Folded.find("tree;"), std::string::npos);
  EXPECT_NE(Folded.find("vm;"), std::string::npos);
  EXPECT_NE(Folded.find("ps"), std::string::npos);
}

TEST(ProfileReport, DconsSitesReportAsReuse) {
  prof::Profiler TreeP;
  PipelineResult R =
      profiledRun(ExecutionEngine::TreeWalker, TreeP, /*EnableReuse=*/true);
  ASSERT_TRUE(R.Optimized.has_value());

  std::vector<prof::EngineProfile> Engines(1);
  Engines[0] = {"tree", &TreeP, R.Success, {}, {}};
  prof::ProfileReport Report(*R.Ast, *R.SM, R.Optimized->Root,
                             R.Optimized->Plan, R.Optimized->Reuse,
                             R.Check ? &R.Check->Findings : nullptr,
                             std::move(Engines));

  uint64_t ReportedReuses = 0;
  size_t DconsSites = 0;
  for (const prof::ProfileReport::Site &S : Report.sites()) {
    if (S.Planned != "reuse")
      continue;
    ++DconsSites;
    if (const prof::SiteCounters *C = TreeP.site(S.Id))
      ReportedReuses += C->Reuses;
  }
  EXPECT_GT(DconsSites, 0u);
  // The dcons sites of the report account for every runtime reuse.
  EXPECT_EQ(ReportedReuses, R.Stats.DconsReuses);
  // Heap sites carry an explanation from the linter.
  bool SawLintWhy = false;
  for (const prof::ProfileReport::Site &S : Report.sites())
    SawLintWhy |= S.Planned == "heap" && S.Why.rfind("[EAL-O", 0) == 0;
  EXPECT_TRUE(SawLintWhy);
}

TEST(ProfileReport, DconsSitesCiteTheirOwnReuseVersion) {
  prof::Profiler TreeP;
  PipelineResult R =
      profiledRun(ExecutionEngine::TreeWalker, TreeP, /*EnableReuse=*/true);
  ASSERT_TRUE(R.Optimized && R.Prov);
  prof::ProfileReport Report(*R.Ast, *R.SM, R.Optimized->Root,
                             R.Optimized->Plan, R.Optimized->Reuse,
                             R.Check ? &R.Check->Findings : nullptr, {});

  // DCONS site id -> the top-level binding whose body holds it.
  std::map<uint32_t, std::string> Enclosing;
  const auto *Letrec = dyn_cast<LetrecExpr>(R.Optimized->Root);
  ASSERT_NE(Letrec, nullptr);
  for (const LetrecBinding &B : Letrec->bindings())
    forEachAllocSite(B.Value, [&](const Expr *E, PrimOp Op) {
      if (Op == PrimOp::DCons)
        Enclosing.emplace(E->id(), std::string(R.Ast->spelling(B.Name)));
    });

  std::set<std::string> Cited;
  for (const prof::ProfileReport::Site &S : Report.sites()) {
    if (S.Planned != "reuse")
      continue;
    ASSERT_TRUE(Enclosing.count(S.Id)) << "site " << S.Id;
    const std::string &Binding = Enclosing[S.Id];
    ASSERT_NE(S.Prov, explain::NoFact) << Binding;
    EXPECT_EQ(R.Prov->fact(S.Prov).Label.rfind("reuse version " + Binding +
                                                   " of ",
                                               0),
              0u)
        << "site in " << Binding << " cites '" << R.Prov->fact(S.Prov).Label
        << "'";
    EXPECT_NE(S.Why.find("reuse version: " + Binding + " "),
              std::string::npos)
        << S.Why;
    Cited.insert(Binding);
  }
  // The sort's DCONS sites span several versions (append', split', ps').
  EXPECT_GE(Cited.size(), 2u);
}

} // namespace
