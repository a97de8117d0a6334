//===- ExplainTest.cpp - why-provenance recorder and blame chains -----------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The recorder's frame-stack protocol and graph invariants, the site
// classifier's agreement with the allocation plan, and the pipeline-level
// report: every chain must walk from an allocation site to a terminal
// step, every fact reference must resolve, and a pipeline run without
// --explain or --check must not pay for any of it (docs/EXPLAIN.md).
//
//===----------------------------------------------------------------------===//

#include "explain/Explain.h"

#include "TestUtil.h"
#include "driver/Pipeline.h"
#include "escape/EscapeAnalyzer.h"
#include "lang/AstUtils.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

using namespace eal;
using namespace eal::explain;
using namespace eal::test;

namespace {

//===----------------------------------------------------------------------===//
// Recorder protocol.
//===----------------------------------------------------------------------===//

TEST(ProvenanceRecorder, KeyedCreateAndLookup) {
  ProvenanceRecorder P;
  uint32_t Ns = P.allocNamespace();
  EXPECT_EQ(P.lookup(FactKind::Binding, Ns, 7), NoFact);
  uint32_t F = P.create(FactKind::Binding, Ns, 7, "append", "letrec-fix",
                        SourceLoc());
  EXPECT_EQ(P.lookup(FactKind::Binding, Ns, 7), F);
  // Same key, different namespace: independent analyses never collide.
  uint32_t Ns2 = P.allocNamespace();
  EXPECT_EQ(P.lookup(FactKind::Binding, Ns2, 7), NoFact);
  // Same key, different kind: a query and a binding can share a cache key.
  EXPECT_EQ(P.lookup(FactKind::Query, Ns, 7), NoFact);
  EXPECT_EQ(P.numFacts(), 1u);
}

TEST(ProvenanceRecorder, ReadsAccrueToInnermostOpenFact) {
  ProvenanceRecorder P;
  uint32_t A = P.fresh(FactKind::Binding, "a", "", SourceLoc());
  uint32_t B = P.fresh(FactKind::Binding, "b", "", SourceLoc());
  uint32_t C = P.fresh(FactKind::Query, "c", "", SourceLoc());

  P.read(A); // no open fact: dropped
  P.open(C);
  P.open(B);
  P.read(A);
  P.read(A); // duplicate read: one edge
  P.read(B); // self-read: dropped
  P.read(NoFact);
  P.close(B);
  P.read(B);
  P.close(C);

  EXPECT_EQ(P.fact(B).Deps, (std::vector<uint32_t>{A}));
  EXPECT_EQ(P.fact(C).Deps, (std::vector<uint32_t>{B}));
  EXPECT_TRUE(P.fact(A).Deps.empty());
  EXPECT_EQ(P.numEdges(), 2u);
}

TEST(ProvenanceRecorder, RaiseSnapshotsFrameReads) {
  ProvenanceRecorder P;
  uint32_t A = P.fresh(FactKind::Binding, "a", "", SourceLoc());
  uint32_t B = P.fresh(FactKind::Binding, "b", "", SourceLoc());
  P.open(B);
  P.read(A);
  P.raise(B, 1, "<1,0>");
  P.raise(B, 2, "<1,1>");
  P.result(B, "<1,1>");
  P.close(B);

  ASSERT_EQ(P.fact(B).Raises.size(), 2u);
  EXPECT_EQ(P.fact(B).Raises[0].Round, 1u);
  EXPECT_EQ(P.fact(B).Raises[0].Value, "<1,0>");
  EXPECT_EQ(P.fact(B).Raises[0].Deps, (std::vector<uint32_t>{A}));
  EXPECT_EQ(P.fact(B).Result, "<1,1>");
  EXPECT_EQ(P.numRaises(), 2u);
}

TEST(ProvenanceRecorder, DependGuardsSentinelAndSelf) {
  ProvenanceRecorder P;
  uint32_t A = P.fresh(FactKind::Decision, "a", "", SourceLoc());
  uint32_t B = P.fresh(FactKind::Decision, "b", "", SourceLoc());
  P.depend(A, NoFact);
  P.depend(NoFact, A);
  P.depend(A, A);
  EXPECT_EQ(P.numEdges(), 0u);
  P.depend(A, B);
  P.depend(A, B); // duplicate: one edge
  EXPECT_EQ(P.fact(A).Deps, (std::vector<uint32_t>{B}));
  EXPECT_EQ(P.numEdges(), 1u);
}

TEST(ProvenanceRecorder, MaxDepthCutsCycles) {
  ProvenanceRecorder P;
  EXPECT_EQ(P.maxDepth(), 0u);
  uint32_t A = P.fresh(FactKind::Binding, "a", "", SourceLoc());
  EXPECT_EQ(P.maxDepth(), 1u);
  uint32_t B = P.fresh(FactKind::Binding, "b", "", SourceLoc());
  uint32_t C = P.fresh(FactKind::Binding, "c", "", SourceLoc());
  P.depend(C, B);
  P.depend(B, A);
  EXPECT_EQ(P.maxDepth(), 3u);
  // Mutually recursive bindings produce a cycle; the back edge must not
  // loop the depth computation.
  P.depend(A, C);
  EXPECT_EQ(P.maxDepth(), 3u);
}

TEST(ProvenanceRecorder, ExportsGraphCounters) {
  ProvenanceRecorder P;
  uint32_t A = P.fresh(FactKind::Binding, "a", "", SourceLoc());
  uint32_t B = P.fresh(FactKind::Binding, "b", "", SourceLoc());
  P.open(B);
  P.read(A);
  P.raise(B, 1, "x");
  P.close(B);

  obs::MetricsRegistry Reg;
  P.exportTo(Reg);
  EXPECT_EQ(Reg.counter("explain.facts").value(), 2u);
  EXPECT_EQ(Reg.counter("explain.edges").value(), 1u);
  EXPECT_EQ(Reg.counter("explain.raises").value(), 1u);
  EXPECT_EQ(Reg.counter("explain.max_depth").value(), 2u);
}

TEST(ProvenanceRecorder, BlamePathWalksToLeaf) {
  ProvenanceRecorder P;
  uint32_t Leaf = P.fresh(FactKind::Binding, "leaf", "", SourceLoc());
  uint32_t Mid = P.fresh(FactKind::Query, "mid", "", SourceLoc());
  uint32_t Top = P.fresh(FactKind::Decision, "top", "", SourceLoc());
  P.depend(Top, Mid);
  P.depend(Mid, Leaf);
  EXPECT_EQ(blamePath(P, Top), (std::vector<uint32_t>{Top, Mid, Leaf}));
  EXPECT_EQ(blamePath(P, Leaf), (std::vector<uint32_t>{Leaf}));
  EXPECT_TRUE(blamePath(P, NoFact).empty());
}

//===----------------------------------------------------------------------===//
// Fixpoint round traces (satellite of docs/EXPLAIN.md): the analyzer
// reports how many variables changed per iteration.
//===----------------------------------------------------------------------===//

TEST(ProvenanceRecorder, AnalyzerRecordsRoundChanges) {
  Frontend FE;
  ASSERT_TRUE(FE.parseAndType(partitionSortSource()));
  EscapeAnalyzer Analyzer(FE.Ast, *FE.Typed, FE.Diags);
  Analyzer.enableTracing();
  ASSERT_TRUE(Analyzer.globalEscape(FE.Ast.intern("append"), 1).has_value());
  const std::vector<unsigned> &Rounds = Analyzer.roundChanges();
  ASSERT_FALSE(Rounds.empty());
  // The fixpoint converged: its last round is the one where nothing (or
  // only the final join) changed, and at least one earlier round moved a
  // variable up the lattice.
  EXPECT_GT(std::accumulate(Rounds.begin(), Rounds.end(), 0u), 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline-level report.
//===----------------------------------------------------------------------===//

PipelineResult runExplain(const std::string &Source) {
  PipelineOptions Options;
  Options.RunExplain = true;
  Options.RunProgram = false;
  return runPipeline(Source, Options);
}

TEST(ExplainReport, EveryChainResolvesAndTerminates) {
  PipelineResult R = runExplain(partitionSortSource());
  ASSERT_TRUE(R.Success) << R.diagnostics();
  ASSERT_TRUE(R.Explain.has_value());
  ASSERT_NE(R.Explain->Recorder, nullptr);
  size_t NumFacts = R.Explain->Recorder->numFacts();
  EXPECT_GT(NumFacts, 0u);
  ASSERT_FALSE(R.Explain->Chains.empty());
  for (const BlameChain &C : R.Explain->Chains) {
    // Site step first, terminal step last, at least those two.
    ASSERT_GE(C.Steps.size(), 2u);
    EXPECT_EQ(C.Steps.front().Title, "allocation site");
    if (C.Storage == SiteStorage::Heap) {
      EXPECT_FALSE(C.Code.empty());
    } else {
      EXPECT_TRUE(C.Code.empty());
    }
    for (const BlameStep &S : C.Steps)
      if (S.FactRef != NoFact) {
        EXPECT_LT(S.FactRef, NumFacts);
      }
    for (uint32_t F : C.Facts)
      EXPECT_LT(F, NumFacts);
  }
}

TEST(ExplainReport, AppendEscapeChainReachesEscapingReturn) {
  PipelineResult R = runExplain(partitionSortSource());
  ASSERT_TRUE(R.Explain.has_value());
  std::string Text = R.Explain->renderText(*R.SM);
  // The Appendix A partition sort: append's second argument escapes
  // through the result, and the chain must say so in fixpoint terms.
  EXPECT_NE(Text.find("escaping return"), std::string::npos) << Text;
  EXPECT_NE(Text.find("fixpoint derivation"), std::string::npos) << Text;
  EXPECT_NE(Text.find("escape verdict"), std::string::npos) << Text;
}

TEST(ExplainReport, ChainsAtFiltersBySourcePosition) {
  PipelineResult R = runExplain(partitionSortSource());
  ASSERT_TRUE(R.Explain.has_value());
  ASSERT_FALSE(R.Explain->Chains.empty());
  const BlameChain &First = R.Explain->Chains.front();
  LineColumn LC = R.SM->lineColumn(First.SiteLoc);
  auto Exact = R.Explain->chainsAt(*R.SM, LC);
  ASSERT_FALSE(Exact.empty());
  EXPECT_TRUE(std::any_of(Exact.begin(), Exact.end(),
                          [&](const BlameChain *C) { return C == &First; }));
  // Column 0 means "any site on the line".
  auto OnLine = R.Explain->chainsAt(*R.SM, LineColumn{LC.Line, 0});
  EXPECT_GE(OnLine.size(), Exact.size());
  EXPECT_TRUE(R.Explain->chainsAt(*R.SM, LineColumn{9999, 1}).empty());
}

TEST(ExplainReport, JsonAndDotExports) {
  PipelineResult R = runExplain(partitionSortSource());
  ASSERT_TRUE(R.Explain.has_value());
  std::string Json = R.Explain->toJson(*R.SM, "explain", R.Success);
  EXPECT_NE(Json.find("\"schema\": \"eal-explain-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"chains\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"facts\": ["), std::string::npos);
  std::string Dot = R.Explain->toDot();
  EXPECT_EQ(Dot.rfind("digraph ", 0), 0u) << Dot.substr(0, 40);
  EXPECT_EQ(Dot.substr(Dot.size() - 2), "}\n");
}

TEST(ExplainReport, LintFindingsCarryBlame) {
  PipelineOptions Options;
  Options.RunLint = true;
  Options.RunProgram = false;
  PipelineResult R = runPipeline(partitionSortSource(), Options);
  ASSERT_TRUE(R.Check.has_value());
  ASSERT_NE(R.Prov, nullptr);
  bool SawEscapeBlame = false;
  for (const check::Finding &F : R.Check->Findings) {
    for (uint32_t Ref : F.Blame)
      EXPECT_LT(Ref, R.Prov->numFacts());
    if (F.Code == "EAL-O001" && !F.Blame.empty())
      SawEscapeBlame = true;
  }
  // append's escaping argument draws an EAL-O001, and with the recorder
  // attached its blame chain must be populated.
  EXPECT_TRUE(SawEscapeBlame) << R.Check->render(*R.SM);
}

TEST(ExplainReport, EachLocalQueryIsRecordedOnce) {
  // The planner and the site classifier grade the final program with one
  // analyzer, so the L query on one argument of one call is one fact, not
  // one per client. Reuse versions clone bodies with their source
  // locations, so a (label, location) pair may name several calls: it
  // must appear once per call that carries it.
  PipelineResult R = runExplain(partitionSortSource());
  ASSERT_TRUE(R.Success) << R.diagnostics();
  ASSERT_NE(R.Prov, nullptr);
  using Key = std::pair<std::string, uint32_t>;
  std::map<Key, unsigned> Facts, Calls;
  for (const Fact &F : R.Prov->facts())
    if (F.Kind == FactKind::Query && F.Label.rfind("L(", 0) == 0)
      ++Facts[{F.Label, F.Loc.offset()}];
  const auto *Letrec = dyn_cast<LetrecExpr>(R.Optimized->Root);
  ASSERT_NE(Letrec, nullptr);
  forEachExpr(Letrec, [&](const Expr *E) {
    std::vector<const Expr *> Args;
    const auto *Var = dyn_cast<VarExpr>(uncurryCall(E, Args));
    const LetrecBinding *B = Var ? Letrec->findBinding(Var->name()) : nullptr;
    if (!B || Args.empty() || lambdaArity(B->Value) != Args.size())
      return;
    for (unsigned I = 0; I != Args.size(); ++I)
      ++Calls[{"L(" + std::string(R.Ast->spelling(B->Name)) + ", " +
                   std::to_string(I + 1) + ")",
               E->loc().offset()}];
  });
  ASSERT_FALSE(Facts.empty());
  for (const auto &[K, N] : Facts)
    EXPECT_EQ(N, Calls[K]) << K.first << " at offset " << K.second;
}

TEST(ExplainReport, RecorderAbsentUnlessRequested) {
  PipelineOptions Options;
  Options.RunProgram = false;
  PipelineResult R = runPipeline(partitionSortSource(), Options);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  // The zero-cost discipline: no lint, no explain -> no recorder, no
  // report, nothing allocated.
  EXPECT_EQ(R.Prov, nullptr);
  EXPECT_FALSE(R.Explain.has_value());
}

//===----------------------------------------------------------------------===//
// Site classifier: storage classes must agree with the plan.
//===----------------------------------------------------------------------===//

TEST(ExplainReport, PlannedSitesRenderArenaTerminals) {
  // sum consumes its argument without letting it escape, so the literal
  // list's cons sites are planned into sum's activation (A.3.1) and
  // their chains must terminate in the matching arena step naming the
  // protecting callee.
  PipelineResult R = runExplain(
      "letrec\n"
      "  sum l = if (null l) then 0 else (car l) + sum (cdr l)\n"
      "in sum (cons 1 (cons 2 nil))");
  ASSERT_TRUE(R.Explain.has_value());
  bool SawPlanned = false;
  for (const BlameChain &C : R.Explain->Chains) {
    if (C.Storage == SiteStorage::Heap)
      continue;
    SawPlanned = true;
    const BlameStep &Last = C.Steps.back();
    if (C.Storage == SiteStorage::Stack)
      EXPECT_EQ(Last.Title, "stack allocation");
    else
      EXPECT_EQ(Last.Title, "region allocation");
    EXPECT_NE(Last.Detail.find("'"), std::string::npos) << Last.Detail;
  }
  EXPECT_TRUE(SawPlanned) << R.Explain->renderText(*R.SM);
}

} // namespace
