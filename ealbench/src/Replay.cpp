//===- Replay.cpp ---------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "check/LiveLint.h"
#include "driver/Stdlib.h"
#include "lang/Parser.h"
#include "runtime/ValuePrinter.h"

#include <fstream>

using namespace eal;
using namespace ealbench;

//===--- SpanRecorder -----------------------------------------------------==//

SpanRecorder::Scope::Scope(SpanRecorder &Rec, const char *Name,
                           uint32_t Program)
    : Rec(Rec), Index(static_cast<int32_t>(Rec.Spans.size())),
      SavedOpen(Rec.Open) {
  Rec.Spans.push_back({Name, Rec.nowNs(), 0, Rec.Open, Program});
  Rec.Open = Index;
}

SpanRecorder::Scope::~Scope() {
  Rec.Spans[Index].EndNs = Rec.nowNs();
  Rec.Open = SavedOpen;
}

uint64_t SpanRecorder::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

std::vector<uint64_t> SpanRecorder::selfTimes() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  // Children close before their parents, so each covers a sub-interval.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  return Self;
}

bool SpanRecorder::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"schema\": \"ealbench-spans-v1\", \"spans\": [";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"program\": " << S.Program << ", \"parent\": " << S.Parent
        << ", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << "}";
  }
  Out << "\n], \"programs\": [";
  for (size_t I = 0; I != Programs.size(); ++I)
    Out << (I ? ", " : "") << '"' << Programs[I] << '"';
  Out << "]}\n";
  return static_cast<bool>(Out);
}

//===--- The replay -------------------------------------------------------==//

namespace {

/// Forwards every observer hook to both oracles (the pipeline's own
/// fan-out is private to the driver).
class FanOut final : public ExecutionObserver {
public:
  FanOut(ExecutionObserver &A, ExecutionObserver &B) : A(A), B(B) {}

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override {
    A.cellAllocated(Cell, SiteId);
    B.cellAllocated(Cell, SiteId);
  }
  void cellTouched(const ConsCell *Cell, uint64_t NowSeq) override {
    A.cellTouched(Cell, NowSeq);
    B.cellTouched(Cell, NowSeq);
  }
  void activationEntered(const LambdaExpr *Fn, const AppExpr *CallSite,
                         std::span<const RtValue> Args) override {
    A.activationEntered(Fn, CallSite, Args);
    B.activationEntered(Fn, CallSite, Args);
  }
  bool activationExited(const RtValue *Result) override {
    bool KeepA = A.activationExited(Result);
    bool KeepB = B.activationExited(Result);
    Aborted = !KeepA ? &A : !KeepB ? &B : nullptr;
    return KeepA && KeepB;
  }
  std::string abortReason() const override {
    return Aborted ? Aborted->abortReason() : ExecutionObserver::abortReason();
  }

private:
  ExecutionObserver &A;
  ExecutionObserver &B;
  ExecutionObserver *Aborted = nullptr;
};

/// Everything one replay owns. It is declared before the root span so
/// that tearing it down stays outside the measured replay, as the
/// caller's PipelineResult does for runPipeline.
struct Session {
  SourceManager SM;
  DiagnosticEngine Diags;
  AstContext Ast;
  TypeContext Types;
  std::unique_ptr<explain::ProvenanceRecorder> Prov;
  std::optional<check::CheckReport> Report;
  std::optional<TypedProgram> Typed;
  ReuseTransformResult Reuse;
  std::optional<TypedProgram> FinalTyped;
  std::optional<EscapeAnalyzer> FinalAnalyzer;
  ProgramEscapeReport FinalEscape;
  AllocationPlan Plan;
  std::optional<live::LiveReport> Live;
  std::unique_ptr<check::EscapeOracle> Oracle;
  std::unique_ptr<check::LivenessOracle> LiveOracle;
  std::unique_ptr<FanOut> Observers;
  std::optional<Chunk> Code;
  std::unique_ptr<Vm> TheVm;
  std::unique_ptr<Interpreter> Interp;
  std::optional<RtValue> Value;
};

void countEscape(ReplayOutcome &Out, const ProgramEscapeReport &Report,
                 const EscapeAnalyzer &Analyzer) {
  Out.Counts["escape.fixpoint_rounds"] += Report.FixpointRounds;
  Out.Counts["escape.apply_cache_entries"] += Report.ApplyCacheEntries;
  Out.Counts["escape.widenings"] += Analyzer.wideningCount();
}

/// The body of replayProgram: runPipeline's steps for the options of
/// \p W, in its order. Returns false with Out.Error set on failure.
bool replayLayers(Workload W, const Program &P, Session &S, SpanRecorder &Rec,
                  uint32_t Id, ReplayOutcome &Out) {
  const PipelineOptions Options = pipelineOptions(W, P);
  using Scope = SpanRecorder::Scope;
  auto Failed = [&](const char *Layer) {
    Out.Error = std::string(Layer) + ": " + S.Diags.render(S.SM);
    return false;
  };

  S.SM.setBuffer(Options.IncludeStdlib ? withStdlib(P.Source) : P.Source,
                 Options.SourceName);
  const Expr *Parsed = nullptr;
  {
    Scope T(Rec, "lang.parse", Id);
    Parser Parse(S.SM.buffer(), S.Ast, S.Diags);
    Parsed = Parse.parseProgram();
  }
  Out.Counts["lang.ast_nodes"] = S.Ast.numNodes();
  if (!Parsed)
    return Failed("parse");

  const bool RunLive = Options.RunLive || Options.RunLiveOracle;
  if (Options.RunLint) {
    S.Report.emplace();
    Scope T(Rec, "check.lint", Id);
    check::LintOptions LO;
    if (Options.IncludeStdlib)
      for (std::string_view Name : stdlibBindingNames())
        LO.ExemptTopLevel.emplace_back(Name);
    check::lintSource(S.Ast, Parsed, LO, *S.Report);
  }

  {
    Scope T(Rec, "types.infer", Id);
    TypeInference TI(S.Ast, S.Types, S.Diags, Options.Mode);
    S.Typed = TI.run(Parsed);
  }
  if (!S.Typed)
    return Failed("type inference");

  // optimizeProgram, one layer at a time.
  OptimizerConfig Config = Options.Optimize;
  Config.Mode = Options.Mode;
  if (Options.RunLint || Options.RunExplain || RunLive) {
    S.Prov = std::make_unique<explain::ProvenanceRecorder>();
    Config.Explain = S.Prov.get();
  }
  ProgramEscapeReport BaseEscape;
  {
    Scope T(Rec, "escape.base", Id);
    EscapeAnalyzer Base(S.Ast, *S.Typed, S.Diags, 512, Config.Analysis);
    if (S.Prov)
      Base.attachProvenance(S.Prov.get());
    BaseEscape = Base.analyzeProgram();
    countEscape(Out, BaseEscape, Base);
  }

  const Expr *FinalRoot = S.Typed->root();
  if (Config.EnableReuse) {
    Scope T(Rec, "opt.reuse", Id);
    SharingAnalysis Sharing(S.Ast, *S.Typed, BaseEscape);
    if (S.Prov)
      Sharing.attachProvenance(S.Prov.get());
    ReuseTransform Transform(S.Ast, *S.Typed, BaseEscape, Sharing);
    if (std::optional<ReuseTransformResult> Result = Transform.run()) {
      S.Reuse = std::move(*Result);
      FinalRoot = S.Reuse.NewRoot;
    }
  }
  Out.ReuseVersions = S.Reuse.Versions.size();
  Out.Counts["opt.reuse_versions"] = static_cast<double>(Out.ReuseVersions);
  for (const ReuseVersion &V : S.Reuse.Versions)
    Out.Counts["opt.dcons_sites"] += static_cast<double>(V.DconsSites.size());

  {
    Scope T(Rec, "types.retype", Id);
    TypeInference TI(S.Ast, S.Types, S.Diags, Config.Mode);
    S.FinalTyped = TI.run(FinalRoot);
  }
  if (!S.FinalTyped)
    return Failed("retype");

  {
    Scope T(Rec, "escape.final", Id);
    S.FinalAnalyzer.emplace(S.Ast, *S.FinalTyped, S.Diags, 512,
                            Config.Analysis);
    if (S.Prov)
      S.FinalAnalyzer->attachProvenance(S.Prov.get());
    S.FinalEscape = S.FinalAnalyzer->analyzeProgram();
    countEscape(Out, S.FinalEscape, *S.FinalAnalyzer);
  }

  if (Config.EnableStack || Config.EnableRegion) {
    Scope T(Rec, "opt.plan", Id);
    size_t CacheBefore = S.FinalAnalyzer->applyCacheSize();
    AllocPlannerOptions PO;
    PO.EnableStack = Config.EnableStack;
    PO.EnableRegion = Config.EnableRegion;
    PO.Prov = Config.Explain;
    AllocPlanner Planner(S.Ast, *S.FinalTyped, *S.FinalAnalyzer, PO);
    S.Plan = Planner.run();
    Out.Counts["opt.plan_cache_growth"] = static_cast<double>(
        S.FinalAnalyzer->applyCacheSize() - CacheBefore);
  }
  Out.PlanDirectives = S.Plan.Directives.size();
  Out.Counts["opt.plan_directives"] = static_cast<double>(Out.PlanDirectives);

  if (W == Workload::CheckBound) {
    // eal check --oracle --live-oracle: classification, the EAL-O and
    // EAL-D lints, liveness, both claim sets, and the observed
    // tree-walker run with arena-free validation.
    std::vector<explain::SiteInfo> Sites;
    {
      Scope T(Rec, "explain.classify", Id);
      EscapeAnalyzer Classifier(S.Ast, *S.FinalTyped, S.Diags, 512,
                                Config.Analysis);
      if (S.Prov)
        Classifier.attachProvenance(S.Prov.get());
      Sites = explain::classifySites(S.Ast, *S.FinalTyped, Classifier, S.Plan);
    }
    {
      Scope T(Rec, "check.lint", Id);
      check::explainBlockedAllocations(S.Ast, *S.FinalTyped, Sites, S.Reuse,
                                       S.FinalEscape, S.Prov.get(),
                                       *S.Report);
    }
    {
      Scope T(Rec, "live.analyze", Id);
      live::LiveAnalyzer LA(S.Ast, FinalRoot, &*S.FinalTyped);
      if (S.Prov)
        LA.attachProvenance(S.Prov.get());
      S.Live = LA.run();
    }
    Out.Counts["live.rounds"] = S.Live->Rounds;
    {
      Scope T(Rec, "check.lint", Id);
      check::LiveLintOptions LLO;
      if (Options.IncludeStdlib)
        for (std::string_view Name : stdlibBindingNames())
          LLO.ExemptContexts.emplace_back(Name);
      check::lintLiveness(S.Ast, *S.Live, Sites, &*S.FinalTyped,
                          S.Prov.get(), LLO, *S.Report);
    }
    {
      Scope T(Rec, "check.claims", Id);
      EscapeAnalyzer ClaimAnalyzer(S.Ast, *S.FinalTyped, S.Diags, 512,
                                   Config.Analysis);
      S.Oracle = std::make_unique<check::EscapeOracle>(
          S.Ast,
          check::buildClaimTable(S.Ast, *S.FinalTyped, ClaimAnalyzer));
      check::LiveClaims Claims;
      Claims.DeadSites = S.Live->deadSites();
      for (const live::SiteLive &Site : S.Live->Sites)
        Claims.SiteLocs.emplace(Site.Site->id(), Site.Site->loc());
      S.LiveOracle = std::make_unique<check::LivenessOracle>(std::move(Claims));
      S.Observers = std::make_unique<FanOut>(*S.Oracle, *S.LiveOracle);
    }
    Out.Counts["check.claims"] = static_cast<double>(S.Oracle->claimCount());

    Interpreter::Options RunOpts = Options.Run;
    RunOpts.ValidateArenaFrees = true;
    RunOpts.Observer = S.Observers.get();
    {
      Scope T(Rec, "runtime.heap_init", Id);
      S.Interp = std::make_unique<Interpreter>(S.Ast, *S.FinalTyped, &S.Plan,
                                               S.Diags, RunOpts);
    }
    {
      Scope T(Rec, "runtime.tree_run", Id);
      S.Value = Options.UseLargeStack ? S.Interp->runOnLargeStack()
                                      : S.Interp->run();
    }
    Out.Stats = S.Interp->stats();
    S.Oracle->finalize(S.Value ? &*S.Value : nullptr);
    S.LiveOracle->finalize(S.Value ? &*S.Value : nullptr);
    Out.Counts["check.refutations"] = static_cast<double>(
        S.Oracle->report().Violations.size() +
        S.LiveOracle->report().Violations.size());
  } else {
    // eal run --vm.
    {
      Scope T(Rec, "vm.compile", Id);
      S.Code = compileToBytecode(S.Ast, FinalRoot, &S.Plan, S.Diags);
    }
    if (!S.Code)
      return Failed("compile");
    Out.Counts["vm.instructions"] =
        static_cast<double>(S.Code->instructionCount());
    Vm::Options VO;
    VO.HeapCapacity = Options.Run.HeapCapacity;
    VO.AllowHeapGrowth = Options.Run.AllowHeapGrowth;
    VO.MaxSteps = Options.Run.MaxSteps;
    VO.ValidateArenaFrees = Options.Run.ValidateArenaFrees;
    {
      Scope T(Rec, "runtime.heap_init", Id);
      S.TheVm = std::make_unique<Vm>(*S.Code, S.Diags, VO);
    }
    {
      Scope T(Rec, "vm.run", Id);
      S.Value = S.TheVm->run();
    }
    Out.Stats = S.TheVm->stats();
    Out.Counts["vm.steps"] = static_cast<double>(Out.Stats.Steps);
  }

  if (!S.Value)
    return Failed("run");
  Out.Rendered = renderValue(*S.Value);
  Out.Completed = !S.Diags.hasErrors();
  if (!Out.Completed)
    Out.Error = S.Diags.render(S.SM);
  return Out.Completed;
}

} // namespace

ReplayOutcome ealbench::replayProgram(Workload W, const Program &P,
                                      SpanRecorder &Rec, uint32_t Id) {
  ReplayOutcome Out;
  Session S;
  SpanRecorder::Scope Root(Rec, "driver.replay", Id);
  replayLayers(W, P, S, Rec, Id, Out);
  return Out;
}
