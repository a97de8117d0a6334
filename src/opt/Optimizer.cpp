//===- Optimizer.cpp ------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "lang/AstUtils.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"

using namespace eal;

namespace {

/// Records Decision facts for the §6 reuse transformation: one per
/// generated version f' (citing the escape verdict that protected the
/// reused parameter) and one per retargeted call site (citing its
/// version's fact). Runs as a post-pass so the transform itself stays
/// provenance-free.
void recordReuseProvenance(const AstContext &Ast, const TypedProgram &Program,
                           const ProgramEscapeReport &BaseEscape,
                           ReuseTransformResult &Reuse,
                           explain::ProvenanceRecorder &Prov) {
  if (!Reuse.changedAnything())
    return;
  // The transform records node ids in the *original* AST; map them back
  // to source positions for the facts.
  std::unordered_map<uint32_t, SourceLoc> Locs;
  forEachExpr(Program.root(),
              [&](const Expr *E) { Locs.emplace(E->id(), E->loc()); });
  auto LocOf = [&](uint32_t Id) {
    auto It = Locs.find(Id);
    return It == Locs.end() ? SourceLoc::invalid() : It->second;
  };

  std::unordered_map<uint32_t, uint32_t> VersionFacts; // primed sym -> fact
  for (ReuseVersion &V : Reuse.Versions) {
    SourceLoc Loc = V.DconsSites.empty() ? SourceLoc::invalid()
                                         : LocOf(V.DconsSites.front());
    uint32_t VF = Prov.fresh(
        explain::FactKind::Decision,
        "reuse version " + std::string(Ast.spelling(V.Primed)) + " of " +
            std::string(Ast.spelling(V.Original)) + " (parameter " +
            std::to_string(V.ParamIndex + 1) + ")",
        "in-place reuse via DCONS (§6/A.3.2)", Loc);
    if (const FunctionEscape *FE = BaseEscape.find(V.Original))
      if (V.ParamIndex < FE->Params.size())
        Prov.depend(VF, FE->Params[V.ParamIndex].Prov);
    Prov.result(VF, std::to_string(V.DconsSites.size()) +
                        " cons site(s) rewritten to DCONS");
    V.ProvenanceRef = VF;
    VersionFacts.emplace(V.Primed.id(), VF);
  }

  for (CallRetarget &R : Reuse.Retargets) {
    uint32_t RF = Prov.fresh(
        explain::FactKind::Decision,
        "retarget call " + std::string(Ast.spelling(R.From)) + " -> " +
            std::string(Ast.spelling(R.To)),
        "Theorem 2 reuse budget >= 1 (§6)", LocOf(R.CalleeVarId));
    auto It = VersionFacts.find(R.To.id());
    if (It != VersionFacts.end())
      Prov.depend(RF, It->second);
    Prov.result(RF, R.InPrimedBody ? "recursive site inside primed body"
                                   : "call site in base program");
    R.ProvenanceRef = RF;
  }
}

/// Publishes the optimizer's decision counts into the metrics registry:
/// how many reuse versions / DCONS sites the transformation produced and
/// how many arena directives (with their stack/region site split) the
/// planner emitted.
void recordDecisions(const OptimizedProgram &Out) {
  uint64_t DconsSites = 0;
  for (const ReuseVersion &V : Out.Reuse.Versions)
    DconsSites += V.DconsSites.size();
  uint64_t StackSites = 0, RegionSites = 0;
  for (const ArgArenaDirective &D : Out.Plan.Directives)
    for (const auto &[Id, Class] : D.Sites)
      (Class == ArenaSiteClass::Stack ? StackSites : RegionSites) += 1;

  obs::MetricsRegistry &Reg = obs::globalMetrics();
  Reg.counter("opt.reuse.versions").add(Out.Reuse.Versions.size());
  Reg.counter("opt.reuse.dcons_sites").add(DconsSites);
  Reg.counter("opt.reuse.retargets").add(Out.Reuse.Retargets.size());
  Reg.counter("opt.plan.directives").add(Out.Plan.Directives.size());
  Reg.counter("opt.plan.stack_sites").add(StackSites);
  Reg.counter("opt.plan.region_sites").add(RegionSites);
  Reg.counter("escape.fixpoint_rounds").add(Out.BaseEscape.FixpointRounds);
  Reg.counter("escape.apply_cache_entries")
      .max(Out.BaseEscape.ApplyCacheEntries);
  Reg.counter("escape.distinct_values").max(Out.BaseEscape.DistinctValues);
}

} // namespace

std::optional<OptimizedProgram>
eal::optimizeProgram(AstContext &Ast, TypeContext &Types,
                     const TypedProgram &Program, DiagnosticEngine &Diags,
                     const OptimizerConfig &Config,
                     obs::PhaseTimer::PhaseTimes *PhaseMicrosOut) {
  OptimizedProgram Out;

  // Phase 1: analyze the original program.
  {
    obs::PhaseTimer T(PhaseMicrosOut, "escape");
    EscapeAnalyzer BaseAnalyzer(Ast, Program, Diags, 512, Config.Analysis);
    if (Config.Explain)
      BaseAnalyzer.attachProvenance(Config.Explain);
    Out.BaseEscape = BaseAnalyzer.analyzeProgram();
  }

  // Phase 2: in-place reuse (sharing analysis feeds the transformation).
  const Expr *FinalRoot = Program.root();
  if (Config.EnableReuse) {
    obs::PhaseTimer T(PhaseMicrosOut, "sharing");
    SharingAnalysis Sharing(Ast, Program, Out.BaseEscape);
    if (Config.Explain)
      Sharing.attachProvenance(Config.Explain);
    ReuseTransform Transform(Ast, Program, Out.BaseEscape, Sharing);
    if (auto Result = Transform.run()) {
      Out.Reuse = std::move(*Result);
      FinalRoot = Out.Reuse.NewRoot;
    }
    if (Config.Explain)
      recordReuseProvenance(Ast, Program, Out.BaseEscape, Out.Reuse,
                            *Config.Explain);
  }

  // Phase 3: re-type and re-analyze the final program. Re-inference runs
  // even when reuse changed nothing, because Out.Typed must cover
  // Out.Root; it is not cheap (about the cost of the first inference).
  Out.Root = FinalRoot;
  {
    obs::PhaseTimer T(PhaseMicrosOut, "retype");
    TypeInference TI(Ast, Types, Diags, Config.Mode);
    std::optional<TypedProgram> Retyped = TI.run(FinalRoot);
    if (!Retyped) {
      Diags.error(SourceLoc::invalid(),
                  "internal error: transformed program failed to typecheck");
      return std::nullopt;
    }
    Out.Typed = std::make_unique<TypedProgram>(std::move(*Retyped));
  }
  {
    obs::PhaseTimer T(PhaseMicrosOut, "final-escape");
    Out.FinalAnalyzer = std::make_unique<EscapeAnalyzer>(
        Ast, *Out.Typed, Diags, 512, Config.Analysis);
    if (Config.Explain)
      Out.FinalAnalyzer->attachProvenance(Config.Explain);
    Out.FinalEscape = Out.FinalAnalyzer->analyzeProgram();
  }

  // Phase 4: allocation planning on the final program.
  if (Config.EnableStack || Config.EnableRegion) {
    obs::PhaseTimer T(PhaseMicrosOut, "plan");
    AllocPlannerOptions PO;
    PO.EnableStack = Config.EnableStack;
    PO.EnableRegion = Config.EnableRegion;
    PO.Prov = Config.Explain;
    AllocPlanner Planner(Ast, *Out.Typed, *Out.FinalAnalyzer, PO);
    Out.Plan = Planner.run();
  }

  if (obs::metricsEnabled())
    recordDecisions(Out);
  return Out;
}
