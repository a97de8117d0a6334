//===- SpecPlanner.cpp ----------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "spec/SpecPlanner.h"

#include "lang/AstCloner.h"
#include "lang/AstUtils.h"
#include "opt/Optimizer.h"
#include "prof/Profiler.h"
#include "support/Diagnostics.h"
#include "types/Type.h"

#include <sstream>

using namespace eal;
using namespace eal::spec;

namespace {

/// At most this many guards per program (preorder over the AST).
constexpr unsigned MaxGuards = 16;

/// Clones the program with one if-branch pruned: the target If becomes
/// `let $spec = cond in kept` — the condition is still evaluated (so the
/// clone's heap behavior matches the real program up to the guard), but
/// only the kept branch's code exists for the analysis to reason about.
/// "$spec" starts with '$', which no nml identifier can, so the binding
/// cannot capture. Every clone node is mapped back to the original node
/// it was cloned from; the synthetic Let maps to the pruned If.
class PruneCloner : public AstCloner {
public:
  PruneCloner(AstContext &Ctx, const IfExpr *Target, const Expr *Kept,
              Symbol GuardSym,
              std::unordered_map<uint32_t, uint32_t> &CloneToOrig)
      : AstCloner(Ctx), Target(Target), Kept(Kept), GuardSym(GuardSym),
        Map(CloneToOrig) {}

protected:
  const Expr *rewrite(const Expr *E) override {
    const Expr *New;
    if (E == Target)
      New = Ctx.createLet(E->range(), GuardSym, clone(Target->cond()),
                          clone(Kept));
    else
      New = cloneDefault(E);
    Map.emplace(New->id(), E->id());
    return New;
  }

private:
  const IfExpr *Target;
  const Expr *Kept;
  Symbol GuardSym;
  std::unordered_map<uint32_t, uint32_t> &Map;
};

/// One prunable branch found by the profile scan.
struct Candidate {
  const IfExpr *If = nullptr;
  const Expr *Kept = nullptr;
  const Expr *Pruned = nullptr;
  uint64_t HotEntries = 0;
  uint64_t ColdEntries = 0;
};

uint64_t callArgKey(uint32_t CallAppId, unsigned ArgIndex) {
  return (static_cast<uint64_t>(CallAppId) << 32) | ArgIndex;
}

} // namespace

SpecPlan spec::planSpeculation(AstContext &Ast, const Expr *Root,
                               const AllocationPlan &Conservative,
                               const BranchProfile &Branches,
                               const prof::Profiler &Profile,
                               const OptimizerConfig &Config,
                               const SpecPlannerOptions &Options) {
  SpecPlan Plan;
  Plan.Merged.Directives = Conservative.Directives;

  // (call, argument) pairs already planned — conservatively or by an
  // earlier speculation. A speculative directive never displaces or
  // augments an existing one; it only fills holes the conservative
  // analysis had to leave.
  std::unordered_set<uint64_t> Occupied;
  for (const ArgArenaDirective &D : Conservative.Directives)
    Occupied.insert(callArgKey(D.CallAppId, D.ArgIndex));

  // Profile scan: ifs where exactly one branch is cold (at most
  // ColdMaxEntries entries) while the other actually ran. An if that
  // never executed at all has no evidence either way and is skipped.
  std::vector<Candidate> Candidates;
  forEachExpr(Root, [&](const Expr *E) {
    if (E->kind() != ExprKind::If)
      return;
    const auto *If = cast<IfExpr>(E);
    uint64_t ThenN = Branches.entries(If->thenExpr()->id());
    uint64_t ElseN = Branches.entries(If->elseExpr()->id());
    Candidate C;
    C.If = If;
    if (ElseN <= Options.ColdMaxEntries && ThenN > Options.ColdMaxEntries) {
      C.Kept = If->thenExpr();
      C.Pruned = If->elseExpr();
      C.HotEntries = ThenN;
      C.ColdEntries = ElseN;
    } else if (ThenN <= Options.ColdMaxEntries &&
               ElseN > Options.ColdMaxEntries) {
      C.Kept = If->elseExpr();
      C.Pruned = If->thenExpr();
      C.HotEntries = ElseN;
      C.ColdEntries = ThenN;
    } else {
      return;
    }
    Candidates.push_back(C);
  });

  Symbol GuardSym = Ast.intern("$spec");

  for (const Candidate &C : Candidates) {
    if (Plan.Specs.size() >= MaxGuards)
      break;
    // A branch can appear under at most one guard (nested prunable ifs
    // share deopt behavior anyway — the protocol is global).
    if (Plan.GuardsByBranch.count(C.Pruned->id()))
      continue;

    // Re-analyze the branch-pruned clone with scratch contexts: the
    // original program's types and diagnostics are never touched.
    std::unordered_map<uint32_t, uint32_t> CloneToOrig;
    PruneCloner Cloner(Ast, C.If, C.Kept, GuardSym, CloneToOrig);
    const Expr *CloneRoot = Cloner.clone(Root);

    DiagnosticEngine ScratchDiags;
    TypeContext ScratchTypes;
    TypeInference Inference(Ast, ScratchTypes, ScratchDiags, Config.Mode);
    std::optional<TypedProgram> Typed = Inference.run(CloneRoot);
    if (!Typed || ScratchDiags.hasErrors())
      continue;

    EscapeAnalyzer Analyzer(Ast, *Typed, ScratchDiags, 512, Config.Analysis);
    AllocPlannerOptions PlannerOptions;
    PlannerOptions.EnableStack = Config.EnableStack;
    PlannerOptions.EnableRegion = Config.EnableRegion;
    AllocPlanner Planner(Ast, *Typed, Analyzer, PlannerOptions);
    AllocationPlan ClonePlan = Planner.run();

    // Back-map the clone's directives onto the original AST, keeping
    // only the genuinely new ones (a hole in the conservative plan) that
    // are worth guarding (some covered site allocated hot in the
    // profile pre-run).
    std::vector<ArgArenaDirective> Mapped;
    bool SawHotSite = false;
    for (const ArgArenaDirective &D : ClonePlan.Directives) {
      auto CallIt = CloneToOrig.find(D.CallAppId);
      if (CallIt == CloneToOrig.end())
        continue;
      if (Occupied.count(callArgKey(CallIt->second, D.ArgIndex)))
        continue;
      ArgArenaDirective M;
      M.CallAppId = CallIt->second;
      M.ArgIndex = D.ArgIndex;
      M.Callee = D.Callee;
      M.ProtectedSpines = D.ProtectedSpines;
      bool AllSitesMapped = true;
      for (const auto &[CloneSite, Class] : D.Sites) {
        auto SiteIt = CloneToOrig.find(CloneSite);
        if (SiteIt == CloneToOrig.end()) {
          AllSitesMapped = false;
          break;
        }
        M.Sites.emplace(SiteIt->second, Class);
        const prof::SiteCounters *SC = Profile.site(SiteIt->second);
        if (SC &&
            SC->Allocs[static_cast<unsigned>(CellClass::Heap)] >=
                Options.HotMinAllocs)
          SawHotSite = true;
      }
      if (!AllSitesMapped || M.Sites.empty())
        continue;
      Mapped.push_back(std::move(M));
    }
    if (Mapped.empty() || !SawHotSite)
      continue;

    // Accept: record the speculation, arm its directives.
    uint32_t SpecIdx = static_cast<uint32_t>(Plan.Specs.size());
    Speculation S;
    S.IfExprId = C.If->id();
    S.GuardBranchId = C.Pruned->id();
    S.IfLoc = C.If->loc();
    S.GuardLoc = C.Pruned->loc();
    S.HotEntries = C.HotEntries;
    S.ColdEntries = C.ColdEntries;

    if (Config.Explain) {
      std::ostringstream Label, Result;
      Label << "speculate(if@" << C.If->id() << ", prune "
            << (C.Pruned == C.If->elseExpr() ? "else" : "then")
            << ", hot=" << C.HotEntries << ", cold=" << C.ColdEntries << ')';
      Result << Mapped.size() << " guarded directive(s)";
      S.ProvenanceRef = Config.Explain->fresh(
          explain::FactKind::Speculation, Label.str(),
          "partial escape analysis with deoptimization "
          "(docs/SPECULATION.md)",
          C.If->loc());
      Config.Explain->result(S.ProvenanceRef, Result.str());
    }

    for (ArgArenaDirective &M : Mapped) {
      M.SpecIndex = static_cast<int32_t>(SpecIdx);
      M.ProvenanceRef = S.ProvenanceRef;
      Occupied.insert(callArgKey(M.CallAppId, M.ArgIndex));
      S.DirectiveIndices.push_back(
          static_cast<uint32_t>(Plan.Merged.Directives.size()));
      Plan.Merged.Directives.push_back(std::move(M));
    }
    Plan.GuardsByBranch.emplace(S.GuardBranchId, SpecIdx);
    Plan.Specs.push_back(std::move(S));
  }

  Plan.Merged.index();
  return Plan;
}
