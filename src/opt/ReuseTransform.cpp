//===- ReuseTransform.cpp -------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "opt/ReuseTransform.h"

#include "lang/AstCloner.h"
#include "lang/AstUtils.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace eal;

namespace {

/// True if \p E is exactly `null x` for the variable \p X.
bool isNullTestOf(const Expr *E, Symbol X) {
  const auto *App = dyn_cast<AppExpr>(E);
  if (!App)
    return false;
  const auto *Prim = dyn_cast<PrimExpr>(App->fn());
  if (!Prim || Prim->op() != PrimOp::Null)
    return false;
  const auto *Var = dyn_cast<VarExpr>(App->arg());
  return Var && Var->name() == X;
}

/// True if \p X occurs free in \p E.
bool usesVar(const Expr *E, Symbol X) {
  std::vector<Symbol> Free = freeVariables(E);
  return std::find(Free.begin(), Free.end(), X) != Free.end();
}

/// True if any lambda nested inside \p E captures \p X (makes evaluation
/// order reasoning about X unsound).
bool lambdaCaptures(const Expr *E, Symbol X) {
  bool Captured = false;
  forEachExpr(E, [&](const Expr *Node) {
    if (Captured || !isa<LambdaExpr>(Node))
      return;
    if (usesVar(Node, X))
      Captured = true;
  });
  return Captured;
}

/// If \p E is exactly cdr^j (Var X), returns j.
std::optional<unsigned> cdrDepthOf(const Expr *E, Symbol X) {
  unsigned Depth = 0;
  for (;;) {
    if (const auto *Var = dyn_cast<VarExpr>(E))
      return Var->name() == X ? std::optional<unsigned>(Depth)
                              : std::nullopt;
    const auto *App = dyn_cast<AppExpr>(E);
    if (!App)
      return std::nullopt;
    const auto *Prim = dyn_cast<PrimExpr>(App->fn());
    if (!Prim || Prim->op() != PrimOp::Cdr)
      return std::nullopt;
    ++Depth;
    E = App->arg();
  }
}

/// Whether evaluating \p E may touch cells at index >= \p K (0-based) of
/// the list bound to \p X. A consumer of cdr^K X destroys exactly those
/// cells, so later evaluation is safe iff it stays below depth K:
/// car (cdr^j X) and dcons (cdr^j X) _ _ touch cell j (safe for j < K);
/// null (cdr^j X) touches cells < j only (safe for j <= K); a bare
/// cdr^j X whose value flows elsewhere may be walked arbitrarily deep.
bool usesBeyond(const Expr *E, Symbol X, unsigned K) {
  if (!usesVar(E, X))
    return false;
  std::vector<const Expr *> Args;
  const Expr *Callee = uncurryCall(E, Args);
  if (const auto *Prim = dyn_cast<PrimExpr>(Callee)) {
    if (Prim->op() == PrimOp::Car && Args.size() == 1)
      if (auto J = cdrDepthOf(Args[0], X))
        return *J >= K;
    if (Prim->op() == PrimOp::Null && Args.size() == 1)
      if (auto J = cdrDepthOf(Args[0], X))
        return *J > K;
    if (Prim->op() == PrimOp::DCons && Args.size() == 3)
      if (auto J = cdrDepthOf(Args[0], X))
        return *J >= K || usesBeyond(Args[1], X, K) ||
               usesBeyond(Args[2], X, K);
  }
  if (cdrDepthOf(E, X))
    return true; // the pointer escapes this context: unknown depth
  switch (E->kind()) {
  case ExprKind::App: {
    const auto *App = cast<AppExpr>(E);
    return usesBeyond(App->fn(), X, K) || usesBeyond(App->arg(), X, K);
  }
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    return usesBeyond(If->cond(), X, K) || usesBeyond(If->thenExpr(), X, K) ||
           usesBeyond(If->elseExpr(), X, K);
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    return usesBeyond(Let->value(), X, K) ||
           usesBeyond(Let->body(), X, K); // usesVar gate handles shadowing
  }
  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(E);
    for (const LetrecBinding &B : Letrec->bindings())
      if (usesBeyond(B.Value, X, K))
        return true;
    return usesBeyond(Letrec->body(), X, K);
  }
  case ExprKind::Lambda:
    return true; // captured and deferred: unknown depth and time
  default:
    return true; // a Var X occurrence we could not classify
  }
}

} // namespace

class ReuseTransform::Impl {
public:
  Impl(AstContext &Ast, const TypedProgram &Program,
       const ProgramEscapeReport &Escape, const SharingAnalysis &Sharing)
      : Ast(Ast), Program(Program), Escape(Escape), Sharing(Sharing) {}

  std::optional<ReuseTransformResult> run();

private:
  //===--- Candidate discovery ---------------------------------------------==//

  /// Collects cons sites in \p E where \p X is known non-nil. \p NonNil is
  /// the dominating fact at entry.
  void collectNonNilConses(const Expr *E, Symbol X, bool NonNil,
                           std::vector<const Expr *> &Out);

  /// Whether evaluation after \p Target completes (within \p Root) may
  /// touch cells at index >= \p K of the list bound to \p X. K = 0 means
  /// any use of X at all. Returns nullopt if Target does not occur in
  /// Root.
  std::optional<bool> usesAfter(const Expr *Root, const Expr *Target,
                                Symbol X, unsigned K = 0);

  /// Picks at most one qualifying cons per execution path, preferring the
  /// latest in evaluation order.
  std::vector<const Expr *>
  selectPerPath(const Expr *E,
                const std::unordered_set<const Expr *> &Qualifying);

  //===--- Rewriting ---------------------------------------------------------==//

  /// Computes call retargets within \p Body. \p Assume carries the
  /// primed-body sharing assumption (or null for base bodies). A retarget
  /// justified *only* by the assumption consumes (part of) the assumed
  /// variable \p AssumedVar itself, so it is additionally required to be
  /// the last use of that variable in the evaluation order of
  /// \p EvalScope — otherwise a later read would see destroyed cells.
  void computeRetargets(const Expr *Body, bool InPrimed,
                        const std::unordered_map<uint32_t, unsigned> *Assume,
                        Symbol AssumedVar, const Expr *EvalScope,
                        ReuseTransformResult &Result);

  AstContext &Ast;
  const TypedProgram &Program;
  const ProgramEscapeReport &Escape;
  const SharingAnalysis &Sharing;

  /// Primed name per (function symbol id, param index).
  std::unordered_map<uint64_t, Symbol> PrimedNames;
  /// Arity per top-level function name id.
  std::unordered_map<uint32_t, unsigned> Arities;
};

void ReuseTransform::Impl::collectNonNilConses(const Expr *E, Symbol X,
                                               bool NonNil,
                                               std::vector<const Expr *> &Out) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
  case ExprKind::Var:
  case ExprKind::Prim:
    return;
  case ExprKind::App: {
    const Expr *Head = nullptr, *Tail = nullptr;
    if (NonNil && matchConsApp(E, Head, Tail) == PrimOp::Cons)
      Out.push_back(E);
    const auto *App = cast<AppExpr>(E);
    collectNonNilConses(App->fn(), X, NonNil, Out);
    collectNonNilConses(App->arg(), X, NonNil, Out);
    return;
  }
  case ExprKind::Lambda:
    // Deferred evaluation: facts do not carry over, and candidates inside
    // are disqualified later anyway (usesAfter is conservative there).
    collectNonNilConses(cast<LambdaExpr>(E)->body(), X, false, Out);
    return;
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    collectNonNilConses(If->cond(), X, NonNil, Out);
    if (isNullTestOf(If->cond(), X)) {
      // then: X is nil; else: X is non-nil.
      collectNonNilConses(If->thenExpr(), X, false, Out);
      collectNonNilConses(If->elseExpr(), X, true, Out);
      return;
    }
    collectNonNilConses(If->thenExpr(), X, NonNil, Out);
    collectNonNilConses(If->elseExpr(), X, NonNil, Out);
    return;
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    collectNonNilConses(Let->value(), X, NonNil, Out);
    // Shadowing kills the fact (and any further candidates for X).
    collectNonNilConses(Let->body(), X, Let->name() != X && NonNil, Out);
    return;
  }
  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(E);
    bool Shadowed = Letrec->findBinding(X) != nullptr;
    for (const LetrecBinding &B : Letrec->bindings())
      collectNonNilConses(B.Value, X, false, Out);
    collectNonNilConses(Letrec->body(), X, !Shadowed && NonNil, Out);
    return;
  }
  }
  assert(false && "unhandled expression kind");
}

std::optional<bool> ReuseTransform::Impl::usesAfter(const Expr *Root,
                                                    const Expr *Target,
                                                    Symbol X, unsigned K) {
  if (Root == Target)
    return false;
  switch (Root->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
  case ExprKind::Var:
  case ExprKind::Prim:
    return std::nullopt;
  case ExprKind::App: {
    const auto *App = cast<AppExpr>(Root);
    if (auto In = usesAfter(App->fn(), Target, X, K))
      return *In || usesBeyond(App->arg(), X, K); // arg evaluates after fn
    if (auto In = usesAfter(App->arg(), Target, X, K))
      return *In; // the application itself cannot reference X (no capture)
    return std::nullopt;
  }
  case ExprKind::Lambda:
    if (auto In = usesAfter(cast<LambdaExpr>(Root)->body(), Target, X, K)) {
      (void)In;
      return true; // deferred body: evaluation order unknown
    }
    return std::nullopt;
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(Root);
    if (auto In = usesAfter(If->cond(), Target, X, K))
      return *In || usesBeyond(If->thenExpr(), X, K) ||
             usesBeyond(If->elseExpr(), X, K);
    if (auto In = usesAfter(If->thenExpr(), Target, X, K))
      return *In;
    if (auto In = usesAfter(If->elseExpr(), Target, X, K))
      return *In;
    return std::nullopt;
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(Root);
    if (auto In = usesAfter(Let->value(), Target, X, K))
      return *In ||
             (Let->name() != X && usesBeyond(Let->body(), X, K));
    if (auto In = usesAfter(Let->body(), Target, X, K))
      return *In;
    return std::nullopt;
  }
  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(Root);
    auto Bindings = Letrec->bindings();
    bool Shadowed = Letrec->findBinding(X) != nullptr;
    for (size_t I = 0; I != Bindings.size(); ++I) {
      if (auto In = usesAfter(Bindings[I].Value, Target, X, K)) {
        bool After = *In;
        for (size_t J = I + 1; J != Bindings.size(); ++J)
          After = After || (!Shadowed && usesBeyond(Bindings[J].Value, X, K));
        After = After || (!Shadowed && usesBeyond(Letrec->body(), X, K));
        return After;
      }
    }
    if (auto In = usesAfter(Letrec->body(), Target, X, K))
      return *In;
    return std::nullopt;
  }
  }
  assert(false && "unhandled expression kind");
  return std::nullopt;
}

std::vector<const Expr *> ReuseTransform::Impl::selectPerPath(
    const Expr *E, const std::unordered_set<const Expr *> &Qualifying) {
  // Outermost qualifying cons wins its whole path.
  if (Qualifying.count(E))
    return {E};
  switch (E->kind()) {
  case ExprKind::App: {
    const auto *App = cast<AppExpr>(E);
    // Prefer the later-evaluated operand (the argument).
    std::vector<const Expr *> Sel = selectPerPath(App->arg(), Qualifying);
    if (!Sel.empty())
      return Sel;
    return selectPerPath(App->fn(), Qualifying);
  }
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    // Branches are exclusive paths: one selection each is fine. Skip the
    // condition (it evaluates before either branch; selecting in both
    // would double-reuse).
    std::vector<const Expr *> Sel = selectPerPath(If->thenExpr(), Qualifying);
    std::vector<const Expr *> Else = selectPerPath(If->elseExpr(), Qualifying);
    Sel.insert(Sel.end(), Else.begin(), Else.end());
    return Sel;
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    std::vector<const Expr *> Sel = selectPerPath(Let->body(), Qualifying);
    if (!Sel.empty())
      return Sel;
    return selectPerPath(Let->value(), Qualifying);
  }
  case ExprKind::Letrec:
    return selectPerPath(cast<LetrecExpr>(E)->body(), Qualifying);
  default:
    return {};
  }
}

void ReuseTransform::Impl::computeRetargets(
    const Expr *Body, bool InPrimed,
    const std::unordered_map<uint32_t, unsigned> *Assume, Symbol AssumedVar,
    const Expr *EvalScope, ReuseTransformResult &Result) {
  forEachExpr(Body, [&](const Expr *Node) {
    std::vector<const Expr *> Args;
    const Expr *Callee = uncurryCall(Node, Args);
    const auto *Var = dyn_cast<VarExpr>(Callee);
    if (!Var || Args.empty())
      return;
    auto ArityIt = Arities.find(Var->name().id());
    if (ArityIt == Arities.end() || ArityIt->second != Args.size())
      return; // not a saturated top-level call
    // Find a version of this callee whose reuse budget the actual
    // argument satisfies.
    for (unsigned I = 0; I != Args.size(); ++I) {
      auto It = PrimedNames.find(
          (static_cast<uint64_t>(Var->name().id()) << 32) | I);
      if (It == PrimedNames.end())
        continue;
      // A budget derived without assumptions means the argument is a
      // fresh structure per evaluation: consuming it is always safe. A
      // budget that *needs* the unshared-parameter assumption consumes
      // the assumed variable's own cells, so this call must be the last
      // use of that variable in evaluation order.
      unsigned Budget =
          Sharing.reusableTopSpines(Var->name(), I, Args[I], nullptr);
      if (Budget == 0 && Assume) {
        if (Sharing.reusableTopSpines(Var->name(), I, Args[I], Assume) ==
            0)
          continue;
        // The consumer destroys cells at depth >= K of the assumed
        // variable, where the argument is cdr^K of it (K = 0 when the
        // derivation is anything more complex).
        unsigned Depth = cdrDepthOf(Args[I], AssumedVar).value_or(0);
        std::optional<bool> After =
            usesAfter(EvalScope, Node, AssumedVar, Depth);
        if (!After || *After)
          continue; // cells the consumer destroys are read later: unsafe
      } else if (Budget == 0) {
        continue;
      }
      CallRetarget RT;
      RT.CalleeVarId = Var->id();
      RT.From = Var->name();
      RT.To = It->second;
      RT.InPrimedBody = InPrimed;
      Result.Retargets.push_back(RT);
      return; // one retarget per call
    }
  });
}

namespace {

/// Clones a body applying DCONS rewrites and callee retargets.
class ReuseCloner : public AstCloner {
public:
  ReuseCloner(AstContext &Ctx, Symbol X,
              const std::unordered_set<const Expr *> &DconsSites,
              const std::unordered_map<uint32_t, Symbol> &Retargets)
      : AstCloner(Ctx), X(X), DconsSites(DconsSites), Retargets(Retargets) {}

protected:
  const Expr *rewrite(const Expr *E) override {
    if (DconsSites.count(E)) {
      const Expr *Head = nullptr, *Tail = nullptr;
      bool IsCons = matchConsApp(E, Head, Tail) == PrimOp::Cons;
      assert(IsCons && "dcons site is not a cons");
      (void)IsCons;
      const Expr *Prim = Ctx.createPrim(E->range(), PrimOp::DCons);
      const Expr *Args[] = {Ctx.createVar(E->range(), X), clone(Head),
                            clone(Tail)};
      return Ctx.createAppChain(E->range(), Prim, Args);
    }
    if (const auto *Var = dyn_cast<VarExpr>(E)) {
      auto It = Retargets.find(Var->id());
      if (It != Retargets.end())
        return Ctx.createVar(E->range(), It->second);
    }
    return nullptr;
  }

private:
  Symbol X;
  const std::unordered_set<const Expr *> &DconsSites;
  const std::unordered_map<uint32_t, Symbol> &Retargets;
};

} // namespace

std::optional<ReuseTransformResult> ReuseTransform::Impl::run() {
  const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
  if (!Letrec)
    return std::nullopt;

  ReuseTransformResult Result;

  for (const FunctionEscape &FE : Escape.Functions)
    Arities[FE.Name.id()] = FE.Arity;

  // Pass 1: discover reuse versions.
  struct VersionPlan {
    const LetrecBinding *Binding = nullptr;
    unsigned ParamIndex = 0;
    Symbol X;
    const Expr *InnerBody = nullptr;
    std::unordered_set<const Expr *> Sites;
  };
  std::vector<VersionPlan> Plans;

  for (const LetrecBinding &B : Letrec->bindings()) {
    const FunctionEscape *FE = Escape.find(B.Name);
    if (!FE)
      continue;
    // Peel all parameters first: f x1 ... xn = e is an n-ary function, and
    // primed versions are only ever called saturated, so evaluation-order
    // reasoning runs over the innermost body with every parameter bound.
    std::vector<Symbol> Params;
    const Expr *Body = B.Value;
    for (unsigned I = 0; I != FE->Arity; ++I) {
      const auto *Lambda = cast<LambdaExpr>(Body);
      Params.push_back(Lambda->param());
      Body = Lambda->body();
    }
    unsigned Primes = 0;
    for (unsigned I = 0; I != FE->Arity; ++I) {
      Symbol X = Params[I];
      const ParamEscape &PE = FE->Params[I];
      if (PE.ParamSpines == 0 || PE.protectedTopSpines() == 0)
        continue;
      // A later parameter shadowing X would confuse the rewrite; X
      // captured by a nested lambda defeats evaluation-order reasoning.
      if (std::count(Params.begin(), Params.end(), X) != 1)
        continue;
      if (lambdaCaptures(Body, X))
        continue;
      std::vector<const Expr *> Candidates;
      collectNonNilConses(Body, X, /*NonNil=*/false, Candidates);
      std::unordered_set<const Expr *> Qualifying;
      for (const Expr *Cand : Candidates) {
        // dcons is typed a list → a → a list → a list: the reused cell
        // must come from a list of the same element type as the cons it
        // replaces (cells are uniform at run time, but nml is typed).
        if (Program.typeOf(Cand) != PE.ParamType)
          continue;
        auto After = usesAfter(Body, Cand, X);
        if (After && !*After)
          Qualifying.insert(Cand);
      }
      if (Qualifying.empty())
        continue;
      std::vector<const Expr *> Selected = selectPerPath(Body, Qualifying);
      if (Selected.empty())
        continue;

      VersionPlan Plan;
      Plan.Binding = &B;
      Plan.ParamIndex = I;
      Plan.X = X;
      Plan.InnerBody = Body;
      Plan.Sites.insert(Selected.begin(), Selected.end());
      Plans.push_back(std::move(Plan));

      std::string Primed(Ast.spelling(B.Name));
      Primed.append(Primes + 1, '\'');
      ++Primes;
      Symbol PrimedSym = Ast.intern(Primed);
      PrimedNames[(static_cast<uint64_t>(B.Name.id()) << 32) | I] = PrimedSym;

      ReuseVersion RV;
      RV.Original = B.Name;
      RV.Primed = PrimedSym;
      RV.ParamIndex = I;
      for (const Expr *Site : Selected)
        RV.DconsSites.push_back(Site->id());
      std::sort(RV.DconsSites.begin(), RV.DconsSites.end());
      Result.Versions.push_back(std::move(RV));
    }
  }

  // Pass 2: compute call retargets. Base bodies use plain sharing facts;
  // each primed body additionally assumes its reused parameter's top
  // spine is unshared (the caller guarantees it).
  for (const LetrecBinding &B : Letrec->bindings())
    computeRetargets(B.Value, /*InPrimed=*/false, nullptr, Symbol::invalid(),
                     nullptr, Result);
  computeRetargets(Letrec->body(), /*InPrimed=*/false, nullptr,
                   Symbol::invalid(), nullptr, Result);

  struct PrimedRetargets {
    std::unordered_map<uint32_t, Symbol> Map;
  };
  std::vector<PrimedRetargets> PerPlan(Plans.size());

  std::unordered_map<uint32_t, Symbol> BaseRetargets;
  for (const CallRetarget &RT : Result.Retargets)
    BaseRetargets[RT.CalleeVarId] = RT.To;

  for (size_t P = 0; P != Plans.size(); ++P) {
    const VersionPlan &Plan = Plans[P];
    std::unordered_map<uint32_t, unsigned> Assume{{Plan.X.id(), 1}};
    ReuseTransformResult Local;
    computeRetargets(Plan.Binding->Value, /*InPrimed=*/true, &Assume, Plan.X,
                     Plan.InnerBody, Local);
    for (const CallRetarget &RT : Local.Retargets) {
      PerPlan[P].Map[RT.CalleeVarId] = RT.To;
      Result.Retargets.push_back(RT);
    }
  }

  // Pass 3: build the transformed program.
  std::unordered_set<const Expr *> NoSites;
  std::vector<LetrecBinding> NewBindings;
  for (const LetrecBinding &B : Letrec->bindings()) {
    LetrecBinding NB = B;
    ReuseCloner Cloner(Ast, Symbol::invalid(), NoSites, BaseRetargets);
    NB.Value = Cloner.clone(B.Value);
    NewBindings.push_back(NB);
  }
  for (size_t P = 0; P != Plans.size(); ++P) {
    const VersionPlan &Plan = Plans[P];
    const ReuseVersion &RV = Result.Versions[P];
    ReuseCloner Cloner(Ast, Plan.X, Plan.Sites, PerPlan[P].Map);
    LetrecBinding NB;
    NB.Name = RV.Primed;
    NB.NameLoc = Plan.Binding->NameLoc;
    NB.Value = Cloner.clone(Plan.Binding->Value);
    NewBindings.push_back(NB);
  }
  ReuseCloner BodyCloner(Ast, Symbol::invalid(), NoSites, BaseRetargets);
  const Expr *NewBody = BodyCloner.clone(Letrec->body());
  Result.NewRoot = Ast.createLetrec(Letrec->range(), NewBindings, NewBody);
  return Result;
}

std::optional<ReuseTransformResult> ReuseTransform::run() {
  Impl TheImpl(Ast, Program, Escape, Sharing);
  return TheImpl.run();
}

std::string eal::renderReuseReport(const AstContext &Ast,
                                   const ReuseTransformResult &Result) {
  std::ostringstream OS;
  for (const ReuseVersion &RV : Result.Versions)
    OS << "version " << Ast.spelling(RV.Primed) << ": reuses parameter "
       << (RV.ParamIndex + 1) << " of " << Ast.spelling(RV.Original) << " at "
       << RV.DconsSites.size() << " cons site(s)\n";
  for (const CallRetarget &RT : Result.Retargets)
    OS << "call retarget: " << Ast.spelling(RT.From) << " -> "
       << Ast.spelling(RT.To)
       << (RT.InPrimedBody ? " (inside reuse version)" : "") << "\n";
  return OS.str();
}
