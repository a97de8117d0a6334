//===- LiveAnalyzer.cpp ---------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "live/LiveAnalyzer.h"

#include "explain/Fixpoint.h"
#include "lang/AstUtils.h"
#include "support/SourceManager.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

using namespace eal;
using namespace eal::live;

//===----------------------------------------------------------------------===//
// The analyzer
//===----------------------------------------------------------------------===//

class LiveAnalyzer::Impl {
public:
  Impl(const AstContext &Ast, const Expr *Root, const TypedProgram *Typed,
       unsigned MaxRounds)
      : Ast(Ast), Root(Root), Typed(Typed),
        Solver(SummaryLattice{&Ast}, MaxRounds) {
    collectTops();
    enumerateSites();
  }

  const AstContext &Ast;
  const Expr *Root;
  const TypedProgram *Typed; // reporting refinement only; may be null

  uint32_t Ns = 0;
  uint32_t RootFact = explain::NoFact;
  bool FactsCreated = false;

  /// One top-level (letrec-chain) binding.
  struct TopEntry {
    Symbol Name;
    const Expr *Value = nullptr;
    SourceLoc Loc;
    bool IsLambda = false;
    bool Ambiguous = false; ///< name bound more than once in the chain
    unsigned Arity = 0;
    std::vector<Symbol> Params; ///< leading binders, for lambdas
    const Expr *Body = nullptr; ///< value stripped of leading binders
  };
  std::vector<TopEntry> TopOrder;
  std::unordered_map<Symbol, size_t> Tops; ///< name -> canonical (last) index
  const Expr *ProgramBody = nullptr;

  /// One memoized summary: the parameter demands of a binding under one
  /// result demand.
  struct Summary {
    const TopEntry *Fn = nullptr;
    std::vector<Demand> Params;
    bool operator==(const Summary &O) const { return Params == O.Params; }
  };
  /// Summaries as the solver's lattice: joined parameter by parameter,
  /// rendered as "x:<d,e>, y:...".
  struct SummaryLattice {
    using Value = Summary;
    const AstContext *Ast;
    Summary join(Summary A, const Summary &B) const {
      for (size_t I = 0; I != A.Params.size(); ++I)
        A.Params[I] = Demand::join(A.Params[I], B.Params[I]);
      return A;
    }
    std::string render(const Summary &S) const {
      std::string Out;
      for (size_t I = 0; I != S.Params.size(); ++I) {
        if (I)
          Out += ", ";
        Out += std::string(Ast->spelling(S.Fn->Params[I])) + ":" +
               S.Params[I].str();
      }
      return Out.empty() ? std::string("()") : Out;
    }
  };
  using Fixpoint = explain::FixpointSolver<SummaryLattice>;
  Fixpoint Solver;
  /// (binding, result demand) -> summary, ⊥-seeded.
  std::unordered_map<uint64_t, Fixpoint::Entry> Summaries;

  /// Bindings that escaped into first-class use: all params ⊤.
  std::unordered_set<Symbol> Worst;
  /// Accumulated demand on non-lambda top-level bindings.
  std::unordered_map<Symbol, Demand> TopDemand;

  /// Ordered by node id so every iteration (facts, report, JSON) is
  /// deterministic.
  std::map<uint32_t, SiteLive> Sites;

  /// Innermost liveness fact on whose behalf we are walking (summary
  /// being computed, or the program-result root).
  uint32_t CurFact = explain::NoFact;

  /// Lexical scope for lambda/let binders: name + accumulated demand,
  /// innermost last. Linear scans; nml scopes are tiny.
  std::vector<std::pair<Symbol, Demand>> Locals;

  //===--- Setup ----------------------------------------------------------==//

  void collectTops() {
    const Expr *E = Root;
    while (const auto *LR = dyn_cast<LetrecExpr>(E)) {
      for (const LetrecBinding &B : LR->bindings()) {
        TopEntry T;
        T.Name = B.Name;
        T.Value = B.Value;
        T.Loc = B.NameLoc.isValid() ? B.NameLoc : B.Value->loc();
        T.IsLambda = isa<LambdaExpr>(B.Value);
        if (T.IsLambda) {
          T.Arity = lambdaArity(B.Value);
          const Expr *V = B.Value;
          while (const auto *L = dyn_cast<LambdaExpr>(V)) {
            T.Params.push_back(L->param());
            V = L->body();
          }
          T.Body = V;
        }
        auto It = Tops.find(B.Name);
        if (It != Tops.end()) {
          // Re-bound name: summaries could conflate the two bodies.
          // Mark both ambiguous; calls fall back to the unknown-callee
          // rule and both values are walked under ⊤.
          TopOrder[It->second].Ambiguous = true;
          T.Ambiguous = true;
        }
        TopOrder.push_back(std::move(T));
        Tops[B.Name] = TopOrder.size() - 1;
      }
      E = LR->body();
    }
    ProgramBody = E;
  }

  void enumerateSites() {
    auto Scan = [&](const Expr *E, Symbol Ctx) {
      forEachAllocSite(E, [&](const Expr *Site, PrimOp Op) {
        Sites.emplace(Site->id(), SiteLive{Site, Op, {}, Ctx});
      });
    };
    for (const TopEntry &T : TopOrder)
      Scan(T.Value, T.Name);
    Scan(ProgramBody, Symbol::invalid());
  }

  void createFacts() {
    explain::ProvenanceRecorder *Prov = Solver.provenance();
    if (!Prov || FactsCreated)
      return;
    FactsCreated = true;
    Ns = Prov->allocNamespace();
    RootFact = Prov->fresh(explain::FactKind::Liveness, "program result",
                           "live-root: printed result fully demanded",
                           Root->loc());
    Prov->result(RootFact, Demand::top().str());
    for (auto &[Id, S] : Sites) {
      std::string Label = std::string("demand(") +
                          std::string(primOpName(S.Op)) + " @" +
                          std::to_string(Id) + ")";
      S.Fact = Prov->create(explain::FactKind::Liveness, Ns, Id,
                            std::move(Label), "site-demand (join over uses)",
                            S.Site->loc());
    }
  }

  //===--- Lattice bookkeeping --------------------------------------------==//

  /// Joins \p D into \p Into; a rise forces another round.
  bool raise(Demand &Into, Demand D) {
    Demand J = Demand::join(Into, D);
    if (J == Into)
      return false;
    Into = J;
    Solver.markChanged();
    return true;
  }

  void joinSite(uint32_t Id, Demand D) {
    auto It = Sites.find(Id);
    explain::ProvenanceRecorder *Prov = Solver.provenance();
    if (It != Sites.end() && raise(It->second.Dem, D) && Prov &&
        It->second.Fact != explain::NoFact && CurFact != explain::NoFact)
      Prov->depend(It->second.Fact, CurFact);
  }

  void markWorst(Symbol Name) {
    if (Worst.insert(Name).second)
      Solver.markChanged();
  }

  /// Joins \p D into the innermost local binding of \p Name. Returns
  /// false if no local scope binds it.
  bool joinLocal(Symbol Name, Demand D) {
    for (auto It = Locals.rbegin(); It != Locals.rend(); ++It)
      if (It->first == Name) {
        It->second = Demand::join(It->second, D);
        return true;
      }
    return false;
  }

  bool isLocal(Symbol Name) const {
    for (auto It = Locals.rbegin(); It != Locals.rend(); ++It)
      if (It->first == Name)
        return true;
    return false;
  }

  //===--- Summaries ------------------------------------------------------==//

  static uint64_t summaryKey(Symbol Fn, Demand D) {
    return (1ULL << 48) | (static_cast<uint64_t>(Fn.id()) << 16) | D.encode();
  }

  /// The call-site query: parameter demands of lambda binding \p T
  /// under result demand \p D. Worst-cased bindings answer ⊤ everywhere
  /// but their body is still walked (under ⊤) so their sites accrue
  /// demand.
  std::vector<Demand> summaryFor(const TopEntry &T, Demand D) {
    if (T.Ambiguous)
      return std::vector<Demand>(T.Arity, Demand::top());
    if (Worst.count(T.Name)) {
      computeEntry(T, Demand::top());
      return std::vector<Demand>(T.Arity, Demand::top());
    }
    return computeEntry(T, D);
  }

  /// The summary of canonical lambda binding \p T under demand \p D.
  std::vector<Demand> computeEntry(const TopEntry &T, Demand D) {
    D = D.normalized();
    uint64_t Key = summaryKey(T.Name, D);
    auto [It, IsNew] = Summaries.try_emplace(Key);
    Fixpoint::Entry &E = It->second;
    if (IsNew)
      E.Val = Summary{&T, std::vector<Demand>(T.Arity, Demand::bottom())};
    Solver.evaluate(
        E,
        {explain::FactKind::Liveness, Ns, Key, "live-summary (backward)",
         T.Loc},
        [&] {
          return std::string("live ") + std::string(Ast.spelling(T.Name)) +
                 " @ " + D.str();
        },
        [&](uint32_t Fact) {
          size_t Base = Locals.size();
          for (Symbol P : T.Params)
            Locals.emplace_back(P, Demand::bottom());
          uint32_t SavedFact = CurFact;
          CurFact = Fact;
          walk(T.Body, D);
          CurFact = SavedFact;
          Summary Collected{&T, std::vector<Demand>(T.Arity)};
          for (size_t I = 0; I != T.Arity; ++I)
            Collected.Params[I] = Locals[Base + I].second;
          Locals.resize(Base);
          return Collected;
        });
    return E.Val.Params;
  }

  //===--- The backward walk ----------------------------------------------==//

  /// Transfer for one saturated primitive application. \p SiteId is the
  /// outermost App node id — exactly what the engines tag cells with.
  void primCall(PrimOp Op, uint32_t SiteId, std::span<const Expr *const> Args,
                Demand D) {
    switch (Op) {
    case PrimOp::Cons:
      joinSite(SiteId, D);
      walk(Args[0], D.Depth > 0 && D.Car ? Demand::top() : Demand::bottom());
      walk(Args[1], D.tail());
      return;
    case PrimOp::MkPair:
      joinSite(SiteId, D);
      walk(Args[0], D.Depth > 0 && D.Car ? Demand::top() : Demand::bottom());
      walk(Args[1], D.Depth > 0 && D.Snd ? Demand::top() : Demand::bottom());
      return;
    case PrimOp::DCons:
      // The overwrite reads nothing from the reused cell: p itself is
      // dead data as far as field reads go. The new incarnation's
      // demand is the dcons site's.
      joinSite(SiteId, D);
      walk(Args[0], Demand::bottom());
      walk(Args[1], D.Depth > 0 && D.Car ? Demand::top() : Demand::bottom());
      walk(Args[2], D.tail());
      return;
    case PrimOp::Car:
    case PrimOp::Fst:
      // Strict: the field read executes whether or not the element is
      // used, so this is unconditionally a depth-1, car-field touch.
      // The element value's own demand is soaked up by the ⊤-element
      // rule at whichever cons/mkpair stored it.
      walk(Args[0], Demand{1, true, false});
      return;
    case PrimOp::Snd:
      walk(Args[0], Demand{1, false, true});
      return;
    case PrimOp::Cdr:
      // One cell touched, then the context reaches D.Depth further.
      walk(Args[0], D.viaCdr());
      return;
    case PrimOp::Null:
      // A tag test, not a field read (the runtime oracle agrees).
      walk(Args[0], Demand::bottom());
      return;
    default:
      // Arithmetic / comparison / not: scalar consumers.
      for (const Expr *A : Args)
        walk(A, Demand::bottom());
      return;
    }
  }

  /// Analyzes \p E under result demand \p D. Always descends: in a
  /// strict language a subterm's evaluation (and its field reads)
  /// happens even when its value is dead.
  void walk(const Expr *E, Demand D) {
    D = D.normalized();
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
      return;
    case ExprKind::Prim: {
      // A first-class allocator is a site: cells allocated through the
      // resulting prim closure carry this node's id; demand unknowable —
      // ⊤. Any other primitive is no site, and joinSite ignores it.
      joinSite(E->id(), Demand::top());
      return;
    }
    case ExprKind::Var: {
      const auto *V = cast<VarExpr>(E);
      if (joinLocal(V->name(), D))
        return;
      auto It = Tops.find(V->name());
      if (It != Tops.end()) {
        const TopEntry &T = TopOrder[It->second];
        if (T.IsLambda)
          // First-class use of a function binding (argument position,
          // stored in data, returned): callers are invisible — worst.
          markWorst(V->name());
        else
          raise(TopDemand[V->name()], D); // default ⊥
      }
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      walk(I->cond(), Demand::bottom());
      walk(I->thenExpr(), D);
      walk(I->elseExpr(), D);
      return;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      Locals.emplace_back(L->name(), Demand::bottom());
      walk(L->body(), D);
      Demand VD = Locals.back().second;
      Locals.pop_back();
      walk(L->value(), VD);
      return;
    }
    case ExprKind::Lambda: {
      // A closure value: application contexts are unknown, so the body
      // is analyzed under ⊤ and argument demands are accounted at the
      // (unknown-callee) apply sites. Free variables accrue demand to
      // the enclosing scopes — the captured data really is reachable
      // for as long as the closure is.
      const auto *L = cast<LambdaExpr>(E);
      Locals.emplace_back(L->param(), Demand::bottom());
      walk(L->body(), Demand::top());
      Locals.pop_back();
      return;
    }
    case ExprKind::Letrec: {
      // A nested letrec (the top-level chain is unwrapped before the
      // walk): conservative — every binding value under ⊤, calls to
      // its names resolve as unknown callees.
      const auto *LR = cast<LetrecExpr>(E);
      size_t Base = Locals.size();
      for (const LetrecBinding &B : LR->bindings())
        Locals.emplace_back(B.Name, Demand::bottom());
      walk(LR->body(), D);
      for (const LetrecBinding &B : LR->bindings())
        walk(B.Value, Demand::top());
      Locals.resize(Base);
      return;
    }
    case ExprKind::App: {
      std::vector<const Expr *> Args;
      const Expr *Callee = uncurryCall(E, Args);
      if (const auto *P = dyn_cast<PrimExpr>(Callee)) {
        if (Args.size() == primOpArity(P->op())) {
          primCall(P->op(), E->id(), Args, D);
          return;
        }
        // Partial primitive application: walk the prim (tags its
        // first-class site ⊤) and the args under ⊤.
        walk(P, Demand::top());
        for (const Expr *A : Args)
          walk(A, Demand::top());
        return;
      }
      if (const auto *V = dyn_cast<VarExpr>(Callee);
          V && !isLocal(V->name())) {
        auto It = Tops.find(V->name());
        if (It != Tops.end() && TopOrder[It->second].IsLambda &&
            !TopOrder[It->second].Ambiguous) {
          const TopEntry &T = TopOrder[It->second];
          if (Args.size() == T.Arity) {
            std::vector<Demand> Ps = summaryFor(T, D);
            for (size_t I = 0; I != Args.size(); ++I)
              walk(Args[I], Ps[I]);
            return;
          }
          // Partial or over-application: the (possibly intermediate)
          // closure escapes the summary machinery.
          markWorst(V->name());
          for (const Expr *A : Args)
            walk(A, Demand::top());
          return;
        }
      }
      // Unknown callee (closure-valued expression, local binding,
      // ambiguous name): everything ⊤.
      walk(Callee, Demand::top());
      for (const Expr *A : Args)
        walk(A, Demand::top());
      return;
    }
    }
  }

  //===--- Rounds ---------------------------------------------------------==//

  void pass() {
    // Consumers before producers: the program body demands the result
    // (⊤), then binding values under their accumulated demand, newest
    // first.
    uint32_t SavedFact = CurFact;
    CurFact = RootFact;
    walk(ProgramBody, Demand::top());
    for (size_t I = TopOrder.size(); I-- > 0;) {
      const TopEntry &T = TopOrder[I];
      bool Canonical = Tops.at(T.Name) == I;
      if (!T.IsLambda) {
        Demand D = Demand::bottom();
        if (Canonical) {
          auto It = TopDemand.find(T.Name);
          if (It != TopDemand.end())
            D = It->second;
        } else {
          D = Demand::top(); // shadowed duplicate: be conservative
        }
        walk(T.Value, D);
        continue;
      }
      if (!Canonical || T.Ambiguous) {
        walk(T.Value, Demand::top()); // Lambda case: body under ⊤
        continue;
      }
      if (Worst.count(T.Name))
        computeEntry(T, Demand::top());
      // Non-worst lambdas are walked on demand, via call-site
      // summaries. Never-called ones never run: their sites stay ⊥,
      // vacuously safe.
    }
    CurFact = SavedFact;
  }

  //===--- Drivers --------------------------------------------------------==//

  LiveReport run() {
    createFacts();
    Solver.run([&] { pass(); });
    if (Solver.budgetHit())
      // Did not converge (round budget): forcing every site live keeps
      // the dead-site claims sound.
      for (auto &[Id, S] : Sites)
        joinSite(Id, Demand::top());

    LiveReport R;
    R.Rounds = Solver.totalRounds();
    R.SummaryEntries = Summaries.size();
    R.IterationLimitHit = Solver.budgetHit();
    // Per function, the join over every analyzed result demand (⊤
    // dominates when the function was called from a fully demanded
    // context).
    std::unordered_map<Symbol, std::vector<Demand>> Joined;
    for (const auto &[Key, E] : Summaries) {
      auto [It, IsNew] = Joined.try_emplace(E.Val.Fn->Name, E.Val.Params);
      for (size_t P = 0; !IsNew && P != It->second.size(); ++P)
        It->second[P] = Demand::join(It->second[P], E.Val.Params[P]);
    }
    for (size_t I = 0; I != TopOrder.size(); ++I) {
      const TopEntry &T = TopOrder[I];
      if (!T.IsLambda || Tops.at(T.Name) != I)
        continue;
      FunctionLive F;
      F.Name = T.Name;
      F.Loc = T.Loc;
      F.Arity = T.Arity;
      F.ParamNames = T.Params;
      F.WorstCased = Worst.count(T.Name) || T.Ambiguous;
      auto It = Joined.find(T.Name);
      if (F.WorstCased)
        F.Params.assign(T.Arity, Demand::top());
      else if (It != Joined.end())
        F.Params = It->second;
      else // never called
        F.Params.assign(T.Arity, Demand::bottom());
      R.Functions.push_back(std::move(F));
    }
    // Sites inside a function that was never analyzed (no summary, not
    // worst-cased, unambiguous) sit in code the program can never run:
    // their ⊥ is dead *code*, which the dead-data lint must not claim
    // credit for.
    auto unreached = [&](Symbol Ctx) {
      if (!Ctx.isValid())
        return false; // program body always runs
      auto It = Tops.find(Ctx);
      if (It == Tops.end())
        return false;
      const TopEntry &T = TopOrder[It->second];
      if (!T.IsLambda || T.Ambiguous || Worst.count(Ctx))
        return false;
      return !Joined.count(Ctx);
    };
    explain::ProvenanceRecorder *Prov = Solver.provenance();
    for (auto [Id, S] : Sites) {
      S.Unreached = unreached(S.Context);
      R.Sites.push_back(S);
      if (Prov)
        Prov->result(S.Fact, S.Dem.str());
    }
    return R;
  }

  std::vector<Demand> functionDemand(Symbol Fn, Demand Result) {
    auto It = Tops.find(Fn);
    if (It == Tops.end() || !TopOrder[It->second].IsLambda)
      return {};
    const TopEntry &T = TopOrder[It->second];
    createFacts();
    std::vector<Demand> Ps;
    Solver.run([&] { Ps = summaryFor(T, Result); });
    if (Solver.budgetHit())
      return std::vector<Demand>(T.Arity, Demand::top());
    return Ps;
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

LiveAnalyzer::LiveAnalyzer(const AstContext &Ast, const Expr *Root,
                           const TypedProgram *Typed, unsigned MaxRounds)
    : TheImpl(std::make_unique<Impl>(Ast, Root, Typed, MaxRounds)) {}

LiveAnalyzer::~LiveAnalyzer() = default;

void LiveAnalyzer::attachProvenance(explain::ProvenanceRecorder *P) {
  TheImpl->Solver.attachProvenance(P);
}

LiveReport LiveAnalyzer::run() { return TheImpl->run(); }

std::vector<Demand> LiveAnalyzer::functionDemand(Symbol Fn, Demand Result) {
  return TheImpl->functionDemand(Fn, Result);
}

//===----------------------------------------------------------------------===//
// LiveReport
//===----------------------------------------------------------------------===//

const FunctionLive *LiveReport::find(Symbol Name) const {
  for (const FunctionLive &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const SiteLive *LiveReport::findSite(uint32_t Id) const {
  for (const SiteLive &S : Sites)
    if (S.Site->id() == Id)
      return &S;
  return nullptr;
}

std::unordered_set<uint32_t> LiveReport::deadSites() const {
  std::unordered_set<uint32_t> Dead;
  for (const SiteLive &S : Sites)
    if (S.Dem.isBottom())
      Dead.insert(S.Site->id());
  return Dead;
}

size_t LiveReport::deadSiteCount() const {
  size_t N = 0;
  for (const SiteLive &S : Sites)
    N += S.Dem.isBottom();
  return N;
}

namespace {

void renderSiteLoc(std::ostringstream &OS, const SourceManager &SM,
                   const SiteLive &S) {
  LineColumn LC = SM.lineColumn(S.Site->loc());
  OS << LC.Line << ':' << LC.Column;
}

} // namespace

std::string LiveReport::render(const AstContext &Ast,
                               const SourceManager &SM) const {
  std::ostringstream OS;
  OS << "liveness: " << Rounds << " round(s), " << SummaryEntries
     << " summary entrie(s), " << Sites.size() << " allocation site(s), "
     << deadSiteCount() << " dead\n";
  if (IterationLimitHit)
    OS << "  (round budget exhausted; demands forced to top)\n";
  for (const FunctionLive &F : Functions) {
    OS << "function " << Ast.spelling(F.Name) << '/' << F.Arity << ':';
    if (F.WorstCased)
      OS << " (worst-cased: escapes into first-class use)";
    OS << '\n';
    for (size_t I = 0; I != F.Params.size(); ++I)
      OS << "  " << Ast.spelling(F.ParamNames[I]) << " -> "
         << F.Params[I].str() << '\n';
  }
  for (const SiteLive &S : Sites) {
    OS << "site " << S.Site->id() << " (" << primOpName(S.Op) << ") at ";
    renderSiteLoc(OS, SM, S);
    OS << " in "
       << (S.Context.isValid() ? Ast.spelling(S.Context) : "<program>")
       << ": " << S.Dem.str();
    if (S.Dem.isBottom())
      OS << (S.Unreached ? "  [dead code]" : "  [dead data]");
    OS << '\n';
  }
  return OS.str();
}

namespace {

/// JSON depth encoding: Inf -> -1.
int jsonDepth(Demand D) { return D.Depth == Demand::Inf ? -1 : D.Depth; }

void demandJson(std::ostringstream &OS, Demand D) {
  OS << "\"depth\": " << jsonDepth(D) << ", \"car\": "
     << (D.Car ? "true" : "false") << ", \"snd\": "
     << (D.Snd ? "true" : "false") << ", \"rendered\": "
     << obs::jsonQuote(D.str());
}

} // namespace

std::string LiveReport::toJson(const AstContext &Ast, const SourceManager &SM,
                               const std::string &Command,
                               bool Success) const {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"schema\": \"eal-live-v1\",\n"
     << "  \"command\": " << obs::jsonQuote(Command) << ",\n"
     << "  \"file\": " << obs::jsonQuote(SM.name()) << ",\n"
     << "  \"success\": " << (Success ? "true" : "false") << ",\n"
     << "  \"summary\": {\"rounds\": " << Rounds
     << ", \"summaries\": " << SummaryEntries
     << ", \"functions\": " << Functions.size()
     << ", \"sites\": " << Sites.size()
     << ", \"dead_sites\": " << deadSiteCount() << ", \"converged\": "
     << (IterationLimitHit ? "false" : "true") << "},\n"
     << "  \"functions\": [";
  for (size_t I = 0; I != Functions.size(); ++I) {
    const FunctionLive &F = Functions[I];
    LineColumn LC = SM.lineColumn(F.Loc);
    OS << (I ? "," : "") << "\n    {\"name\": "
       << obs::jsonQuote(std::string(Ast.spelling(F.Name)))
       << ", \"line\": " << LC.Line << ", \"col\": " << LC.Column
       << ", \"arity\": " << F.Arity << ", \"worst\": "
       << (F.WorstCased ? "true" : "false") << ", \"params\": [";
    for (size_t P = 0; P != F.Params.size(); ++P) {
      OS << (P ? ", " : "") << "{\"index\": " << P << ", \"name\": "
         << obs::jsonQuote(std::string(Ast.spelling(F.ParamNames[P])))
         << ", ";
      demandJson(OS, F.Params[P]);
      OS << "}";
    }
    OS << "]}";
  }
  OS << (Functions.empty() ? "]" : "\n  ]") << ",\n  \"sites\": [";
  for (size_t I = 0; I != Sites.size(); ++I) {
    const SiteLive &S = Sites[I];
    LineColumn LC = SM.lineColumn(S.Site->loc());
    OS << (I ? "," : "") << "\n    {\"id\": " << S.Site->id()
       << ", \"op\": " << obs::jsonQuote(std::string(primOpName(S.Op)))
       << ", \"context\": "
       << obs::jsonQuote(S.Context.isValid()
                             ? std::string(Ast.spelling(S.Context))
                             : std::string(""))
       << ", \"line\": " << LC.Line << ", \"col\": " << LC.Column << ", ";
    demandJson(OS, S.Dem);
    OS << ", \"dead\": " << (S.Dem.isBottom() ? "true" : "false")
       << ", \"unreached\": " << (S.Unreached ? "true" : "false") << "}";
  }
  OS << (Sites.empty() ? "]" : "\n  ]") << "\n}\n";
  return OS.str();
}
