//===- EscapeAnalyzer.cpp -------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "escape/EscapeAnalyzer.h"

#include "lang/AstUtils.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace eal;

EscapeAnalyzer::EscapeAnalyzer(const AstContext &Ast,
                               const TypedProgram &Program,
                               DiagnosticEngine &Diags, unsigned MaxRounds,
                               EscapeAnalysisMode Mode)
    : Ast(Ast), Program(Program), Diags(Diags), Mode(Mode),
      Solver(ValueLattice{&Store}, MaxRounds) {}

unsigned EscapeAnalyzer::modeSpineCount(const Type *T) const {
  return Mode == EscapeAnalysisMode::WholeObject ? 0 : spineCount(T);
}

void EscapeAnalyzer::attachProvenance(explain::ProvenanceRecorder *P) {
  Solver.attachProvenance(P);
  if (P) {
    ProvNs = P->allocNamespace();
    ProvLocalNs = P->allocNamespace();
  }
}

//===----------------------------------------------------------------------===//
// Fixpoint driver
//===----------------------------------------------------------------------===//

template <class RootFn>
ValueId EscapeAnalyzer::runToFixpoint(RootFn &&Root) {
  ValueId Result = Store.bottom();
  const uint64_t EvalsBefore = Solver.evaluations();
  const unsigned WideningsBefore = Widenings;
  if (Tracing)
    RoundChanges.clear();
  bool Converged = Solver.run([&] {
    Result = Root();
    // Convergence telemetry: how many cache entries moved up the lattice
    // this round (the final, stable round records 0).
    if (Tracing)
      RoundChanges.push_back(Solver.roundRaises());
  });
  if (!Converged)
    Diags.error(SourceLoc::invalid(),
                "escape analysis exceeded " +
                    std::to_string(Solver.maxRounds()) +
                    " fixpoint rounds; result is conservative");
  // The last round's entries are final (docs/INTERNALS.md §3) unless the
  // query widened (depth widening depends on the path an entry is reached
  // by), or the trace or the provenance recorder must see every
  // re-evaluation.
  if (Converged && Widenings == WideningsBefore && !Tracing &&
      !Solver.provenance())
    Solver.freezeLastRound();
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry &Reg = obs::globalMetrics();
    Reg.counter("escape.queries").add(1);
    Reg.counter("escape.body_evals").add(Solver.evaluations() - EvalsBefore);
    Reg.histogram("escape.fixpoint.rounds_per_query").record(Solver.rounds());
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Environments and letrec bindings
//===----------------------------------------------------------------------===//

const std::vector<Symbol> &EscapeAnalyzer::freeVarsOf(const Expr *E) {
  auto It = FreeVarCache.find(E->id());
  if (It != FreeVarCache.end())
    return It->second;
  return FreeVarCache.emplace(E->id(), freeVariables(E)).first->second;
}

EnvId EscapeAnalyzer::letrecBodyEnv(LetrecInstId Inst) {
  const LetrecInst &LI = Store.letrecInst(Inst);
  EnvId Env = LI.Outer;
  auto Bindings = LI.Node->bindings();
  for (uint32_t I = 0; I != Bindings.size(); ++I) {
    EnvBinding B;
    B.Name = Bindings[I].Name;
    B.Kind = EnvBindingKind::LetrecRef;
    B.Inst = Inst;
    B.Index = I;
    Env = Store.extend(Env, B);
  }
  return Env;
}

ValueId EscapeAnalyzer::materializeBinding(LetrecInstId Inst, uint32_t Index) {
  uint64_t Key = (static_cast<uint64_t>(Inst) << 32) | Index;
  Fixpoint::Entry &Entry = BindingCache[Key];
  const LetrecBinding &B = Store.letrecInst(Inst).Node->bindings()[Index];
  std::optional<bool> Grew = Solver.evaluate(
      Entry,
      {explain::FactKind::Binding, ProvNs, Key, "letrec-fix (§3.5)",
       B.Value->loc()},
      [&] { return std::string(Ast.spelling(B.Name)); },
      [&](uint32_t) { return eval(B.Value, letrecBodyEnv(Inst)); });
  if (Grew && Tracing)
    Trace.push_back({B.Name, Solver.rounds(), Store.str(Entry.Val), *Grew});
  return Entry.Val;
}

std::string EscapeAnalyzer::renderTrace() const {
  std::ostringstream OS;
  for (const FixpointTraceEntry &TE : Trace)
    OS << Ast.spelling(TE.Binding) << "^(" << TE.Round
       << ") = " << TE.Value << (TE.Changed ? "  (changed)" : "  (stable)")
       << '\n';
  return OS.str();
}

ValueId EscapeAnalyzer::resolveBinding(const EnvBinding &Binding) {
  if (Binding.Kind == EnvBindingKind::Value)
    return Binding.Val;
  return materializeBinding(Binding.Inst, Binding.Index);
}

EnvId EscapeAnalyzer::topEnv() {
  if (CachedTopEnv)
    return *CachedTopEnv;
  EnvId Env = Store.emptyEnv();
  if (const auto *Letrec = dyn_cast<LetrecExpr>(Program.root())) {
    LetrecInstId Inst = Store.internLetrecInst(Letrec, Store.emptyEnv());
    Env = letrecBodyEnv(Inst);
  }
  CachedTopEnv = Env;
  return Env;
}

//===----------------------------------------------------------------------===//
// Abstract evaluation (the E of §3.4)
//===----------------------------------------------------------------------===//

BasicEscape EscapeAnalyzer::closureGround(const LambdaExpr *Lambda,
                                          EnvId Env) {
  // V = ⟨0,0⟩ ⊔ ⨆_{z ∈ F} (env z)₍₁₎ where F is the set of free
  // identifiers of the lambda.
  BasicEscape V = BasicEscape::none();
  for (Symbol Name : freeVarsOf(Lambda)) {
    const EnvBinding *B = Store.lookup(Env, Name);
    if (!B)
      continue; // unbound: only possible in ill-typed fragments
    V = join(V, Store.ground(resolveBinding(*B)));
  }
  return V;
}

ValueId EscapeAnalyzer::eval(const Expr *E, EnvId Env) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
    // C[c] = ⟨⟨0,0⟩, err⟩; nil is ⊥ of its element domain.
    return Store.bottom();

  case ExprKind::Var: {
    const auto *Var = cast<VarExpr>(E);
    const EnvBinding *B = Store.lookup(Env, Var->name());
    if (!B) {
      Diags.error(E->loc(), "escape analysis: unbound identifier '" +
                                std::string(Ast.spelling(Var->name())) + "'");
      return Store.bottom();
    }
    return resolveBinding(*B);
  }

  case ExprKind::Prim: {
    const auto *Prim = cast<PrimExpr>(E);
    // Whole-object mode erases spine grading: car behaves like cdr
    // (identity), encoded as car^0.
    unsigned CarSpines = 0;
    if (Prim->op() == PrimOp::Car &&
        Mode == EscapeAnalysisMode::SpineAware)
      CarSpines = Program.carSpine(E);
    return Store.makePrim(Prim->op(), CarSpines);
  }

  case ExprKind::App: {
    const auto *App = cast<AppExpr>(E);
    ValueId Fn = eval(App->fn(), Env);
    ValueId Arg = eval(App->arg(), Env);
    return apply(Fn, Arg);
  }

  case ExprKind::Lambda: {
    const auto *Lambda = cast<LambdaExpr>(E);
    BasicEscape V = closureGround(Lambda, Env);
    EnvId Restricted = Store.restrict(Env, freeVarsOf(Lambda));
    return Store.makeClosure(V, Lambda, Restricted);
  }

  case ExprKind::If: {
    // Both branches may be taken at compile time: join them (§3.4). The
    // condition is boolean and contributes nothing to the result.
    const auto *If = cast<IfExpr>(E);
    (void)eval(If->cond(), Env);
    ValueId Then = eval(If->thenExpr(), Env);
    ValueId Else = eval(If->elseExpr(), Env);
    return Store.joinValues(Then, Else);
  }

  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    ValueId Value = eval(Let->value(), Env);
    EnvBinding B;
    B.Name = Let->name();
    B.Kind = EnvBindingKind::Value;
    B.Val = Value;
    return eval(Let->body(), Store.extend(Env, B));
  }

  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(E);
    EnvId Outer = Store.restrict(Env, freeVarsOf(Letrec));
    LetrecInstId Inst = Store.internLetrecInst(Letrec, Outer);
    return eval(Letrec->body(), letrecBodyEnv(Inst));
  }
  }
  assert(false && "unhandled expression kind");
  return Store.bottom();
}

ValueId EscapeAnalyzer::apply(ValueId Fn, ValueId Arg) {
  const EscapeValue &Value = Store.value(Fn);
  // err applied: the standard semantics would be stuck, so ⊥ is safe.
  ValueId Result = Store.bottom();
  // Copy the atom list: applying atoms may intern new values and
  // invalidate the reference.
  std::vector<FnAtomId> Atoms = Value.Fns;
  for (FnAtomId Atom : Atoms)
    Result = Store.joinValues(Result, applyAtom(Atom, Arg));
  return Result;
}

ValueId EscapeAnalyzer::applyAtom(FnAtomId AtomId, ValueId Arg) {
  FnAtom Atom = Store.atom(AtomId); // copy: interning may reallocate
  switch (Atom.Kind) {
  case FnAtomKind::Prim:
    return applyPrim(Atom, Arg);
  case FnAtomKind::Worst:
    return applyWorst(Atom, Arg);
  case FnAtomKind::Pair:
    // Pairs are data, not functions; applying one is ill-typed and can
    // only arise transiently through joins. Bottom is safe (stuck).
    return Store.bottom();
  case FnAtomKind::Closure: {
    if (ApplyDepth >= MaxApplyDepth) {
      // A chain this deep means every level was a fresh (closure, arg)
      // cache key — a recursive function rebuilding a function argument
      // at each call. Widen the closure to W^τ ⊔ its captured ground
      // (Definition 2): above anything the closure's body can compute,
      // so the result is sound, and no new closures get interned, which
      // restores the finiteness the fixpoint termination argument needs.
      FnAtom W;
      W.Kind = FnAtomKind::Worst;
      W.WorstType = Program.typeOf(Atom.Lambda);
      W.WorstAcc = closureGround(Atom.Lambda, Atom.Env);
      ++Widenings;
      if (obs::metricsEnabled())
        obs::globalMetrics().counter("escape.apply.widenings").add(1);
      return applyWorst(W, Arg);
    }
    uint64_t Key = (static_cast<uint64_t>(AtomId) << 32) | Arg;
    Fixpoint::Entry &Entry = ApplyCache[Key];
    Solver.evaluate(
        Entry,
        {explain::FactKind::Apply, ProvNs, Key, "closure-apply (§3.4)",
         Atom.Lambda->loc()},
        [&] {
          return "apply λ" + std::string(Ast.spelling(Atom.Lambda->param())) +
                 " to " + Store.str(Arg);
        },
        [&](uint32_t) {
          EnvBinding B;
          B.Name = Atom.Lambda->param();
          B.Kind = EnvBindingKind::Value;
          B.Val = Arg;
          ++ApplyDepth;
          ValueId New = eval(Atom.Lambda->body(), Store.extend(Atom.Env, B));
          --ApplyDepth;
          return New;
        });
    return Entry.Val;
  }
  }
  assert(false && "unhandled atom kind");
  return Store.bottom();
}

ValueId EscapeAnalyzer::applyPrim(const FnAtom &Atom, ValueId Arg) {
  unsigned Arity = primOpArity(Atom.Op);
  unsigned Have = static_cast<unsigned>(Atom.Partial.size());
  assert(Have < Arity && "over-applied primitive");

  if (Have + 1 < Arity) {
    // Partial application: ⟨⊔ grounds of consumed args, continuation⟩
    // (C[cons] x = ⟨x₍₁₎, λy. x ⊔ y⟩ and likewise for +, -, =, dcons).
    FnAtom Next = Atom;
    Next.Partial.push_back(Arg);
    BasicEscape Ground = BasicEscape::none();
    for (ValueId V : Next.Partial)
      Ground = join(Ground, Store.ground(V));
    return Store.makeValue(Ground, {Store.internAtom(std::move(Next))});
  }

  // Fully applied.
  switch (Atom.Op) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
  case PrimOp::Mod:
  case PrimOp::Eq:
  case PrimOp::Ne:
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Gt:
  case PrimOp::Ge:
  case PrimOp::Not:
  case PrimOp::Null:
    // Scalar result: contains no part of any interesting object.
    return Store.bottom();
  case PrimOp::Cons:
    // C[cons] = ⟨⟨0,0⟩, λx.⟨x₍₁₎, λy. x ⊔ y⟩⟩ (§3.4).
    return Store.joinValues(Atom.Partial[0], Arg);
  case PrimOp::Car: {
    // C[car^s] = sub^s: strips one spine when the argument's top spine is
    // the s-th bottom spine of the interesting object; the function
    // component is kept (z₍₂₎ unchanged). car^0 (whole-object baseline)
    // is the identity.
    if (Atom.CarSpines == 0)
      return Arg;
    const EscapeValue &Z = Store.value(Arg);
    return Store.makeValue(Z.Ground.sub(Atom.CarSpines), Z.Fns);
  }
  case PrimOp::Cdr:
    // D_e^{τ list} = D_e^τ: the abstract cdr is the identity.
    return Arg;
  case PrimOp::DCons:
    // dcons p b c returns the (reused) cell of p holding b and c: the
    // result may contain parts of all three.
    return Store.joinValues(Atom.Partial[0],
                            Store.joinValues(Atom.Partial[1], Arg));
  case PrimOp::MkPair:
    // Pairs keep their components precisely (the §1 tuple extension):
    // ground is the join (both are contained), components are projectable.
    return Store.makePairValue(Atom.Partial[0], Arg);
  case PrimOp::Fst:
  case PrimOp::Snd: {
    // Project pair atoms precisely. The ground component needs care: a
    // pair built by mkpair carries exactly the join of its components'
    // grounds, so projecting may *drop* the other component's
    // contribution — but only when the atoms fully account for the
    // value's ground. Any excess (an unknown pair such as a worst-case
    // result, or a re-grounded local-test value) is kept conservatively.
    // Non-pair atoms are kept too: sound when joins mix provenance.
    const EscapeValue Z = Store.value(Arg); // copy: interning below
    BasicEscape Accounted = BasicEscape::none();
    std::vector<FnAtomId> Kept;
    ValueId R = Store.bottom();
    for (FnAtomId AtomId : Z.Fns) {
      const FnAtom &A = Store.atom(AtomId);
      if (A.Kind == FnAtomKind::Pair) {
        Accounted = join(Accounted, join(Store.ground(A.Partial[0]),
                                         Store.ground(A.Partial[1])));
        R = Store.joinValues(R,
                             A.Partial[Atom.Op == PrimOp::Fst ? 0 : 1]);
      } else {
        Kept.push_back(AtomId);
      }
    }
    BasicEscape Residue =
        Z.Ground <= Accounted ? BasicEscape::none() : Z.Ground;
    return Store.joinValues(R, Store.makeValue(Residue, std::move(Kept)));
  }
  }
  assert(false && "unhandled primitive");
  return Store.bottom();
}

ValueId EscapeAnalyzer::applyWorst(const FnAtom &Atom, ValueId Arg) {
  // W^τ = λx1.⟨x1₍₁₎, λx2.⟨x1₍₁₎ ⊔ x2₍₁₎, ...⟩⟩ (Definition 2): every
  // argument's ground escapes into the result at every stage.
  const auto *Fun = cast<FunType>(Atom.WorstType);
  BasicEscape Acc = join(Atom.WorstAcc, Store.ground(Arg));
  // The continuation carries the worst-case atoms of the result type:
  // function cores keep accepting arguments; pairs contribute both
  // components (so a closure hidden in a returned tuple stays
  // applicable).
  std::vector<FnAtomId> Next;
  Store.collectWorstAtoms(Fun->result(), Acc, Next);
  return Store.makeValue(Acc, std::move(Next));
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

template <class LabelFn, class CalleeFn, class ArgFn>
ParamEscape EscapeAnalyzer::escapeTest(const Fixpoint::FactSite &Site,
                                       LabelFn &&Label, Symbol Fn,
                                       unsigned ParamIndex,
                                       const Type *ParamType, unsigned Arity,
                                       CalleeFn &&Callee, ArgFn &&Arg) {
  ParamEscape PE;
  PE.Prov = Solver.openFact(Site, Label);
  PE.Function = Fn;
  PE.ParamIndex = ParamIndex;
  PE.ParamType = ParamType;
  PE.ParamSpines = modeSpineCount(ParamType);
  ValueId Result = runToFixpoint([&] {
    ValueId F = Callee();
    for (unsigned J = 0; J != Arity; ++J)
      F = apply(F, Arg(J, J == ParamIndex
                              ? BasicEscape::contained(PE.ParamSpines)
                              : BasicEscape::none()));
    return F;
  });
  PE.Escape = Store.ground(Result);
  if (Mode == EscapeAnalysisMode::WholeObject) {
    // All-or-nothing over the real structure: either every spine escapes
    // or none does.
    PE.ParamSpines = spineCount(ParamType);
    PE.Escape = PE.Escape.isContained()
                    ? BasicEscape::contained(PE.ParamSpines)
                    : BasicEscape::none();
  }
  Solver.closeFact(PE.Prov, [&] { return PE.Escape.str(); });
  return PE;
}

ValueId EscapeAnalyzer::evaluate(const Expr *E) {
  return runToFixpoint([&] { return eval(E, topEnv()); });
}

std::vector<const Type *> EscapeAnalyzer::paramTypes(const Type *FnType,
                                                     unsigned Arity) {
  std::vector<const Type *> Params;
  const Type *T = FnType;
  for (unsigned I = 0; I != Arity; ++I) {
    const auto *Fun = cast<FunType>(T);
    Params.push_back(Fun->param());
    T = Fun->result();
  }
  return Params;
}

std::optional<ParamEscape> EscapeAnalyzer::globalEscape(Symbol Fn,
                                                        unsigned ParamIndex) {
  const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
  if (!Letrec)
    return std::nullopt;
  auto Bindings = Letrec->bindings();
  uint32_t Index = 0;
  const LetrecBinding *Binding = nullptr;
  for (uint32_t I = 0; I != Bindings.size(); ++I)
    if (Bindings[I].Name == Fn) {
      Binding = &Bindings[I];
      Index = I;
      break;
    }
  if (!Binding)
    return std::nullopt;
  unsigned Arity = lambdaArity(Binding->Value);
  if (ParamIndex >= Arity)
    return std::nullopt;

  std::vector<const Type *> Params =
      paramTypes(Program.typeOf(Binding->Value), Arity);

  LetrecInstId TopInst = Store.internLetrecInst(Letrec, Store.emptyEnv());
  return escapeTest(
      {explain::FactKind::Query, ProvNs,
       (static_cast<uint64_t>(Fn.id()) << 32) | ParamIndex,
       "global escape test G (§4.1)", Binding->Value->loc()},
      [&] {
        return "G(" + std::string(Ast.spelling(Fn)) + ", " +
               std::to_string(ParamIndex + 1) + ")";
      },
      Fn, ParamIndex, Params[ParamIndex], Arity,
      [&] { return materializeBinding(TopInst, Index); },
      // y_j = ⟨ground, W^τ⟩ (§4.1).
      [&](unsigned J, BasicEscape Ground) {
        return Store.makeWorst(Ground, Params[J]);
      });
}

std::optional<ParamEscape> EscapeAnalyzer::localEscape(const Expr *CallSite,
                                                       unsigned ParamIndex) {
  return localEscapeUnder(CallSite, ParamIndex, topEnv());
}

std::optional<ParamEscape>
EscapeAnalyzer::localEscapeInContext(const Expr *CallSite,
                                     unsigned ParamIndex) {
  // Bind enclosing (non-top-level) free variables to ⟨⟨0,0⟩, W^τ⟩.
  EnvId Env = topEnv();
  for (Symbol Free : freeVariables(CallSite)) {
    if (Store.lookup(Env, Free))
      continue;
    // Recover the variable's type from an occurrence. If the same name
    // is also *bound* somewhere inside the call, an occurrence we find
    // might be the shadowed one with a different type; give up then
    // (callers fall back to the global test).
    bool Rebound = false;
    forEachExpr(CallSite, [&](const Expr *E) {
      if (const auto *Lambda = dyn_cast<LambdaExpr>(E))
        Rebound = Rebound || Lambda->param() == Free;
      else if (const auto *Let = dyn_cast<LetExpr>(E))
        Rebound = Rebound || Let->name() == Free;
      else if (const auto *Letrec = dyn_cast<LetrecExpr>(E))
        Rebound = Rebound || Letrec->findBinding(Free) != nullptr;
    });
    if (Rebound)
      return std::nullopt;
    const Type *VarType = nullptr;
    forEachExpr(CallSite, [&](const Expr *E) {
      if (VarType)
        return;
      const auto *Var = dyn_cast<VarExpr>(E);
      if (Var && Var->name() == Free)
        VarType = Program.typeOf(E);
    });
    if (!VarType)
      return std::nullopt;
    EnvBinding B;
    B.Name = Free;
    B.Kind = EnvBindingKind::Value;
    B.Val = Store.makeWorst(BasicEscape::none(), VarType);
    Env = Store.extend(Env, B);
  }
  return localEscapeUnder(CallSite, ParamIndex, Env);
}

std::optional<ParamEscape>
EscapeAnalyzer::localEscapeUnder(const Expr *CallSite, unsigned ParamIndex,
                                 EnvId Env) {
  std::vector<const Expr *> Args;
  const Expr *Callee = uncurryCall(CallSite, Args);
  if (Args.empty() || ParamIndex >= Args.size())
    return std::nullopt;

  Symbol CalleeName;
  if (const auto *Var = dyn_cast<VarExpr>(Callee))
    CalleeName = Var->name();

  return escapeTest(
      {explain::FactKind::Query, ProvLocalNs,
       (static_cast<uint64_t>(CallSite->id()) << 32) | ParamIndex,
       "local escape test L (§4.2)", CallSite->loc()},
      [&] {
        return "L(" +
               (CalleeName.isValid() ? std::string(Ast.spelling(CalleeName))
                                     : std::string("<fn>")) +
               ", " + std::to_string(ParamIndex + 1) + ")";
      },
      CalleeName, ParamIndex, Program.typeOf(Args[ParamIndex]), Args.size(),
      [&] { return eval(Callee, Env); },
      // z_j = ⟨ground, (E[e_j] env)₍₂₎⟩ (§4.2).
      [&](unsigned J, BasicEscape Ground) {
        return Store.withGround(eval(Args[J], Env), Ground);
      });
}

ProgramEscapeReport EscapeAnalyzer::analyzeProgram() {
  ProgramEscapeReport Report;
  const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
  if (!Letrec)
    return Report;
  unsigned TotalRounds = 0;
  for (const LetrecBinding &Binding : Letrec->bindings()) {
    unsigned Arity = lambdaArity(Binding.Value);
    if (Arity == 0)
      continue; // not a function binding
    FunctionEscape FE;
    FE.Name = Binding.Name;
    FE.FunctionType = Program.typeOf(Binding.Value);
    FE.Arity = Arity;
    const Type *ResultType = FE.FunctionType;
    for (unsigned I = 0; I != Arity; ++I)
      ResultType = cast<FunType>(ResultType)->result();
    FE.ResultSpines = spineCount(ResultType);
    for (unsigned I = 0; I != Arity; ++I) {
      std::optional<ParamEscape> PE = globalEscape(Binding.Name, I);
      assert(PE && "binding disappeared mid-analysis");
      FE.Params.push_back(*PE);
      TotalRounds += Solver.rounds();
    }
    Report.Functions.push_back(std::move(FE));
  }
  Report.FixpointRounds = TotalRounds;
  Report.ApplyCacheEntries = ApplyCache.size();
  Report.DistinctValues = Store.numValues();
  return Report;
}

//===----------------------------------------------------------------------===//
// Call-site verdicts
//===----------------------------------------------------------------------===//

std::optional<TopLevelCall> EscapeAnalyzer::topLevelCall(const Expr *Node) {
  const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
  if (!Letrec)
    return std::nullopt;
  TopLevelCall Call;
  Call.Node = Node;
  const auto *Var = dyn_cast<VarExpr>(uncurryCall(Node, Call.Args));
  if (!Var || Call.Args.empty())
    return std::nullopt;
  Call.Callee = Letrec->findBinding(Var->name());
  if (!Call.Callee || lambdaArity(Call.Callee->Value) != Call.Args.size())
    return std::nullopt;
  return Call;
}

void EscapeAnalyzer::forEachTopLevelCall(
    const std::function<void(const TopLevelCall &)> &Visit) {
  const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
  if (!Letrec)
    return;
  auto VisitCalls = [&](const Expr *Root) {
    forEachExpr(Root, [&](const Expr *Node) {
      if (std::optional<TopLevelCall> Call = topLevelCall(Node))
        Visit(*Call);
    });
  };
  for (const LetrecBinding &B : Letrec->bindings())
    VisitCalls(B.Value);
  VisitCalls(Letrec->body());
}

std::optional<ParamEscape> EscapeAnalyzer::callEscape(const TopLevelCall &Call,
                                                      unsigned ArgIndex) {
  if (spineCount(Program.typeOf(Call.Args[ArgIndex])) == 0)
    return std::nullopt;
  uint64_t Key = (static_cast<uint64_t>(Call.Node->id()) << 32) | ArgIndex;
  auto It = CallVerdicts.find(Key);
  if (It != CallVerdicts.end())
    return It->second;

  const auto *Letrec = cast<LetrecExpr>(Program.root());
  const std::vector<Symbol> &Free = freeVarsOf(Call.Node);
  bool TopLevelClosed = std::all_of(Free.begin(), Free.end(), [&](Symbol S) {
    return Letrec->findBinding(S) != nullptr;
  });
  std::optional<ParamEscape> Verdict =
      TopLevelClosed ? localEscape(Call.Node, ArgIndex)
                     : localEscapeInContext(Call.Node, ArgIndex);
  if (!Verdict)
    Verdict = globalEscape(Call.Callee->Name, ArgIndex);
  return CallVerdicts.emplace(Key, Verdict).first->second;
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

std::string eal::renderEscapeReport(const AstContext &Ast,
                                    const ProgramEscapeReport &Report) {
  std::ostringstream OS;
  for (const FunctionEscape &FE : Report.Functions) {
    OS << Ast.spelling(FE.Name) << " : " << typeName(FE.FunctionType) << '\n';
    for (const ParamEscape &PE : FE.Params) {
      OS << "  G(" << Ast.spelling(FE.Name) << ", " << (PE.ParamIndex + 1)
         << ") = " << PE.Escape.str() << "  -- ";
      if (!PE.escapes()) {
        OS << "no part of parameter " << (PE.ParamIndex + 1) << " escapes";
      } else if (PE.ParamSpines == 0) {
        OS << "parameter " << (PE.ParamIndex + 1) << " may escape";
      } else {
        OS << "bottom " << PE.escapingSpines() << " of " << PE.ParamSpines
           << " spine(s) may escape; top " << PE.protectedTopSpines()
           << " spine(s) never escape";
      }
      OS << '\n';
    }
  }
  return OS.str();
}
