//===- AstUtils.cpp -------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "lang/AstUtils.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace eal;

namespace {

/// Accumulates free variables with a scope stack of bound names.
class FreeVarCollector {
public:
  std::vector<Symbol> Result;

  void visit(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
    case ExprKind::Prim:
      return;
    case ExprKind::Var: {
      Symbol Name = cast<VarExpr>(E)->name();
      if (isBound(Name))
        return;
      if (std::find(Result.begin(), Result.end(), Name) == Result.end())
        Result.push_back(Name);
      return;
    }
    case ExprKind::App: {
      const auto *App = cast<AppExpr>(E);
      visit(App->fn());
      visit(App->arg());
      return;
    }
    case ExprKind::Lambda: {
      const auto *Lambda = cast<LambdaExpr>(E);
      Bound.push_back(Lambda->param());
      visit(Lambda->body());
      Bound.pop_back();
      return;
    }
    case ExprKind::If: {
      const auto *If = cast<IfExpr>(E);
      visit(If->cond());
      visit(If->thenExpr());
      visit(If->elseExpr());
      return;
    }
    case ExprKind::Let: {
      const auto *Let = cast<LetExpr>(E);
      visit(Let->value());
      Bound.push_back(Let->name());
      visit(Let->body());
      Bound.pop_back();
      return;
    }
    case ExprKind::Letrec: {
      const auto *Letrec = cast<LetrecExpr>(E);
      size_t Mark = Bound.size();
      for (const LetrecBinding &B : Letrec->bindings())
        Bound.push_back(B.Name);
      for (const LetrecBinding &B : Letrec->bindings())
        visit(B.Value);
      visit(Letrec->body());
      Bound.resize(Mark);
      return;
    }
    }
    assert(false && "unhandled expression kind");
  }

private:
  bool isBound(Symbol Name) const {
    return std::find(Bound.begin(), Bound.end(), Name) != Bound.end();
  }

  std::vector<Symbol> Bound;
};

} // namespace

std::vector<Symbol> eal::freeVariables(const Expr *E) {
  assert(E && "free variables of a null expression");
  FreeVarCollector Collector;
  Collector.visit(E);
  return std::move(Collector.Result);
}

void eal::forEachExpr(const Expr *E,
                      const std::function<void(const Expr *)> &Visit) {
  assert(E && "traversing a null expression");
  Visit(E);
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
  case ExprKind::Var:
  case ExprKind::Prim:
    return;
  case ExprKind::App: {
    const auto *App = cast<AppExpr>(E);
    forEachExpr(App->fn(), Visit);
    forEachExpr(App->arg(), Visit);
    return;
  }
  case ExprKind::Lambda:
    forEachExpr(cast<LambdaExpr>(E)->body(), Visit);
    return;
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    forEachExpr(If->cond(), Visit);
    forEachExpr(If->thenExpr(), Visit);
    forEachExpr(If->elseExpr(), Visit);
    return;
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    forEachExpr(Let->value(), Visit);
    forEachExpr(Let->body(), Visit);
    return;
  }
  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(E);
    for (const LetrecBinding &B : Letrec->bindings())
      forEachExpr(B.Value, Visit);
    forEachExpr(Letrec->body(), Visit);
    return;
  }
  }
  assert(false && "unhandled expression kind");
}

size_t eal::countNodes(const Expr *E) {
  size_t Count = 0;
  forEachExpr(E, [&Count](const Expr *) { ++Count; });
  return Count;
}

const Expr *eal::uncurryCall(const Expr *E,
                             std::vector<const Expr *> &Args) {
  Args.clear();
  const Expr *Cur = E;
  while (const auto *App = dyn_cast<AppExpr>(Cur)) {
    Args.push_back(App->arg());
    Cur = App->fn();
  }
  std::reverse(Args.begin(), Args.end());
  return Cur;
}

std::optional<PrimOp> eal::matchConsApp(const Expr *E, const Expr *&Head,
                                        const Expr *&Tail) {
  const auto *Outer = dyn_cast<AppExpr>(E);
  if (!Outer)
    return std::nullopt;
  const auto *Inner = dyn_cast<AppExpr>(Outer->fn());
  if (!Inner)
    return std::nullopt;
  const auto *Prim = dyn_cast<PrimExpr>(Inner->fn());
  if (!Prim || (Prim->op() != PrimOp::Cons && Prim->op() != PrimOp::MkPair))
    return std::nullopt;
  Head = Inner->arg();
  Tail = Outer->arg();
  return Prim->op();
}

void eal::forEachAllocSite(
    const Expr *E, const std::function<void(const Expr *, PrimOp)> &Visit) {
  // Preorder reaches a spine before its head PrimExpr, so every head is
  // known by the time the walk gets to it: any other allocating PrimExpr
  // is a first-class use.
  std::unordered_set<uint32_t> SpineHeads;
  forEachExpr(E, [&](const Expr *N) {
    std::vector<const Expr *> Args;
    const auto *P = dyn_cast<PrimExpr>(uncurryCall(N, Args));
    if (!P || !isAllocPrim(P->op()))
      return;
    if (Args.size() == primOpArity(P->op()))
      SpineHeads.insert(P->id());
    else if (N != P || SpineHeads.count(P->id()))
      return;
    Visit(N, P->op());
  });
}

unsigned eal::lambdaArity(const Expr *E) {
  unsigned Arity = 0;
  while (const auto *Lambda = dyn_cast<LambdaExpr>(E)) {
    ++Arity;
    E = Lambda->body();
  }
  return Arity;
}
