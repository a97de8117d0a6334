//===- AllocPlanner.cpp ---------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "opt/AllocPlanner.h"

#include "lang/AstUtils.h"

#include <iterator>
#include <sstream>

using namespace eal;

void AllocPlanner::attribute(const Expr *E, unsigned Level, unsigned MaxLevel,
                             ArenaSiteClass Class, ArgArenaDirective &Out) {
  if (Level > MaxLevel)
    return;
  switch (E->kind()) {
  case ExprKind::NilLit:
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::Var:
  case ExprKind::Prim:
  case ExprKind::Lambda:
    return;
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    attribute(If->thenExpr(), Level, MaxLevel, Class, Out);
    attribute(If->elseExpr(), Level, MaxLevel, Class, Out);
    return;
  }
  case ExprKind::Let:
    attribute(cast<LetExpr>(E)->body(), Level, MaxLevel, Class, Out);
    return;
  case ExprKind::Letrec:
    attribute(cast<LetrecExpr>(E)->body(), Level, MaxLevel, Class, Out);
    return;
  case ExprKind::App: {
    const Expr *Head = nullptr, *Tail = nullptr;
    if (matchConsApp(E, Head, Tail) == PrimOp::Cons) {
      Out.Sites.emplace(E->id(), Class);
      attribute(Head, Level + 1, MaxLevel, Class, Out);
      attribute(Tail, Level, MaxLevel, Class, Out);
      return;
    }
    std::vector<const Expr *> Args;
    const Expr *Callee = uncurryCall(E, Args);
    if (const auto *Prim = dyn_cast<PrimExpr>(Callee)) {
      // cdr shares its operand's spines at the same levels; the dropped
      // head cell becomes garbage immediately, so arena-placing it is
      // safe. car extracts an element: unattributable, stop.
      if (Prim->op() == PrimOp::Cdr && Args.size() == 1)
        attribute(Args[0], Level, MaxLevel, Class, Out);
      return;
    }
    if (Options.EnableRegion)
      if (std::optional<TopLevelCall> Call = Analyzer.topLevelCall(E))
        attributeCallee(*Call, Level, MaxLevel, Out);
    return;
  }
  }
}

void AllocPlanner::attributeCallee(const TopLevelCall &Call, unsigned Level,
                                   unsigned MaxLevel,
                                   ArgArenaDirective &Out) {
  if (Level > MaxLevel)
    return;
  uint64_t Key = (static_cast<uint64_t>(Call.Callee->Name.id()) << 8) | Level;
  if (!VisitedCallees.insert(Key).second)
    return;
  // The producer's result feeds this spine level: its spine-building
  // sites are the ones reachable in result position of its body.
  const Expr *Body = Call.Callee->Value;
  for (size_t I = 0; I != Call.Args.size(); ++I)
    Body = cast<LambdaExpr>(Body)->body();
  attribute(Body, Level, MaxLevel, ArenaSiteClass::Region, Out);
}

AllocationPlan AllocPlanner::run() {
  AllocationPlan Plan;
  Analyzer.forEachTopLevelCall([&](const TopLevelCall &Call) {
    for (unsigned I = 0; I != Call.Args.size(); ++I) {
      std::optional<ParamEscape> Local = Analyzer.callEscape(Call, I);
      if (!Local || Local->protectedTopSpines() == 0)
        continue;
      ArgArenaDirective D;
      D.CallAppId = Call.Node->id();
      D.ArgIndex = I;
      D.Callee = Call.Callee->Name;
      D.ProtectedSpines = Local->protectedTopSpines();
      attribute(Call.Args[I], 1, D.ProtectedSpines, ArenaSiteClass::Stack, D);
      VisitedCallees.clear();
      if (D.Sites.empty())
        continue;
      if (!Options.EnableStack) {
        // Drop argument-local (stack) sites when disabled.
        for (auto It = D.Sites.begin(); It != D.Sites.end();)
          It = It->second == ArenaSiteClass::Stack ? D.Sites.erase(It)
                                                   : std::next(It);
        if (D.Sites.empty())
          continue;
      }
      if (Options.Prov) {
        unsigned NumStack = 0, NumRegion = 0;
        for (const auto &[Id, Class] : D.Sites)
          (Class == ArenaSiteClass::Stack ? NumStack : NumRegion) += 1;
        uint32_t DF = Options.Prov->fresh(
            explain::FactKind::Decision,
            "arena directive: argument " + std::to_string(I + 1) + " of '" +
                std::string(Ast.spelling(D.Callee)) + "'",
            "stack/region allocation (A.3.1/A.3.3)", Call.Node->loc());
        Options.Prov->depend(DF, Local->Prov);
        Options.Prov->result(
            DF, "top " + std::to_string(D.ProtectedSpines) +
                    " spine(s) protected; " + std::to_string(NumStack) +
                    " stack site(s), " + std::to_string(NumRegion) +
                    " region site(s)");
        D.ProvenanceRef = DF;
      }
      Plan.Directives.push_back(std::move(D));
    }
  });
  Plan.index();
  return Plan;
}

std::string eal::renderAllocationPlan(const AstContext &Ast,
                                      const AllocationPlan &Plan) {
  std::ostringstream OS;
  for (const ArgArenaDirective &D : Plan.Directives) {
    unsigned NumStack = 0, NumRegion = 0;
    for (const auto &[Id, Class] : D.Sites)
      (Class == ArenaSiteClass::Stack ? NumStack : NumRegion) += 1;
    OS << "call of " << Ast.spelling(D.Callee) << " (node " << D.CallAppId
       << "), argument " << (D.ArgIndex + 1) << ": top " << D.ProtectedSpines
       << " spine(s) protected; " << NumStack << " stack site(s), "
       << NumRegion << " region site(s)\n";
  }
  return OS.str();
}
