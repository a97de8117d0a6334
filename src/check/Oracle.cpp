//===- Oracle.cpp ---------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "check/Oracle.h"

#include "lang/AstUtils.h"
#include "obs/Recorder.h"
#include "runtime/Frame.h"

#include <sstream>

using namespace eal;
using namespace eal::check;

//===----------------------------------------------------------------------===//
// Claim derivation
//===----------------------------------------------------------------------===//

ClaimTable eal::check::buildClaimTable(const AstContext &Ast,
                                       const TypedProgram &Program,
                                       EscapeAnalyzer &Analyzer) {
  (void)Ast;
  ClaimTable Table;
  forEachExpr(Program.root(), [&](const Expr *E) {
    Table.NodeLocs.emplace(E->id(), E->loc());
  });

  Analyzer.forEachTopLevelCall([&](const TopLevelCall &Call) {
    for (unsigned I = 0; I != Call.Args.size(); ++I) {
      std::optional<ParamEscape> Local = Analyzer.callEscape(Call, I);
      if (!Local || Local->protectedTopSpines() == 0)
        continue;
      CallClaim C;
      C.CallAppId = Call.Node->id();
      C.ArgIndex = I;
      C.ProtectedSpines = Local->protectedTopSpines();
      C.ParamSpines = Local->ParamSpines;
      C.Callee = Call.Callee->Name;
      C.CalleeLambda = cast<LambdaExpr>(Call.Callee->Value);
      C.CallLoc = Call.Node->loc();
      Table.add(std::move(C));
    }
  });
  return Table;
}

//===----------------------------------------------------------------------===//
// The oracle
//===----------------------------------------------------------------------===//

namespace {

/// Everything reachable from \p V through cons/pair cells and closures.
/// A closure exposes the values of its remaining lambda's free variables
/// (cached in \p FreeVars), found by name among its partial arguments,
/// else in its environment: what the program can read, whatever the
/// engine's frame layout. Iterative: result spines can be long.
void collectReachable(
    RtValue V, std::unordered_set<const ConsCell *> &Cells,
    std::unordered_map<const LambdaExpr *, std::vector<Symbol>> &FreeVars) {
  std::vector<RtValue> Work = {V};
  std::unordered_set<const RtClosure *> Closures;
  while (!Work.empty()) {
    RtValue Cur = Work.back();
    Work.pop_back();
    switch (Cur.kind()) {
    case RtValueKind::Int:
    case RtValueKind::Bool:
    case RtValueKind::Nil:
      break;
    case RtValueKind::Cons:
    case RtValueKind::Pair: {
      const ConsCell *Cell = Cur.cell();
      if (Cells.insert(Cell).second) {
        Work.push_back(Cell->Car);
        Work.push_back(Cell->Cdr);
      }
      break;
    }
    case RtValueKind::Closure: {
      const RtClosure *C = Cur.closure();
      if (!Closures.insert(C).second)
        break;
      if (C->IsPrim) { // a primitive reads every argument it holds
        Work.insert(Work.end(), C->Partial.begin(), C->Partial.end());
        break;
      }
      const LambdaExpr *Fn = C->Lambda;
      for (size_t I = 0; I != C->Partial.size(); ++I)
        Fn = cast<LambdaExpr>(Fn->body());
      auto [It, Fresh] = FreeVars.try_emplace(Fn);
      if (Fresh)
        It->second = freeVariables(Fn);
      for (Symbol Name : It->second) {
        // The innermost partial argument named Name (the last match)
        // shadows the others and the environment.
        const RtValue *Value = nullptr;
        const LambdaExpr *L = C->Lambda;
        for (size_t I = 0; I != C->Partial.size(); ++I) {
          if (L->param() == Name)
            Value = &C->Partial[I];
          L = cast<LambdaExpr>(L->body());
        }
        for (EnvFrame *F = C->Env.get(); !Value && F; F = F->Parent.get())
          Value = F->find(Name);
        if (Value)
          Work.push_back(*Value);
      }
      break;
    }
    }
  }
}

} // namespace

EscapeOracle::EscapeOracle(const AstContext &Ast, ClaimTable Table)
    : Ast(Ast), Table(std::move(Table)) {
  Stack.emplace_back(); // the top-level pseudo-activation
}

void EscapeOracle::injectClaim(CallClaim C) { Table.add(std::move(C)); }

void EscapeOracle::cellAllocated(const ConsCell *Cell, uint32_t SiteId) {
  ++Report.CellsTracked;
  LastAllocSite[Cell] = {Cell->AllocSeq, SiteId};
  Stack.back().Cells.push_back({Cell, Cell->AllocSeq, 0});
}

void EscapeOracle::snapshotSpines(RtValue Arg, unsigned MaxLevel,
                                  ClaimCheck &Out) {
  // Spine levels as in Definition 1: level L's cells are the cdr-chains
  // hanging off the cars of level L−1 (pairs are not spines; a conservative
  // cut matching the analysis' list grading).
  std::vector<RtValue> Level = {Arg};
  for (unsigned L = 1; L <= MaxLevel && !Level.empty(); ++L) {
    std::vector<RtValue> Next;
    for (RtValue Head : Level)
      for (RtValue Cur = Head; Cur.isCons(); Cur = Cur.cell()->Cdr) {
        Out.Cells.push_back({Cur.cell(), Cur.cell()->AllocSeq, L});
        if (Cur.cell()->Car.isCons())
          Next.push_back(Cur.cell()->Car);
      }
    Level = std::move(Next);
  }
}

void EscapeOracle::activationEntered(const LambdaExpr *Fn,
                                     const AppExpr *CallSite,
                                     std::span<const RtValue> Args) {
  Stack.emplace_back();
  if (!CallSite)
    return;
  auto It = Table.ByCall.find(CallSite->id());
  if (It == Table.ByCall.end())
    return;
  Activation &A = Stack.back();
  // Claims are per-argument-*role*. When aliasing routes one value into
  // several roles of the same call (e.g. `append x x`), a cell can
  // legitimately escape through a role whose claim permits it; charging
  // that against another role's protected prefix would be a false
  // refutation. Per claim, exempt cells that some other argument exposes
  // beyond its own protected prefix.
  std::vector<unsigned> RoleProtected(Args.size(), 0);
  for (const CallClaim &Claim : It->second)
    if (!(Claim.CalleeLambda && Claim.CalleeLambda != Fn) &&
        Claim.ArgIndex < Args.size())
      RoleProtected[Claim.ArgIndex] = Claim.ProtectedSpines;
  for (const CallClaim &Claim : It->second) {
    if (Claim.CalleeLambda && Claim.CalleeLambda != Fn)
      continue; // a different function value answered this call
    if (Claim.ArgIndex >= Args.size())
      continue;
    ClaimCheck CC;
    CC.Claim = &Claim;
    // One level past the protected prefix probes the claim's precision:
    // if even level s−k+1 stays local, the analysis was conservative.
    unsigned Probe = Claim.ParamSpines > Claim.ProtectedSpines ? 1 : 0;
    snapshotSpines(Args[Claim.ArgIndex], Claim.ProtectedSpines + Probe, CC);
    CC.HasProbeLevel = false;
    for (const PinnedCell &P : CC.Cells)
      CC.HasProbeLevel |= P.Level > Claim.ProtectedSpines;
    if (Args.size() > 1 && !CC.Cells.empty()) {
      std::unordered_set<const ConsCell *> OtherRoles;
      for (size_t J = 0; J != Args.size(); ++J) {
        if (J == Claim.ArgIndex)
          continue;
        std::unordered_set<const ConsCell *> Exposed;
        collectReachable(Args[J], Exposed, FreeVars);
        if (RoleProtected[J]) {
          // That role's own protected prefix may not escape either, so
          // it exempts nothing.
          ClaimCheck Prot;
          snapshotSpines(Args[J], RoleProtected[J], Prot);
          for (const PinnedCell &P : Prot.Cells)
            Exposed.erase(P.Cell);
        }
        OtherRoles.merge(Exposed);
      }
      if (!OtherRoles.empty()) {
        size_t Before = CC.Cells.size();
        std::erase_if(CC.Cells, [&](const PinnedCell &P) {
          return OtherRoles.count(P.Cell) != 0;
        });
        Report.AliasExemptions += Before - CC.Cells.size();
      }
    }
    A.Claims.push_back(std::move(CC));
  }
}

void EscapeOracle::recordViolation(const ClaimCheck &CC,
                                   const PinnedCell &Cell) {
  OracleViolation V;
  V.Kind = CC.Claim->CalleeLambda ? "protected-spine-escaped"
                                  : "injected-claim";
  V.Function = CC.Claim->Callee.isValid()
                   ? std::string(Ast.spelling(CC.Claim->Callee))
                   : std::string("<unknown>");
  V.ArgIndex = CC.Claim->ArgIndex;
  V.ProtectedSpines = CC.Claim->ProtectedSpines;
  V.SpineLevel = Cell.Level;
  V.CallLoc = CC.Claim->CallLoc;
  auto It = LastAllocSite.find(Cell.Cell);
  if (It != LastAllocSite.end() && It->second.first == Cell.Seq) {
    V.AllocSiteId = It->second.second;
    auto LocIt = Table.NodeLocs.find(V.AllocSiteId);
    if (LocIt != Table.NodeLocs.end())
      V.AllocLoc = LocIt->second;
  }
  // The refutation names the allocation site in the flight recording's
  // tail, then triggers a crash dump (docs/RECORDER.md).
  obs::rec::emit(obs::rec::RecKind::OracleRefuted, V.AllocSiteId,
                 obs::rec::internName(V.Kind));
  Report.Violations.push_back(std::move(V));
  obs::rec::dumpNow("oracle-refuted");
}

void EscapeOracle::classifyCells(
    const Activation &A, const std::unordered_set<const ConsCell *> &Reach) {
  for (const PinnedCell &P : A.Cells) {
    if (P.Cell->Class != CellClass::Heap)
      continue; // arena cells: ValidateArenaFrees checks those frees
    bool Alive =
        P.Cell->State == CellState::Live && P.Cell->AllocSeq == P.Seq;
    if (Alive && Reach.count(P.Cell))
      ++Report.HeapCellsEscaped;
    else
      ++Report.HeapCellsUnescaped;
  }
}

bool EscapeOracle::activationExited(const RtValue *Result) {
  Activation A = std::move(Stack.back());
  Stack.pop_back();
  ++Report.Activations;
  if (!Result)
    return true; // unwinding on an error; nothing to classify

  std::unordered_set<const ConsCell *> Reach;
  collectReachable(*Result, Reach, FreeVars);

  bool Violated = false;
  for (const ClaimCheck &CC : A.Claims) {
    ++Report.ClaimsChecked;
    bool ProbeEscaped = false;
    for (const PinnedCell &P : CC.Cells) {
      bool Alive =
          P.Cell->State == CellState::Live && P.Cell->AllocSeq == P.Seq;
      if (!Alive || !Reach.count(P.Cell))
        continue;
      if (P.Level <= CC.Claim->ProtectedSpines) {
        recordViolation(CC, P);
        Violated = true;
      } else {
        ProbeEscaped = true;
      }
    }
    if (CC.HasProbeLevel && !ProbeEscaped)
      ++Report.ImpreciseClaims;
  }
  classifyCells(A, Reach);
  return !Violated;
}

void EscapeOracle::finalize(const RtValue *ProgramResult) {
  // The top-level pseudo-activation never exits; classify its cells
  // against the program result. (Claims never attach to it.)
  if (Stack.empty())
    return;
  std::unordered_set<const ConsCell *> Reach;
  if (ProgramResult)
    collectReachable(*ProgramResult, Reach, FreeVars);
  classifyCells(Stack.front(), Reach);
  Stack.front().Cells.clear();
}

std::string EscapeOracle::abortReason() const {
  if (Report.Violations.empty())
    return ExecutionObserver::abortReason();
  const OracleViolation &V = Report.Violations.back();
  std::ostringstream OS;
  OS << "escape oracle: cell from allocation site " << V.AllocSiteId
     << " escapes through the result of '" << V.Function << "' (argument "
     << (V.ArgIndex + 1) << ", spine level " << V.SpineLevel
     << ", claimed top " << V.ProtectedSpines << " spine(s) protected)";
  return OS.str();
}
