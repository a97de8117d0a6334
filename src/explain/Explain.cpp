//===- Explain.cpp --------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "explain/Explain.h"

#include "lang/AstUtils.h"
#include "support/SourceManager.h"
#include "support/Trace.h"
#include "types/Type.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace eal;
using namespace eal::explain;

const char *explain::siteStorageName(SiteStorage S) {
  switch (S) {
  case SiteStorage::Heap:
    return "heap";
  case SiteStorage::Stack:
    return "stack";
  case SiteStorage::Region:
    return "region";
  }
  return "heap";
}

//===----------------------------------------------------------------------===//
// Site classification (the EAL-O linter's walk; call verdicts from
// EscapeAnalyzer::callEscape, the planner's rule)
//===----------------------------------------------------------------------===//

namespace {

/// Walks the final program with the same context propagation as the EAL-O
/// linter pass and records a SiteInfo for *every* allocation site.
class SiteClassifier {
public:
  SiteClassifier(const TypedProgram &Program, EscapeAnalyzer &Analyzer,
                 const AllocationPlan &Plan, std::vector<SiteInfo> &Out)
      : Program(Program), Analyzer(Analyzer), Out(Out) {
    for (const ArgArenaDirective &D : Plan.Directives)
      for (const auto &[Id, Class] : D.Sites)
        Planned.emplace(Id, PlannedSite{Class, D.ProvenanceRef, D.Callee});
  }

  void run() {
    const auto *Letrec = dyn_cast<LetrecExpr>(Program.root());
    if (!Letrec) {
      walk(Program.root(), SiteContext());
      return;
    }
    for (const LetrecBinding &B : Letrec->bindings())
      walk(B.Value, SiteContext());
    walk(Letrec->body(), SiteContext());
  }

private:
  void record(const Expr *Site, PrimOp Op, const SiteContext &Ctx) {
    SiteInfo SI;
    SI.Site = Site;
    SI.Op = Op;
    SI.Ctx = Ctx;
    auto It = Planned.find(Site->id());
    if (It != Planned.end()) {
      SI.Storage = It->second.Class == ArenaSiteClass::Stack
                       ? SiteStorage::Stack
                       : SiteStorage::Region;
      SI.PlanProv = It->second.Prov;
      SI.PlanOwner = It->second.Owner;
    }
    Out.push_back(SI);
  }

  void walk(const Expr *E, SiteContext Ctx) {
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
    case ExprKind::Var:
    case ExprKind::Prim:
      return;
    case ExprKind::Lambda: {
      SiteContext Inner;
      walk(cast<LambdaExpr>(E)->body(), Inner);
      return;
    }
    case ExprKind::If: {
      const auto *If = cast<IfExpr>(E);
      walk(If->cond(), SiteContext());
      walk(If->thenExpr(), Ctx);
      walk(If->elseExpr(), Ctx);
      return;
    }
    case ExprKind::Let: {
      const auto *Let = cast<LetExpr>(E);
      walk(Let->value(), SiteContext());
      walk(Let->body(), Ctx);
      return;
    }
    case ExprKind::Letrec: {
      const auto *Letrec = cast<LetrecExpr>(E);
      for (const LetrecBinding &B : Letrec->bindings())
        walk(B.Value, SiteContext());
      walk(Letrec->body(), Ctx);
      return;
    }
    case ExprKind::App: {
      const Expr *Head = nullptr, *Tail = nullptr;
      if (std::optional<PrimOp> Op = matchConsApp(E, Head, Tail)) {
        record(E, *Op, Ctx);
        SiteContext HeadCtx = Ctx;
        if (*Op == PrimOp::Cons && Ctx.Kind == SiteContext::Protected &&
            !Ctx.Detached)
          ++HeadCtx.Level;
        else
          HeadCtx.Detached = Ctx.Kind == SiteContext::Protected;
        walk(Head, HeadCtx);
        walk(Tail, Ctx);
        return;
      }
      std::vector<const Expr *> Args;
      const Expr *Callee = uncurryCall(E, Args);
      if (const auto *Prim = dyn_cast<PrimExpr>(Callee)) {
        // cdr shares its operand's spines at the same levels; car (and
        // the pair projections) extract elements — off the spine.
        if (Prim->op() == PrimOp::Cdr && Args.size() == 1) {
          walk(Args[0], Ctx);
          return;
        }
        SiteContext Inner = Ctx;
        Inner.Detached = Ctx.Kind == SiteContext::Protected;
        for (const Expr *Arg : Args)
          walk(Arg, Inner.Detached ? Inner : SiteContext());
        return;
      }
      walk(Callee, SiteContext());
      std::optional<TopLevelCall> Call = Analyzer.topLevelCall(E);
      for (unsigned I = 0; I != Args.size(); ++I) {
        SiteContext ArgCtx;
        if (spineCount(Program.typeOf(Args[I])) > 0) {
          if (Call) {
            std::optional<ParamEscape> Local = Analyzer.callEscape(*Call, I);
            ArgCtx.Callee = Call->Callee->Name;
            ArgCtx.ArgIndex = I;
            ArgCtx.CallLoc = E->loc();
            if (Local)
              ArgCtx.VerdictProv = Local->Prov;
            if (Local && Local->protectedTopSpines() > 0) {
              ArgCtx.Kind = SiteContext::Protected;
              ArgCtx.ProtectedSpines = Local->protectedTopSpines();
            } else {
              ArgCtx.Kind = SiteContext::EscapesResult;
              ArgCtx.EscapingSpines = Local ? Local->escapingSpines() : 0;
            }
          } else {
            ArgCtx.Kind = SiteContext::UnknownCallee;
            ArgCtx.CallLoc = E->loc();
          }
        }
        walk(Args[I], ArgCtx);
      }
      return;
    }
    }
  }

  const TypedProgram &Program;
  EscapeAnalyzer &Analyzer;
  std::vector<SiteInfo> &Out;
  /// One covering directive per planned site.
  struct PlannedSite {
    ArenaSiteClass Class;
    uint32_t Prov;
    Symbol Owner;
  };
  std::unordered_map<uint32_t, PlannedSite> Planned;
};

} // namespace

std::vector<SiteInfo> explain::classifySites(const AstContext &Ast,
                                             const TypedProgram &Program,
                                             EscapeAnalyzer &Analyzer,
                                             const AllocationPlan &Plan) {
  (void)Ast;
  std::vector<SiteInfo> Sites;
  SiteClassifier(Program, Analyzer, Plan, Sites).run();
  return Sites;
}

//===----------------------------------------------------------------------===//
// Finding text (shared with the linter; must not diverge)
//===----------------------------------------------------------------------===//

std::string explain::describeSite(const AstContext &Ast, PrimOp Op,
                                  const SiteContext &Ctx) {
  const char *What = Op == PrimOp::MkPair ? "pair cell" : "cons cell";
  std::ostringstream OS;
  switch (Ctx.Kind) {
  case SiteContext::EscapesResult:
    OS << What << " stays on the GC heap: argument " << (Ctx.ArgIndex + 1)
       << " of '" << Ast.spelling(Ctx.Callee)
       << "' may escape via the callee's result (" << Ctx.EscapingSpines
       << " escaping spine(s), 0 protected)";
    break;
  case SiteContext::UnknownCallee:
    OS << What << " stays on the GC heap: the surrounding call's callee "
       << "is unknown or unsaturated, so the local escape test cannot "
       << "protect the argument";
    break;
  case SiteContext::Protected:
    if (Ctx.Detached)
      OS << What << " stays on the GC heap: it is in element position "
         << "(not on a spine the analysis grades) of argument "
         << (Ctx.ArgIndex + 1) << " of '" << Ast.spelling(Ctx.Callee)
         << "'";
    else if (Ctx.Level > Ctx.ProtectedSpines)
      OS << What << " stays on the GC heap: it builds spine level "
         << Ctx.Level << " of argument " << (Ctx.ArgIndex + 1) << " of '"
         << Ast.spelling(Ctx.Callee) << "', below the protected prefix "
         << "(top " << Ctx.ProtectedSpines << " spine(s))";
    else
      OS << What << " is within the protected prefix of argument "
         << (Ctx.ArgIndex + 1) << " of '" << Ast.spelling(Ctx.Callee)
         << "' but no directive covers it (stack/region allocation "
         << "disabled?)";
    break;
  case SiteContext::None:
    OS << What << " stays on the GC heap: no protecting call site — it "
       << "builds a result or a locally let-bound value, so only a "
       << "caller-side region could place it";
    break;
  }
  return OS.str();
}

const char *explain::findingCode(const SiteContext &Ctx) {
  switch (Ctx.Kind) {
  case SiteContext::EscapesResult:
    return "EAL-O001";
  case SiteContext::UnknownCallee:
    return "EAL-O003";
  case SiteContext::Protected:
    return "EAL-O002";
  case SiteContext::None:
    return "EAL-O004";
  }
  return "EAL-O004";
}

//===----------------------------------------------------------------------===//
// Blame paths
//===----------------------------------------------------------------------===//

std::vector<uint32_t> explain::blamePath(const ProvenanceRecorder &P,
                                         uint32_t From) {
  std::vector<uint32_t> Path;
  if (From == NoFact || From >= P.numFacts())
    return Path;

  std::unordered_map<uint32_t, uint32_t> Parent;
  std::deque<uint32_t> Queue{From};
  Parent.emplace(From, NoFact);
  uint32_t Target = NoFact, FirstLeaf = NoFact;
  while (!Queue.empty()) {
    uint32_t F = Queue.front();
    Queue.pop_front();
    const Fact &Node = P.fact(F);
    if (Node.Kind == FactKind::Binding) {
      Target = F;
      break;
    }
    if (Node.Deps.empty() && FirstLeaf == NoFact)
      FirstLeaf = F;
    for (uint32_t Dep : Node.Deps)
      if (Parent.emplace(Dep, F).second)
        Queue.push_back(Dep);
  }
  if (Target == NoFact)
    Target = FirstLeaf == NoFact ? From : FirstLeaf;

  for (uint32_t F = Target; F != NoFact; F = Parent[F])
    Path.push_back(F);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

//===----------------------------------------------------------------------===//
// Chain construction
//===----------------------------------------------------------------------===//

namespace {

const char *stepTitleFor(FactKind K) {
  switch (K) {
  case FactKind::Binding:
    return "fixpoint derivation";
  case FactKind::Apply:
    return "closure application";
  case FactKind::Query:
    return "escape verdict";
  case FactKind::Sharing:
    return "sharing derivation";
  case FactKind::Decision:
    return "decision";
  case FactKind::Finding:
    return "finding";
  case FactKind::Liveness:
    return "liveness derivation";
  case FactKind::Speculation:
    return "speculative re-classification";
  }
  return "fact";
}

BlameStep stepForFact(const ProvenanceRecorder &P, uint32_t F) {
  const Fact &Node = P.fact(F);
  BlameStep S;
  S.Title = stepTitleFor(Node.Kind);
  S.Detail = Node.Label;
  if (!Node.Result.empty())
    S.Detail += " = " + Node.Result;
  if (!Node.Equation.empty())
    S.Detail += " [" + Node.Equation + "]";
  S.Loc = Node.Loc;
  S.FactRef = F;
  return S;
}

/// The terminal step: the program point that decided the storage class.
BlameStep terminalStep(const AstContext &Ast, const SiteInfo &SI) {
  const SiteContext &Ctx = SI.Ctx;
  BlameStep S;
  S.Loc = Ctx.CallLoc.isValid() ? Ctx.CallLoc : SI.Site->loc();
  std::ostringstream OS;
  if (SI.Storage == SiteStorage::Stack) {
    S.Title = "stack allocation";
    OS << "cells live in the activation record of '"
       << Ast.spelling(SI.PlanOwner) << "' and die when it is popped (A.3.1)";
    S.Detail = OS.str();
    return S;
  }
  if (SI.Storage == SiteStorage::Region) {
    S.Title = "region allocation";
    OS << "cells fill a block owned by the activation of '"
       << Ast.spelling(SI.PlanOwner)
       << "'; the whole block is freed when it returns (A.3.3)";
    S.Detail = OS.str();
    return S;
  }
  switch (Ctx.Kind) {
  case SiteContext::EscapesResult:
    S.Title = "escaping return";
    OS << "the result of '" << Ast.spelling(Ctx.Callee) << "' carries "
       << (Ctx.EscapingSpines ? Ctx.EscapingSpines : 1u)
       << " spine(s) of argument " << (Ctx.ArgIndex + 1)
       << " back to the caller, so its cells must outlive the activation";
    break;
  case SiteContext::UnknownCallee:
    S.Title = "unknown callee";
    OS << "the surrounding call's callee is unknown or unsaturated; no "
       << "per-call directive can be issued";
    break;
  case SiteContext::Protected:
    if (Ctx.Detached) {
      S.Title = "off-spine element";
      OS << "the cell sits in element position; the analysis grades only "
         << "spines, so no verdict covers it";
    } else if (Ctx.Level > Ctx.ProtectedSpines) {
      S.Title = "below protected prefix";
      OS << "spine level " << Ctx.Level << " lies below the protected "
         << "prefix (top " << Ctx.ProtectedSpines << " spine(s) of argument "
         << (Ctx.ArgIndex + 1) << " of '" << Ast.spelling(Ctx.Callee)
         << "')";
    } else {
      S.Title = "disabled optimization";
      OS << "the cell is within the protected prefix of argument "
         << (Ctx.ArgIndex + 1) << " of '" << Ast.spelling(Ctx.Callee)
         << "' but no directive covers it";
    }
    break;
  case SiteContext::None:
    S.Title = "no protecting call";
    OS << "the cell builds a result or a locally let-bound value; only a "
       << "caller-side region could place it";
    break;
  }
  S.Detail = OS.str();
  return S;
}

std::string locString(const SourceManager &SM, SourceLoc Loc) {
  LineColumn LC = SM.lineColumn(Loc);
  std::ostringstream OS;
  OS << SM.name() << ':' << LC.Line << ':' << LC.Column;
  return OS.str();
}

} // namespace

ExplainReport explain::buildExplainReport(const AstContext &Ast,
                                          const TypedProgram &Program,
                                          const std::vector<SiteInfo> &Sites,
                                          const ProvenanceRecorder &Recorder) {
  (void)Program;
  ExplainReport R;
  R.Recorder = &Recorder;
  R.Chains.reserve(Sites.size());
  for (const SiteInfo &SI : Sites) {
    BlameChain C;
    C.SiteId = SI.Site->id();
    C.SiteLoc = SI.Site->loc();
    C.Op = SI.Op;
    C.Storage = SI.Storage;
    const char *What = SI.Op == PrimOp::MkPair ? "pair cell" : "cons cell";

    uint32_t Start =
        SI.Storage == SiteStorage::Heap ? SI.Ctx.VerdictProv : SI.PlanProv;
    C.Facts = blamePath(Recorder, Start);

    BlameStep Site;
    Site.Title = "allocation site";
    Site.Detail = std::string(What) + " allocated here; storage class: " +
                  siteStorageName(SI.Storage);
    Site.Loc = SI.Site->loc();
    C.Steps.push_back(std::move(Site));

    if (SI.Storage == SiteStorage::Heap) {
      C.Code = findingCode(SI.Ctx);
      BlameStep Why;
      Why.Title = "blocked optimization";
      Why.Detail = "[" + C.Code + "] " + describeSite(Ast, SI.Op, SI.Ctx);
      Why.Loc = SI.Ctx.CallLoc.isValid() ? SI.Ctx.CallLoc : SI.Site->loc();
      C.Steps.push_back(std::move(Why));
      for (uint32_t F : C.Facts)
        C.Steps.push_back(stepForFact(Recorder, F));
    } else {
      // Planned sites: the blame path starts at the directive fact; its
      // derivation (verdict, fixpoint) follows.
      for (uint32_t F : C.Facts)
        C.Steps.push_back(stepForFact(Recorder, F));
    }
    C.Steps.push_back(terminalStep(Ast, SI));
    R.Chains.push_back(std::move(C));
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::vector<const BlameChain *>
ExplainReport::chainsAt(const SourceManager &SM, LineColumn LC) const {
  std::vector<const BlameChain *> Exact, OnLine;
  for (const BlameChain &C : Chains) {
    LineColumn Here = SM.lineColumn(C.SiteLoc);
    if (Here.Line != LC.Line)
      continue;
    OnLine.push_back(&C);
    if (LC.Column != 0 && Here.Column == LC.Column)
      Exact.push_back(&C);
  }
  return Exact.empty() ? OnLine : Exact;
}

std::string ExplainReport::renderText(const SourceManager &SM) const {
  std::ostringstream OS;
  bool First = true;
  for (const BlameChain &C : Chains) {
    if (!First)
      OS << '\n';
    First = false;
    OS << locString(SM, C.SiteLoc) << ": "
       << (C.Op == PrimOp::MkPair ? "pair cell" : "cons cell") << " -> "
       << siteStorageName(C.Storage);
    if (!C.Code.empty())
      OS << " [" << C.Code << "]";
    OS << '\n';
    for (size_t I = 0; I != C.Steps.size(); ++I) {
      const BlameStep &S = C.Steps[I];
      OS << "  " << (I + 1) << ". " << S.Title << ": " << S.Detail;
      if (S.Loc.isValid())
        OS << " (at " << locString(SM, S.Loc) << ')';
      OS << '\n';
      // Fixpoint facts carry their Appendix-A iterates; print them as the
      // derivation's inner lines.
      if (Recorder && S.FactRef != NoFact) {
        const Fact &F = Recorder->fact(S.FactRef);
        if (F.Kind == FactKind::Binding)
          for (const RaiseEvent &E : F.Raises)
            OS << "       " << F.Label << "^(" << E.Round
               << ") = " << E.Value << '\n';
      }
    }
  }
  return OS.str();
}

std::string ExplainReport::toJson(const SourceManager &SM,
                                  const std::string &Command,
                                  bool Success) const {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"schema\": \"eal-explain-v1\",\n"
     << "  \"command\": " << obs::jsonQuote(Command) << ",\n"
     << "  \"file\": " << obs::jsonQuote(SM.name()) << ",\n"
     << "  \"success\": " << (Success ? "true" : "false") << ",\n";
  OS << "  \"graph\": {\"facts\": " << (Recorder ? Recorder->numFacts() : 0)
     << ", \"edges\": " << (Recorder ? Recorder->numEdges() : 0)
     << ", \"raises\": " << (Recorder ? Recorder->numRaises() : 0)
     << ", \"max_depth\": " << (Recorder ? Recorder->maxDepth() : 0)
     << "},\n";

  OS << "  \"chains\": [";
  for (size_t I = 0; I != Chains.size(); ++I) {
    const BlameChain &C = Chains[I];
    LineColumn LC = SM.lineColumn(C.SiteLoc);
    OS << (I ? ",\n" : "\n") << "    {\"site\": {\"id\": " << C.SiteId
       << ", \"line\": " << LC.Line << ", \"col\": " << LC.Column
       << ", \"prim\": "
       << obs::jsonQuote(C.Op == PrimOp::MkPair ? "mkpair" : "cons")
       << ", \"storage\": " << obs::jsonQuote(siteStorageName(C.Storage))
       << ", \"code\": ";
    if (C.Code.empty())
      OS << "null";
    else
      OS << obs::jsonQuote(C.Code);
    OS << "},\n     \"steps\": [";
    for (size_t J = 0; J != C.Steps.size(); ++J) {
      const BlameStep &S = C.Steps[J];
      LineColumn SL = SM.lineColumn(S.Loc);
      OS << (J ? ",\n       " : "\n       ") << "{\"title\": "
         << obs::jsonQuote(S.Title) << ", \"detail\": "
         << obs::jsonQuote(S.Detail) << ", \"line\": " << SL.Line
         << ", \"col\": " << SL.Column << ", \"fact\": ";
      if (S.FactRef == NoFact)
        OS << "null";
      else
        OS << S.FactRef;
      OS << "}";
    }
    OS << "\n     ],\n     \"facts\": [";
    for (size_t J = 0; J != C.Facts.size(); ++J)
      OS << (J ? ", " : "") << C.Facts[J];
    OS << "]}";
  }
  OS << "\n  ],\n";

  OS << "  \"facts\": [";
  size_t NumFacts = Recorder ? Recorder->numFacts() : 0;
  for (size_t I = 0; I != NumFacts; ++I) {
    const Fact &F = Recorder->fact(static_cast<uint32_t>(I));
    LineColumn LC = SM.lineColumn(F.Loc);
    OS << (I ? ",\n" : "\n") << "    {\"id\": " << I << ", \"kind\": "
       << obs::jsonQuote(factKindName(F.Kind)) << ", \"label\": "
       << obs::jsonQuote(F.Label) << ", \"equation\": "
       << obs::jsonQuote(F.Equation) << ", \"line\": " << LC.Line
       << ", \"col\": " << LC.Column << ", \"result\": "
       << obs::jsonQuote(F.Result) << ",\n     \"deps\": [";
    for (size_t J = 0; J != F.Deps.size(); ++J)
      OS << (J ? ", " : "") << F.Deps[J];
    OS << "], \"raises\": [";
    for (size_t J = 0; J != F.Raises.size(); ++J) {
      const RaiseEvent &E = F.Raises[J];
      OS << (J ? ", " : "") << "{\"round\": " << E.Round << ", \"value\": "
         << obs::jsonQuote(E.Value) << ", \"deps\": [";
      for (size_t K = 0; K != E.Deps.size(); ++K)
        OS << (K ? ", " : "") << E.Deps[K];
      OS << "]}";
    }
    OS << "]}";
  }
  OS << "\n  ]\n}\n";
  return OS.str();
}

std::string ExplainReport::toDot() const {
  std::unordered_set<uint32_t> OnChain;
  for (const BlameChain &C : Chains)
    for (uint32_t F : C.Facts)
      OnChain.insert(F);

  auto Quote = [](std::string_view S) {
    std::string Out;
    Out.reserve(S.size());
    for (char Ch : S) {
      if (Ch == '"' || Ch == '\\')
        Out += '\\';
      Out += Ch == '\n' ? ' ' : Ch;
    }
    return Out;
  };

  std::ostringstream OS;
  OS << "digraph provenance {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n";
  size_t NumFacts = Recorder ? Recorder->numFacts() : 0;
  for (size_t I = 0; I != NumFacts; ++I) {
    const Fact &F = Recorder->fact(static_cast<uint32_t>(I));
    OS << "  f" << I << " [label=\"" << factKindName(F.Kind) << ": "
       << Quote(F.Label);
    if (!F.Result.empty())
      OS << "\\n= " << Quote(F.Result);
    OS << '"';
    if (OnChain.count(static_cast<uint32_t>(I)))
      OS << ", penwidth=2, color=red";
    OS << "];\n";
  }
  for (size_t I = 0; I != NumFacts; ++I) {
    const Fact &F = Recorder->fact(static_cast<uint32_t>(I));
    for (uint32_t Dep : F.Deps)
      OS << "  f" << I << " -> f" << Dep << ";\n";
  }
  OS << "}\n";
  return OS.str();
}
