//===- ProfileReport.cpp --------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "prof/ProfileReport.h"

#include "lang/AstUtils.h"
#include "support/Casting.h"
#include "support/SourceManager.h"
#include "support/Trace.h"

#include <algorithm>
#include <sstream>

using namespace eal;
using namespace eal::prof;

namespace {

/// "file:line:col" (or "file:?" for synthesized locations).
std::string renderLoc(const SourceManager &SM, SourceLoc Loc) {
  LineColumn LC = SM.lineColumn(Loc);
  std::ostringstream OS;
  OS << SM.name() << ':';
  if (LC.Line)
    OS << LC.Line << ':' << LC.Column;
  else
    OS << '?';
  return OS.str();
}

} // namespace

ProfileReport::ProfileReport(const AstContext &Ast, const SourceManager &SM,
                             const Expr *FinalRoot,
                             const AllocationPlan &Plan,
                             const ReuseTransformResult &Reuse,
                             const std::vector<check::Finding> *Findings,
                             std::vector<EngineProfile> Engines)
    : Ast(Ast), SM(SM), Root(FinalRoot), Plan(Plan), Reuse(Reuse),
      Findings(Findings), Engines(std::move(Engines)) {
  // Frame-name tables for the tree walker: a lambda that is the
  // (curried) body of a let/letrec binding is named after the binding;
  // anything else falls back to its source location.
  forEachExpr(Root, [&](const Expr *E) {
    if (const auto *L = dyn_cast<LambdaExpr>(E))
      Lambdas.emplace(L->id(), L);
    auto NameChain = [&](Symbol Name, const Expr *Value) {
      std::string Spelling(this->Ast.spelling(Name));
      const Expr *B = Value;
      while (const auto *L = dyn_cast<LambdaExpr>(B)) {
        TreeFrameNames.emplace(L->id(), Spelling);
        B = L->body();
      }
    };
    if (const auto *LR = dyn_cast<LetrecExpr>(E)) {
      for (const LetrecBinding &B : LR->bindings()) {
        NameChain(B.Name, B.Value);
        for (const ReuseVersion &V : this->Reuse.Versions)
          if (B.Name == V.Primed)
            forEachAllocSite(B.Value, [&](const Expr *Site, PrimOp Op) {
              if (Op == PrimOp::DCons)
                DconsVersions.emplace(Site->id(), &V);
            });
      }
    } else if (const auto *LE = dyn_cast<LetExpr>(E)) {
      NameChain(LE->name(), LE->value());
    }
  });
  buildSiteTable();
}

void ProfileReport::buildSiteTable() {
  forEachAllocSite(Root, [&](const Expr *E, PrimOp Op) {
    Site S;
    S.Id = E->id();
    S.Loc = E->loc();
    S.Op = Op;
    S.PrimValue = isa<PrimExpr>(E);
    SiteTable.push_back(std::move(S));
  });

  for (Site &S : SiteTable)
    S.Planned = plannedFor(S.Id, S.Op, S.Loc, S.Why, S.Prov);

  // Deterministic order: source position, then id (synthesized last).
  std::sort(SiteTable.begin(), SiteTable.end(),
            [](const Site &A, const Site &B) {
              if (A.Loc != B.Loc)
                return A.Loc < B.Loc;
              return A.Id < B.Id;
            });
}

std::string ProfileReport::plannedFor(uint32_t Id, PrimOp Op, SourceLoc Loc,
                                      std::string &Why,
                                      uint32_t &Prov) const {
  if (Op == PrimOp::DCons) {
    std::ostringstream OS;
    OS << "cons rewritten to DCONS by the in-place reuse transformation "
          "(§6): overwrites the dead head cell of a parameter whose top "
          "spine the analysis proved unshared";
    auto It = DconsVersions.find(Id);
    if (It != DconsVersions.end()) {
      const ReuseVersion &V = *It->second;
      OS << "; reuse version: " << Ast.spelling(V.Primed) << " (param "
         << (V.ParamIndex + 1) << " of " << Ast.spelling(V.Original) << ")";
      Prov = V.ProvenanceRef;
    }
    Why = OS.str();
    return "reuse";
  }

  for (const ArgArenaDirective &D : Plan.Directives) {
    auto It = D.Sites.find(Id);
    if (It == D.Sites.end())
      continue;
    std::ostringstream OS;
    bool IsStack = It->second == ArenaSiteClass::Stack;
    OS << (IsStack
               ? "stack-allocated (A.3.1): builds the top "
               : "region-allocated (A.3.3): producer output feeding the top ")
       << D.ProtectedSpines << " spine(s) of argument " << (D.ArgIndex + 1)
       << " of '" << Ast.spelling(D.Callee)
       << "', which never escape its activation"
       << (IsStack ? "" : "; the whole block is bulk-freed on return");
    Why = OS.str();
    Prov = D.ProvenanceRef;
    return IsStack ? "stack" : "region";
  }

  // GC heap: quote the linter's EAL-O explanation when one points at
  // this site.
  if (Findings)
    for (const check::Finding &F : *Findings)
      if (F.Loc == Loc && F.Code.size() > 5 && F.Code.compare(0, 5, "EAL-O") == 0) {
        Why = "[" + F.Code + "] " + F.Message;
        if (!F.Blame.empty())
          Prov = F.Blame.front();
        return "heap";
      }
  Why = "not claimed by any optimization";
  return "heap";
}

std::string ProfileReport::frameName(const EngineProfile &E,
                                     uint32_t Key) const {
  if (Key == StackTree::RootKey)
    return "<root>";
  if (!E.FrameNames.empty()) {
    if (Key < E.FrameNames.size() && !E.FrameNames[Key].empty())
      return E.FrameNames[Key];
    return "proto" + std::to_string(Key);
  }
  auto It = TreeFrameNames.find(Key);
  if (It != TreeFrameNames.end())
    return It->second;
  auto L = Lambdas.find(Key);
  if (L != Lambdas.end()) {
    LineColumn LC = SM.lineColumn(L->second->loc());
    return "lambda@" + std::to_string(LC.Line) + ":" +
           std::to_string(LC.Column);
  }
  return "frame" + std::to_string(Key);
}

std::string ProfileReport::folded() const {
  std::string Out;
  for (const EngineProfile &E : Engines) {
    if (!E.P)
      continue;
    Out += E.P->stacks().folded(
        [&](uint32_t Key) { return frameName(E, Key); }, E.Name);
  }
  return Out;
}

std::string ProfileReport::toJson() const {
  std::ostringstream OS;
  bool AllOk = true;
  for (const EngineProfile &E : Engines)
    AllOk = AllOk && E.Success;

  OS << "{\n"
     << "  \"schema\": \"eal-profile-v1\",\n"
     << "  \"program\": " << obs::jsonQuote(SM.name()) << ",\n"
     << "  \"success\": " << (AllOk ? "true" : "false") << ",\n"
     << "  \"sites\": [";
  for (size_t I = 0; I != SiteTable.size(); ++I) {
    const Site &S = SiteTable[I];
    LineColumn LC = SM.lineColumn(S.Loc);
    OS << (I ? "," : "") << "\n    {\"id\": " << S.Id
       << ", \"line\": " << LC.Line << ", \"col\": " << LC.Column
       << ", \"prim\": " << obs::jsonQuote(primOpName(S.Op))
       << ", \"prim_value\": " << (S.PrimValue ? "true" : "false")
       << ", \"planned\": " << obs::jsonQuote(S.Planned)
       << ", \"why\": " << obs::jsonQuote(S.Why)
       << ", \"provenance_ref\": ";
    if (S.Prov == explain::NoFact)
      OS << "null";
    else
      OS << S.Prov;
    OS << ",\n     \"engines\": {";
    bool FirstEngine = true;
    for (const EngineProfile &E : Engines) {
      if (!E.P)
        continue;
      const SiteCounters *SC = E.P->site(S.Id);
      OS << (FirstEngine ? "" : ", ") << obs::jsonQuote(E.Name) << ": {";
      FirstEngine = false;
      if (SC) {
        // Incarnations born at the site (fresh allocations + DCONS
        // re-tags) minus the ones whose fields were ever demanded: the
        // dynamic dead-cell count the liveness analysis predicts
        // statically (docs/LIVENESS.md).
        uint64_t Born = SC->totalAllocs() + SC->Reuses;
        uint64_t Dead = Born > SC->FirstTouches ? Born - SC->FirstTouches : 0;
        OS << "\"allocs_heap\": " << SC->Allocs[0]
           << ", \"allocs_stack\": " << SC->Allocs[1]
           << ", \"allocs_region\": " << SC->Allocs[2]
           << ", \"deaths_heap\": " << SC->Deaths[0]
           << ", \"deaths_stack\": " << SC->Deaths[1]
           << ", \"deaths_region\": " << SC->Deaths[2]
           << ", \"reuses\": " << SC->Reuses
           << ", \"overwritten\": " << SC->Overwritten
           << ", \"first_touches\": " << SC->FirstTouches
           << ", \"dead_cells\": " << Dead
           << ", \"lifetime\": " << SC->Lifetime.toJson();
      } else {
        OS << "\"allocs_heap\": 0, \"allocs_stack\": 0, "
              "\"allocs_region\": 0, \"deaths_heap\": 0, "
              "\"deaths_stack\": 0, \"deaths_region\": 0, "
              "\"reuses\": 0, \"overwritten\": 0, \"first_touches\": 0, "
              "\"dead_cells\": 0, \"lifetime\": null";
      }
      OS << "}";
    }
    OS << "}}";
  }
  OS << (SiteTable.empty() ? "]" : "\n  ]") << ",\n";

  OS << "  \"reuse_versions\": [";
  for (size_t I = 0; I != Reuse.Versions.size(); ++I) {
    const ReuseVersion &V = Reuse.Versions[I];
    OS << (I ? "," : "") << "\n    {\"original\": "
       << obs::jsonQuote(std::string(Ast.spelling(V.Original)))
       << ", \"primed\": "
       << obs::jsonQuote(std::string(Ast.spelling(V.Primed)))
       << ", \"param_index\": " << V.ParamIndex
       << ", \"dcons_sites\": " << V.DconsSites.size() << "}";
  }
  OS << (Reuse.Versions.empty() ? "]" : "\n  ]") << ",\n";

  OS << "  \"engines\": [";
  for (size_t EI = 0; EI != Engines.size(); ++EI) {
    const EngineProfile &E = Engines[EI];
    OS << (EI ? "," : "") << "\n    {\"name\": " << obs::jsonQuote(E.Name)
       << ", \"success\": " << (E.Success ? "true" : "false");
    if (!E.P) {
      OS << "}";
      continue;
    }
    const Profiler &P = *E.P;
    OS << ", \"steps\": " << P.clock()
       << ", \"stack_nodes\": " << P.stacks().nodeCount()
       << ", \"stack_total_weight\": " << P.stacks().totalWeight();

    // Hot frames: one entry per distinct key, ordered by self weight.
    struct Frame {
      std::string Name;
      uint64_t Calls;
      uint64_t Self;
    };
    std::vector<Frame> Hot;
    for (const auto &[Key, Calls] : P.calls())
      Hot.push_back({frameName(E, Key), Calls, P.stacks().selfWeight(Key)});
    std::sort(Hot.begin(), Hot.end(), [](const Frame &A, const Frame &B) {
      if (A.Self != B.Self)
        return A.Self > B.Self;
      return A.Name < B.Name;
    });
    if (Hot.size() > 32)
      Hot.resize(32);
    OS << ", \"frames\": [";
    for (size_t I = 0; I != Hot.size(); ++I)
      OS << (I ? "," : "") << "\n      {\"name\": "
         << obs::jsonQuote(Hot[I].Name) << ", \"calls\": " << Hot[I].Calls
         << ", \"self\": " << Hot[I].Self << "}";
    OS << (Hot.empty() ? "]" : "\n    ]");

    if (P.vmProfile()) {
      OS << ", \"opcodes\": {";
      bool First = true;
      const std::vector<uint64_t> &Ops = P.opcodeCounts();
      for (size_t I = 0; I != Ops.size(); ++I) {
        if (!Ops[I])
          continue;
        std::string Name = I < E.OpcodeNames.size() && !E.OpcodeNames[I].empty()
                               ? E.OpcodeNames[I]
                               : "op" + std::to_string(I);
        OS << (First ? "" : ", ") << obs::jsonQuote(Name) << ": " << Ops[I];
        First = false;
      }
      OS << "}, \"protos\": [";
      const std::vector<uint64_t> &PI = P.protoInstrs();
      for (size_t I = 0; I != PI.size(); ++I)
        OS << (I ? "," : "") << "\n      {\"name\": "
           << obs::jsonQuote(frameName(E, static_cast<uint32_t>(I)))
           << ", \"instrs\": " << PI[I] << "}";
      OS << (PI.empty() ? "]" : "\n    ]");
    }
    OS << "}";
  }
  OS << (Engines.empty() ? "]" : "\n  ]") << "\n}\n";
  return OS.str();
}

std::string ProfileReport::renderSummary() const {
  std::ostringstream OS;
  OS << "profile: " << SM.name() << "\n";
  OS << SiteTable.size() << " allocation site(s)\n";
  for (const Site &S : SiteTable) {
    OS << "  " << renderLoc(SM, S.Loc) << ": " << primOpName(S.Op)
       << (S.PrimValue ? " (as value)" : "") << " -> " << S.Planned;
    for (const EngineProfile &E : Engines) {
      if (!E.P)
        continue;
      const SiteCounters *SC = E.P->site(S.Id);
      uint64_t Allocs = SC ? SC->totalAllocs() : 0;
      uint64_t Reuses = SC ? SC->Reuses : 0;
      uint64_t Born = Allocs + Reuses;
      uint64_t Touched = SC ? SC->FirstTouches : 0;
      uint64_t Dead = Born > Touched ? Born - Touched : 0;
      OS << "  [" << E.Name << ": " << Allocs << " alloc(s)";
      if (Reuses)
        OS << ", " << Reuses << " reuse(s)";
      if (Dead)
        OS << ", " << Dead << '/' << Born << " never touched";
      OS << "]";
    }
    OS << "\n    " << S.Why << "\n";
  }
  for (const EngineProfile &E : Engines) {
    if (!E.P)
      continue;
    const Profiler &P = *E.P;
    OS << "engine " << E.Name << ": " << P.clock() << " step(s), "
       << P.stacks().nodeCount() << " stack node(s)";
    // Hottest frame by self weight.
    std::string HotName;
    uint64_t HotSelf = 0;
    for (const auto &[Key, Calls] : P.calls()) {
      (void)Calls;
      uint64_t Self = P.stacks().selfWeight(Key);
      if (Self > HotSelf) {
        HotSelf = Self;
        HotName = frameName(E, Key);
      }
    }
    if (HotSelf)
      OS << "; hottest frame " << HotName << " (" << HotSelf
         << " self step(s))";
    OS << "\n";
  }
  return OS.str();
}
