//===- LiveAnalyzer.h - Interprocedural heap-liveness analysis --*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `eal::live`: a backward, interprocedural liveness analysis over the
/// demand lattice of Demand.h (docs/LIVENESS.md). Where the escape
/// analyzer answers "how far does this value *flow*", the liveness
/// analyzer answers the dual question: "how much of this value does any
/// consumer ever *read*". An allocation whose joined demand is ⊥ builds
/// dead data — cells no `car`/`cdr`/`fst`/`snd` will ever touch.
///
/// Per-function summaries keyed by (binding, result demand) are entries
/// of the memoized fixpoint solver the escape analyzer also runs on
/// (explain/Fixpoint.h, §3.5): seeded at ⊥ and recomputed in monotone
/// rounds until nothing rises. Theorem 1
/// (polymorphic invariance, §5) is what justifies summarizing a binding
/// once per *demand* rather than once per type instance: liveness, like
/// escape behaviour, is invariant under the type instantiations a
/// polymorphic function takes on.
///
/// The language is strict, so evaluation of a subterm happens even when
/// its value is dead; the transfer rules therefore always descend into
/// subexpressions — a `car x` executed for effect still touches `x`'s
/// head cell — and demand ⊥ means "the *result* is never read", not
/// "the expression never runs". Higher-order escapes (a binding used
/// first-class, partial application) conservatively worst-case the
/// function: every parameter demanded ⊤.
///
/// Results: a per-site demand map (join over every consuming context),
/// per-function summaries under ⊤, and the `eal-live-v1` JSON document
/// (validated by tools/check_json.py). With a ProvenanceRecorder
/// attached, every summary and site demand becomes a Liveness fact whose
/// dependency edges name the demanding context — the blame chains behind
/// the EAL-D findings (docs/EXPLAIN.md).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_LIVE_LIVEANALYZER_H
#define EAL_LIVE_LIVEANALYZER_H

#include "lang/Ast.h"
#include "live/Demand.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace eal {

class SourceManager;
class TypedProgram;

namespace explain {
class ProvenanceRecorder;
}

namespace live {

/// The liveness summary of one top-level binding: what each parameter's
/// demand is when the function's *result* is fully demanded (⊤). The
/// paper-facing invariant (docs/LIVENESS.md): append x y under result
/// demand ⟨d,e⟩ yields x ↦ ⟨∞,e⟩ (strict evaluation walks all of x
/// regardless of d) and y ↦ ⟨d,e⟩.
struct FunctionLive {
  Symbol Name;
  SourceLoc Loc;
  unsigned Arity = 0;
  std::vector<Symbol> ParamNames;
  /// Parameter demands in binder order: the join over every analyzed
  /// result demand (⊤ dominates when the function is called from a
  /// fully demanded context; a never-called function reports all-⊥).
  std::vector<Demand> Params;
  /// The binding escaped into first-class use (argument position,
  /// partial/over-application, shadowed duplicate): summaries are ⊤.
  bool WorstCased = false;
};

/// One cons/mkpair/dcons allocation site of the analyzed program with
/// its joined demand. Site ids match the runtime's ConsCell::SiteId
/// tagging: the outermost App node of a saturated primitive spine, or
/// the PrimExpr node for a first-class primitive.
struct SiteLive {
  const Expr *Site = nullptr;
  PrimOp Op = PrimOp::Cons;
  /// Join of the demands of every context the site's value reaches.
  /// ⊥ = dead data: no field of any cell born here is ever read.
  Demand Dem;
  /// Enclosing top-level binding (invalid symbol = program body).
  Symbol Context;
  /// Liveness provenance fact for this site (explain::NoFact when no
  /// recorder was attached).
  uint32_t Fact = ~0u;
  /// The enclosing function can never run (never called and never used
  /// first-class — e.g. the optimizer's superseded original after DCONS
  /// cloning): Dem is ⊥ because the site is dead *code*, not dead data.
  /// The ⊥ claim is vacuously safe (the runtime never allocates here),
  /// but the dead-data lint (EAL-D001) skips these.
  bool Unreached = false;
};

/// Everything one liveness run produced.
struct LiveReport {
  std::vector<FunctionLive> Functions;
  /// Every allocation site of the program, in node-id order. Sites in
  /// never-demanded *and never-called* code are ⊥ too (the runtime
  /// never allocates there, so the claim is vacuously safe).
  std::vector<SiteLive> Sites;
  unsigned Rounds = 0;
  size_t SummaryEntries = 0;
  /// The round budget ran out before the fixpoint settled; remaining
  /// demands were forced to ⊤ (sound, never wrongly dead).
  bool IterationLimitHit = false;

  const FunctionLive *find(Symbol Name) const;
  const SiteLive *findSite(uint32_t Id) const;
  /// Site ids with demand ⊥ — the D001 set the oracle checks and the
  /// (gated) GC prune consumes.
  std::unordered_set<uint32_t> deadSites() const;
  size_t deadSiteCount() const;

  /// Human-readable rendering (the `eal live` default output).
  std::string render(const AstContext &Ast, const SourceManager &SM) const;
  /// The eal-live-v1 JSON document (tools/check_json.py). Inf
  /// depths are encoded as -1. \p Command and \p Success mirror the
  /// other eal-*-v1 schemas.
  std::string toJson(const AstContext &Ast, const SourceManager &SM,
                     const std::string &Command, bool Success) const;
};

/// Runs the analysis. One instance wraps one program; functionDemand()
/// may be queried repeatedly (golden tests drive it directly) and run()
/// computes the whole-program report under root demand ⊤.
class LiveAnalyzer {
public:
  /// \p Typed may be null; when present it only refines reporting
  /// (element types in the rendered report) — the analysis itself is
  /// type-agnostic, which is exactly the Theorem 1 stance.
  LiveAnalyzer(const AstContext &Ast, const Expr *Root,
               const TypedProgram *Typed = nullptr, unsigned MaxRounds = 64);
  ~LiveAnalyzer();

  /// Attach before run()/functionDemand() to record Liveness facts.
  void attachProvenance(explain::ProvenanceRecorder *P);

  /// Whole-program analysis under root demand ⊤ (the printed result is
  /// fully demanded).
  LiveReport run();

  /// The summary query: demand on each parameter of top-level binding
  /// \p Fn given result demand \p Result. Iterates the memo table to
  /// its fixpoint. Returns an empty vector for unknown bindings.
  std::vector<Demand> functionDemand(Symbol Fn, Demand Result);

private:
  class Impl;
  std::unique_ptr<Impl> TheImpl;
};

} // namespace live
} // namespace eal

#endif // EAL_LIVE_LIVEANALYZER_H
