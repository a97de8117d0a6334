//===- ProfileReport.h - eal-profile-v1 report builder ----------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Joins the raw uint32-keyed data of one or two Profiler runs (tree
/// walker and/or VM) with the static world — the final AST, the
/// allocation plan, the reuse transformation record, and the EAL-O
/// "why is this still on the GC heap" lint findings — into:
///
///  * the `eal-profile-v1` JSON document (validated by
///    tools/check_json.py): every static cons/pair/dcons site
///    with its file:line:col, the storage class the optimizer planned
///    for it, why, and what each engine actually observed there;
///  * collapsed stacks (`folded` format) for flamegraph tooling;
///  * a human-readable summary for the terminal.
///
/// Lives in its own library (eal_prof_report) because resolving site and
/// frame keys needs the AST/plan/check layers the hot-path profiler must
/// not depend on. VM-specific names (proto names, opcode names) are
/// passed in as plain strings so this library stays independent of
/// eal_vm.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_PROF_PROFILEREPORT_H
#define EAL_PROF_PROFILEREPORT_H

#include "check/CheckReport.h"
#include "explain/Provenance.h"
#include "lang/Ast.h"
#include "opt/AllocPlanner.h"
#include "opt/ReuseTransform.h"
#include "prof/Profiler.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace eal {

class SourceManager;

namespace prof {

/// One engine's run, as handed to the report builder.
struct EngineProfile {
  /// Display name, by convention "tree" or "vm" (becomes the root frame
  /// of that engine's folded stacks and its key in the JSON).
  std::string Name;
  const Profiler *P = nullptr;
  /// Whether the run completed successfully.
  bool Success = false;
  /// VM only: frame key (proto index) -> proto name; empty for the tree
  /// walker, whose keys are lambda node ids resolved against the AST.
  std::vector<std::string> FrameNames;
  /// VM only: opcode index -> mnemonic, for the per-opcode counters.
  std::vector<std::string> OpcodeNames;
};

/// The joined static+dynamic profile of one program.
class ProfileReport {
public:
  /// \p FinalRoot is the optimized program the engines actually ran
  /// (OptimizedProgram::Root); \p Findings may be null (no lint run).
  /// All referenced objects must outlive the report.
  ProfileReport(const AstContext &Ast, const SourceManager &SM,
                const Expr *FinalRoot, const AllocationPlan &Plan,
                const ReuseTransformResult &Reuse,
                const std::vector<check::Finding> *Findings,
                std::vector<EngineProfile> Engines);

  /// One static allocation site of the final program.
  struct Site {
    uint32_t Id = 0;
    SourceLoc Loc;
    PrimOp Op = PrimOp::Cons; ///< Cons, MkPair, or DCons
    /// True for a primitive-as-value occurrence (cells allocated through
    /// the prim closure, no saturated call spine in the source).
    bool PrimValue = false;
    /// "stack" | "region" | "reuse" | "heap" — the optimizer's verdict.
    std::string Planned;
    /// Why the optimizer claimed (or could not claim) the site.
    std::string Why;
    /// Why-provenance anchor (docs/EXPLAIN.md): the fact behind the
    /// verdict — the directive/version Decision fact, or the heap
    /// finding's blame head (explain::NoFact when no recorder ran).
    uint32_t Prov = explain::NoFact;
  };

  const std::vector<Site> &sites() const { return SiteTable; }
  const std::vector<EngineProfile> &engines() const { return Engines; }

  /// Resolves one stack-tree frame key of \p E to a display name
  /// ("ps", "proto 3 'split'", "lambda@4:11", "<main>").
  std::string frameName(const EngineProfile &E, uint32_t Key) const;

  /// The eal-profile-v1 JSON document.
  std::string toJson() const;
  /// Collapsed stacks for all engines, each line prefixed with the
  /// engine name as the root frame.
  std::string folded() const;
  /// Human-readable terminal summary.
  std::string renderSummary() const;

private:
  void buildSiteTable();
  std::string plannedFor(uint32_t Id, PrimOp Op, SourceLoc Loc,
                         std::string &Why, uint32_t &Prov) const;

  const AstContext &Ast;
  const SourceManager &SM;
  const Expr *Root;
  const AllocationPlan &Plan;
  const ReuseTransformResult &Reuse;
  const std::vector<check::Finding> *Findings;
  std::vector<EngineProfile> Engines;

  std::vector<Site> SiteTable;
  /// Tree-walker frame keys: lambda node id -> binding spelling (for
  /// lambdas that are (curried) bodies of let/letrec bindings).
  std::unordered_map<uint32_t, std::string> TreeFrameNames;
  /// Every lambda of the final program, for the location fallback.
  std::unordered_map<uint32_t, const LambdaExpr *> Lambdas;
  /// DCONS site id -> the reuse version whose primed binding holds it.
  std::unordered_map<uint32_t, const ReuseVersion *> DconsVersions;
};

} // namespace prof
} // namespace eal

#endif // EAL_PROF_PROFILEREPORT_H
