//===- Explain.h - Blame chains from provenance graphs ----------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a ProvenanceRecorder's fact graph into *blame chains*: for every
/// cons/pair allocation site of the final program, a minimal derivation
/// from the site to the program point that decides its storage — the
/// escaping return that forces heap residency, or the escape verdict that
/// justified a stack/region directive (docs/EXPLAIN.md).
///
/// The site classifier walks the final program exactly like the EAL-O
/// linter pass (same context propagation, same verdict queries), so the
/// linter itself is built on it: one walk yields both the findings and
/// the chains, and the two can never disagree about why a cell stayed on
/// the GC heap.
///
/// Renderable as human-readable text (`eal explain`), as the
/// eal-explain-v1 JSON schema (validated by tools/check_json.py),
/// and as a Graphviz DOT graph.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_EXPLAIN_EXPLAIN_H
#define EAL_EXPLAIN_EXPLAIN_H

#include "escape/EscapeAnalyzer.h"
#include "explain/Provenance.h"
#include "opt/AllocPlanner.h"

#include <string>
#include <vector>

namespace eal {

class SourceManager;

namespace explain {

/// Where a site's cells live under the final allocation plan.
enum class SiteStorage : uint8_t { Heap, Stack, Region };

/// Returns "heap" / "stack" / "region".
const char *siteStorageName(SiteStorage S);

/// Why the cells at a site would (not) be protected: the verdict of the
/// escape test on the surrounding argument position, plus where the site
/// sits relative to the argument's graded spines.
struct SiteContext {
  enum KindT {
    None,          ///< result/let/program position: nothing protects
    Protected,     ///< argument with a positive protected prefix
    EscapesResult, ///< argument the verdict says escapes
    UnknownCallee, ///< argument of a call the local test cannot see
  } Kind = None;
  Symbol Callee;
  unsigned ArgIndex = 0;
  unsigned ProtectedSpines = 0;
  unsigned EscapingSpines = 0;
  unsigned Level = 1;    ///< spine level within the argument
  bool Detached = false; ///< left the spine (element position etc.)
  /// The Query fact the verdict was derived under (NoFact when the
  /// analyzer had no recorder attached).
  uint32_t VerdictProv = NoFact;
  /// The call application that established this context.
  SourceLoc CallLoc;
};

/// One classified allocation site of the final program.
struct SiteInfo {
  const Expr *Site = nullptr;
  PrimOp Op = PrimOp::Cons;
  SiteStorage Storage = SiteStorage::Heap;
  SiteContext Ctx;
  /// Planned sites: the covering directive's Decision fact (NoFact when
  /// the planner had no recorder attached, or for heap sites).
  uint32_t PlanProv = NoFact;
  /// Planned sites: the callee whose activation owns the arena, straight
  /// from the directive. Ctx.Callee cannot stand in for it: the classifier
  /// walk may reach a planned site through a context that never entered a
  /// protecting call (Ctx.Kind == None, Callee invalid).
  Symbol PlanOwner;
};

/// Walks the final program (every top-level binding body, then the
/// program body) and classifies every cons/mkpair site: its storage under
/// \p Plan and the escape-test context of its position. \p Analyzer must
/// wrap the same program; call verdicts come from its callEscape (the
/// planner's rule), so a recorder attached to it yields VerdictProv
/// anchors, and the planner's own analyzer yields the planner's facts.
std::vector<SiteInfo> classifySites(const AstContext &Ast,
                                    const TypedProgram &Program,
                                    EscapeAnalyzer &Analyzer,
                                    const AllocationPlan &Plan);

/// The linter/explain note text for \p Site's classification — the EAL-O
/// story of why the cell stays on the GC heap (heap sites only; shared by
/// the linter and the chain builder so they can never diverge).
std::string describeSite(const AstContext &Ast, PrimOp Op,
                         const SiteContext &Ctx);

/// The finding code describeSite's story carries: "EAL-O001" (escapes via
/// result), "EAL-O002" (below/at the protected prefix), "EAL-O003"
/// (unknown callee), "EAL-O004" (no protecting call site).
const char *findingCode(const SiteContext &Ctx);

/// Shortest dependency path (BFS over Deps edges) from \p From to a
/// fixpoint Binding fact — the leaf that actually decided the verdict.
/// Falls back to the path to the nearest dependency-free fact when no
/// Binding is reachable; returns {From} for a lone fact and {} for
/// NoFact.
std::vector<uint32_t> blamePath(const ProvenanceRecorder &P, uint32_t From);

/// One step of a rendered blame chain.
struct BlameStep {
  std::string Title;  ///< "allocation site", "escape verdict", ...
  std::string Detail; ///< human-readable story for this step
  SourceLoc Loc;
  uint32_t FactRef = NoFact; ///< the graph fact this step renders, if any
};

/// The derivation for one allocation site: from the site to the program
/// point deciding its storage.
struct BlameChain {
  uint32_t SiteId = 0; ///< AST node id of the allocation application
  SourceLoc SiteLoc;
  PrimOp Op = PrimOp::Cons;
  SiteStorage Storage = SiteStorage::Heap;
  /// EAL-O code for heap sites (matches the linter's note); empty for
  /// planned (stack/region) sites.
  std::string Code;
  std::vector<BlameStep> Steps;
  /// The blame path: fact ids from the verdict down to the fixpoint leaf.
  std::vector<uint32_t> Facts;
};

/// Chains for every site, plus the graph they index into.
struct ExplainReport {
  /// The recorder the chains reference (not owned; must outlive this).
  const ProvenanceRecorder *Recorder = nullptr;
  std::vector<BlameChain> Chains;

  /// Chains whose site covers \p LC (the `--at=line:col` filter): exact
  /// position match first; when nothing matches exactly, every chain on
  /// that line.
  std::vector<const BlameChain *> chainsAt(const SourceManager &SM,
                                           LineColumn LC) const;

  /// Human-readable rendering: one indented step list per chain.
  std::string renderText(const SourceManager &SM) const;
  /// The eal-explain-v1 JSON document. \p Command and \p Success describe
  /// the producing invocation (mirrors eal-check-v1).
  std::string toJson(const SourceManager &SM, const std::string &Command,
                     bool Success) const;
  /// The provenance graph as Graphviz DOT (chain facts highlighted).
  std::string toDot() const;
};

/// Builds the chains for \p Sites against \p Recorder's graph.
ExplainReport buildExplainReport(const AstContext &Ast,
                                 const TypedProgram &Program,
                                 const std::vector<SiteInfo> &Sites,
                                 const ProvenanceRecorder &Recorder);

} // namespace explain
} // namespace eal

#endif // EAL_EXPLAIN_EXPLAIN_H
