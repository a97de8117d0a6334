//===- AllocPlanner.h - Stack/region allocation planning --------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plans the two allocation optimizations of §1/A.3.1/A.3.3:
///
///  * Stack allocation: at a call (f ... e_i ...) where the local escape
///    test shows the top p spines of e_i never escape f, cons cells that
///    build those spines may live in f's activation record and die when
///    it is popped. Sites lexically inside the argument expression
///    (literals, cons chains) are classified Stack.
///
///  * Block (region) allocation: when the argument is produced by a
///    function call (the paper's `PS (create_list i)`), the producer's
///    spine-building cons sites are classified Region: they allocate into
///    a block owned by f's activation, and the whole block returns to the
///    free list — without traversing the list — when f returns
///    (Ruggieri–Murtagh's "local heap").
///
/// Both classes share one mechanism: a per-(call, argument) directive
/// instructs the interpreter to evaluate that argument with an arena
/// active; only the cons sites listed in the directive allocate from it.
/// Spine attribution descends through cons tails (same spine level), cons
/// heads (one level deeper), if/let, cdr, and saturated calls to
/// top-level functions (into their spine-tail positions), and stops at
/// variables and car (unattributable).
///
/// A parameter that a reuse (DCONS) version consumes is never planned
/// here: the DCONS abstract semantics makes it escape, so its protected
/// spine count is 0 — the two optimizations are automatically exclusive,
/// as the paper requires.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_OPT_ALLOCPLANNER_H
#define EAL_OPT_ALLOCPLANNER_H

#include "escape/EscapeAnalyzer.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eal {

/// Why a site was placed in an arena (reporting and statistics).
enum class ArenaSiteClass : uint8_t {
  /// Lexically inside the argument expression (stack allocation).
  Stack,
  /// Inside a producer function's body (block/region allocation).
  Region,
};

/// One planned arena: evaluate argument \p ArgIndex of call \p CallAppId
/// with an arena owned by the callee's activation; the listed cons sites
/// allocate from it.
struct ArgArenaDirective {
  /// Node id of the outermost AppExpr of the call spine.
  uint32_t CallAppId = 0;
  unsigned ArgIndex = 0;
  Symbol Callee;
  /// How many top spines of the argument are protected (never escape the
  /// callee) per the local escape test.
  unsigned ProtectedSpines = 0;
  /// Cons sites (PrimExpr-rooted App node ids) allowed to allocate from
  /// the arena, with their classification.
  std::unordered_map<uint32_t, ArenaSiteClass> Sites;

  /// Why-provenance: the Decision fact recorded for this directive,
  /// citing the escape verdict that justified it (explain::NoFact when
  /// no recorder was attached).
  uint32_t ProvenanceRef = explain::NoFact;

  /// -1 for conservative directives (the planner's own output). A
  /// non-negative value marks a *speculative* directive added by the
  /// spec tier (src/spec, docs/SPECULATION.md): the value indexes the
  /// speculation whose guard protects it, the engines consult
  /// SpecHooks::directiveArmed before honoring it, and cells it places
  /// carry SpecSiteBit so a deopt can find and migrate them.
  int32_t SpecIndex = -1;

  bool hasStackSites() const {
    for (const auto &[Id, Class] : Sites)
      if (Class == ArenaSiteClass::Stack)
        return true;
    return false;
  }
  bool hasRegionSites() const {
    for (const auto &[Id, Class] : Sites)
      if (Class == ArenaSiteClass::Region)
        return true;
    return false;
  }
};

/// The whole program's allocation plan.
struct AllocationPlan {
  std::vector<ArgArenaDirective> Directives;

  /// Directives indexed by call node id (a call can have several, one per
  /// argument).
  std::unordered_map<uint32_t, std::vector<const ArgArenaDirective *>>
      ByCall;

  void index() {
    ByCall.clear();
    for (const ArgArenaDirective &D : Directives)
      ByCall[D.CallAppId].push_back(&D);
  }

  /// The directive for argument \p ArgIndex of the call whose outermost
  /// AppExpr is \p CallAppId, or null when that argument has none.
  const ArgArenaDirective *directiveFor(uint32_t CallAppId,
                                        size_t ArgIndex) const {
    auto It = ByCall.find(CallAppId);
    if (It != ByCall.end())
      for (const ArgArenaDirective *D : It->second)
        if (D->ArgIndex == ArgIndex)
          return D;
    return nullptr;
  }
};

/// Options controlling what the planner emits.
struct AllocPlannerOptions {
  bool EnableStack = true;
  bool EnableRegion = true;
  /// Why-provenance recorder; when non-null every directive records a
  /// Decision fact depending on its escape verdict (observation only:
  /// the plan itself is byte-identical either way).
  explain::ProvenanceRecorder *Prov = nullptr;
};

/// Computes an AllocationPlan for a typed program from the per-argument
/// call verdicts of \p Analyzer (EscapeAnalyzer::callEscape), which must
/// wrap that program: the analyzer alone is consulted.
class AllocPlanner {
public:
  AllocPlanner(const AstContext &Ast, const TypedProgram & /*Program*/,
               EscapeAnalyzer &Analyzer,
               AllocPlannerOptions Options = AllocPlannerOptions())
      : Ast(Ast), Analyzer(Analyzer), Options(Options) {}

  AllocationPlan run();

private:
  /// Attributes cons sites that build the top \p MaxLevel spines of \p E,
  /// starting at \p Level. \p Class labels argument-local vs callee sites.
  void attribute(const Expr *E, unsigned Level, unsigned MaxLevel,
                 ArenaSiteClass Class, ArgArenaDirective &Out);

  /// Attributes spine-building sites inside the body of the callee of
  /// \p Call, whose result feeds spine level \p Level.
  void attributeCallee(const TopLevelCall &Call, unsigned Level,
                       unsigned MaxLevel, ArgArenaDirective &Out);

  const AstContext &Ast;
  EscapeAnalyzer &Analyzer;
  AllocPlannerOptions Options;

  /// (fn symbol id, level) pairs already attributed, to cut recursion.
  std::unordered_set<uint64_t> VisitedCallees;
};

/// Renders the plan (one line per directive) for reports and examples.
std::string renderAllocationPlan(const AstContext &Ast,
                                 const AllocationPlan &Plan);

} // namespace eal

#endif // EAL_OPT_ALLOCPLANNER_H
