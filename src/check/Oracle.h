//===- Oracle.h - Dynamic escape oracle -------------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the soundness story. The static analysis promises,
/// per call site, that the top s−k spines of an argument never escape the
/// callee's activation (G of §4.1 / L of §4.2); the optimizer spends that
/// promise on stack arenas, regions, and DCONS. This oracle collects
/// every such promise as a *claim table* over the final program — the
/// verdicts of EscapeAnalyzer::callEscape, the rule AllocPlanner::run
/// uses, so every planner decision is covered even when a knob left the
/// plan empty — and then, riding either engine's ExecutionObserver
/// hooks, checks each claim against the concrete heap:
///
///  * at activation entry, the claimed spine cells of each argument are
///    snapshotted by (pointer, AllocSeq) identity;
///  * at activation exit, no snapshotted cell within the protected
///    prefix may be reachable from the result — one that is refutes the
///    analysis (a hard violation, aborting the run with a diagnostic
///    naming the allocation site);
///  * the reverse direction — heap-class cells that turned out to die
///    with their activation, and claims whose first *unprotected* level
///    did not escape either — is mere imprecision, counted and exported
///    through eal::obs metrics so precision is trackable across PRs.
///
/// Arena-class cells get their own independent check: oracle runs force
/// EngineOptions::ValidateArenaFrees, which verifies cell-by-cell at
/// every arena free that the optimizer's placement was safe.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_CHECK_ORACLE_H
#define EAL_CHECK_ORACLE_H

#include "check/CheckReport.h"
#include "escape/EscapeAnalyzer.h"
#include "runtime/ExecutionObserver.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eal::check {

/// One static promise: in the call `CallAppId`, the top ProtectedSpines
/// spines of argument ArgIndex do not escape Callee's activation.
struct CallClaim {
  uint32_t CallAppId = 0;
  unsigned ArgIndex = 0;        ///< 0-based
  unsigned ProtectedSpines = 0; ///< s − k > 0
  unsigned ParamSpines = 0;     ///< s (for the imprecision probe)
  /// Claimed callee, for diagnostics...
  Symbol Callee;
  /// ...and its binding's lambda: at run time the claim applies only
  /// when this exact closure body is entered (first-class function
  /// values may route the call elsewhere). Null matches any callee —
  /// used by injected test claims.
  const LambdaExpr *CalleeLambda = nullptr;
  SourceLoc CallLoc;
};

/// The per-call claims of one program, plus node-id → location so
/// violations can name allocation sites.
struct ClaimTable {
  std::unordered_map<uint32_t, std::vector<CallClaim>> ByCall;
  std::unordered_map<uint32_t, SourceLoc> NodeLocs;
  size_t Size = 0;

  void add(CallClaim C) {
    ByCall[C.CallAppId].push_back(std::move(C));
    ++Size;
  }
};

/// Derives the claim table of \p Program (the *final*, transformed
/// program — \p Analyzer must be built over the same TypedProgram): one
/// claim per argument of a saturated top-level call whose
/// EscapeAnalyzer::callEscape verdict protects a spine. The planner
/// grades by the same rule, so the claims subsume every directive it
/// could emit; given the optimizer's own analyzer
/// (OptimizedProgram::FinalAnalyzer), they are its verdicts.
ClaimTable buildClaimTable(const AstContext &Ast, const TypedProgram &Program,
                           EscapeAnalyzer &Analyzer);

/// The ExecutionObserver that checks a claim table against a run.
class EscapeOracle final : public ExecutionObserver {
public:
  EscapeOracle(const AstContext &Ast, ClaimTable Table);

  /// Test-only hook: plants a claim the analysis never made, so the
  /// regression suite can prove the oracle detects violations. A null
  /// CalleeLambda matches whatever closure the call enters.
  void injectClaim(CallClaim C);

  /// Classifies the cells attributed to the top-level pseudo-activation
  /// against the program result; call once after the run completes.
  void finalize(const RtValue *ProgramResult);

  const OracleReport &report() const { return Report; }

  /// Number of static claims the table holds.
  size_t claimCount() const { return Table.Size; }

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override;
  void activationEntered(const LambdaExpr *Fn, const AppExpr *CallSite,
                         std::span<const RtValue> Args) override;
  bool activationExited(const RtValue *Result) override;
  std::string abortReason() const override;

private:
  /// A cell pinned by allocation identity (stale Seq ⇒ the cell died
  /// and its slot was recycled).
  struct PinnedCell {
    const ConsCell *Cell = nullptr;
    uint64_t Seq = 0;
    unsigned Level = 0; ///< 1-based spine level (claim snapshots only)
  };

  struct ClaimCheck {
    const CallClaim *Claim = nullptr;
    std::vector<PinnedCell> Cells;
    bool HasProbeLevel = false; ///< snapshot includes level s−k+1
  };

  struct Activation {
    std::vector<PinnedCell> Cells; ///< cells this activation allocated
    std::vector<ClaimCheck> Claims;
  };

  void snapshotSpines(RtValue Arg, unsigned MaxLevel, ClaimCheck &Out);
  void recordViolation(const ClaimCheck &CC, const PinnedCell &Cell);
  void classifyCells(const Activation &A,
                     const std::unordered_set<const ConsCell *> &Reach);

  const AstContext &Ast;
  ClaimTable Table;
  OracleReport Report;
  /// Activation stack; index 0 is the top-level pseudo-activation.
  std::vector<Activation> Stack;
  /// Latest allocation site per cell slot (overwritten on reuse).
  std::unordered_map<const ConsCell *, std::pair<uint64_t, uint32_t>>
      LastAllocSite;
  /// Free variables of each lambda a reachable closure applies.
  std::unordered_map<const LambdaExpr *, std::vector<Symbol>> FreeVars;
};

} // namespace eal::check

#endif // EAL_CHECK_ORACLE_H
