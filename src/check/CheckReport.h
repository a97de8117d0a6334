//===- CheckReport.h - Findings of the eal::check passes --------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result object shared by the static lint pass (Linter.h) and the
/// dynamic escape oracle (Oracle.h): a list of coded findings plus the
/// oracle's classification counters and soundness violations. Renderable
/// as human-readable text and as the `eal-check-v1` JSON schema
/// (validated by tools/check_json.py, documented in
/// docs/CHECKING.md).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_CHECK_CHECKREPORT_H
#define EAL_CHECK_CHECKREPORT_H

#include "support/SourceLoc.h"

#include <optional>
#include <string>
#include <vector>

namespace eal {

class SourceManager;

namespace obs {
class MetricsRegistry;
}

namespace check {

enum class FindingSeverity { Note, Warning, Error };

/// Returns "note" / "warning" / "error".
const char *severityName(FindingSeverity S);

/// One coded diagnostic produced by a check pass.
struct Finding {
  /// Stable code, "EAL-L001" (source lints) or "EAL-O001"
  /// (optimization-blocked explanations); see docs/CHECKING.md.
  std::string Code;
  FindingSeverity Severity = FindingSeverity::Warning;
  SourceLoc Loc;
  std::string Message;
  /// Why-provenance blame chain (docs/EXPLAIN.md): fact ids into the
  /// run's ProvenanceRecorder, verdict first, fixpoint leaf last. Empty
  /// for source lints and when no recorder was attached.
  std::vector<uint32_t> Blame;
};

/// One dynamic refutation of a static no-escape verdict: a cell the
/// analysis promised would die with its activation was still reachable
/// from the activation's result.
struct OracleViolation {
  /// "protected-spine-escaped" (a per-call claim failed) or
  /// "injected-claim" (the planted-violation test hook).
  std::string Kind;
  /// The claimed callee's name spelling.
  std::string Function;
  unsigned ArgIndex = 0;        ///< 0-based
  unsigned ProtectedSpines = 0; ///< the static claim: top s−k spines
  unsigned SpineLevel = 0;      ///< 1-based level of the escaping cell
  SourceLoc CallLoc;            ///< the call whose claim was refuted
  uint32_t AllocSiteId = 0;     ///< node id of the cell's cons site
  SourceLoc AllocLoc;           ///< its source location (may be invalid)
};

/// Counters and violations of one oracle-instrumented run.
struct OracleReport {
  /// User-closure activations observed (the top-level pseudo-activation
  /// finalize() classifies is not counted).
  uint64_t Activations = 0;
  /// Per-call protected-spine claims checked at activation exits.
  uint64_t ClaimsChecked = 0;
  /// Cons cells attributed to an activation (every allocation).
  uint64_t CellsTracked = 0;
  /// Heap-class cells still reachable from their activation's result —
  /// the dynamic escapes the analysis must over-approximate.
  uint64_t HeapCellsEscaped = 0;
  /// Imprecision (static "escape"/heap, dynamic no-escape): heap-class
  /// cells that were dead or unreachable when their activation returned,
  /// i.e. the optimizer *could* have arena-allocated them.
  uint64_t HeapCellsUnescaped = 0;
  /// Imprecision at claim granularity: checks where spine level s−k+1
  /// (the first level the analysis gave up on) did not escape either.
  uint64_t ImpreciseClaims = 0;
  /// Cells exempted from a claim because aliasing routed the same value
  /// into another argument role of the call whose own claim exposes
  /// them (the `append l l` shape): escaping through that role is
  /// legitimate, so charging it against this role's protected prefix
  /// would be a false refutation.
  uint64_t AliasExemptions = 0;

  std::vector<OracleViolation> Violations;

  /// Publishes the counters as check.oracle.* metrics.
  void exportTo(obs::MetricsRegistry &Reg) const;
};

/// Everything the check passes produced for one program.
struct CheckReport {
  std::vector<Finding> Findings;
  /// Present when the dynamic oracle ran.
  std::optional<OracleReport> Oracle;

  size_t count(FindingSeverity S) const;
  bool hasViolations() const { return Oracle && !Oracle->Violations.empty(); }

  /// Human-readable rendering: one "file:line:col: severity: [CODE]
  /// message" line per finding, oracle summary and violations appended.
  std::string render(const SourceManager &SM) const;

  /// The eal-check-v1 JSON document. \p Command and \p Success describe
  /// the producing invocation (mirrors eal-stats-v1).
  std::string toJson(const SourceManager &SM, const std::string &Command,
                     bool Success) const;
};

} // namespace check
} // namespace eal

#endif // EAL_CHECK_CHECKREPORT_H
