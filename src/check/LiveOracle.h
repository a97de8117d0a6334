//===- LiveOracle.h - Dynamic liveness oracle -------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the liveness story, mirroring the escape oracle
/// (Oracle.h). The static analysis claims, per allocation site, that no
/// field of any cell born there is ever read (demand ⊥ — the EAL-D001
/// set). This consumer of the runtime's per-cell event channel
/// (runtime/ExecutionObserver.h) needs only births and touches, so it
/// runs on either engine, and it refutes any claim the run contradicts:
///
///  * every car/cdr/fst/snd lands here as cellTouched; a touch of a
///    cell whose *current* SiteId is claimed dead is a hard violation.
///    DCONS re-tags the slot with the dcons site (keeping the birth
///    AllocSeq), so touch attribution follows the new incarnation —
///    exactly the analysis's view of whose data the cell now holds;
///  * at finalize, any dead-claimed cell still reachable through the
///    cons/pair graph of the program result is a violation too: the
///    result printer will read its fields. Closure environments are
///    not traversed — data captured by closures was worst-cased to ⊤
///    statically, so it can never carry a dead claim to refute.
///
/// Alongside the claims check the oracle records per-site last-touch
/// times in AllocSeq units — the dynamic ground truth `eal live
/// --live-oracle` prints next to the static demands.
///
/// Claims are a plain value type (LiveClaims) filled by the driver from
/// live::LiveReport::deadSites(), keeping eal_check free of an eal_live
/// dependency in this header's users.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_CHECK_LIVEORACLE_H
#define EAL_CHECK_LIVEORACLE_H

#include "runtime/ExecutionObserver.h"
#include "support/SourceLoc.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eal {

class SourceManager;

namespace check {

/// The static liveness claims one run is checked against.
struct LiveClaims {
  /// Sites with demand ⊥: no field of any cell born (or re-tagged)
  /// there may ever be read.
  std::unordered_set<uint32_t> DeadSites;
  /// Site id -> source location, for diagnostics (may be sparse).
  std::unordered_map<uint32_t, SourceLoc> SiteLocs;
};

/// One dynamic refutation of a static dead-data claim.
struct LiveViolation {
  /// "dead-site-touched" (a field read hit a claimed-dead site),
  /// "dead-site-reachable" (a claimed-dead cell survived into the
  /// program result), or "injected-claim" (the planted-violation test
  /// hook fired).
  std::string Kind;
  uint32_t SiteId = 0;
  SourceLoc SiteLoc;
  /// The heap's allocation stamp when the refutation was observed.
  uint64_t AtSeq = 0;
};

/// Counters and violations of one liveness-instrumented run.
struct LiveOracleReport {
  uint64_t CellsTracked = 0;       ///< allocations observed
  uint64_t Touches = 0;            ///< field reads observed
  uint64_t DeadSitesClaimed = 0;   ///< size of the claim set
  uint64_t DeadCellsAllocated = 0; ///< births at claimed-dead sites
  /// Imprecision, dual to the violations: sites the analysis left live
  /// that allocated cells yet saw no touch all run (the analysis
  /// *could* have claimed them dead; computed at finalize()).
  uint64_t UntouchedLiveSites = 0;
  std::vector<LiveViolation> Violations;

  std::string render(const SourceManager &SM) const;
};

/// The ExecutionObserver that checks dead-site claims against a run of
/// either engine.
class LivenessOracle final : public ExecutionObserver {
public:
  explicit LivenessOracle(LiveClaims Claims);

  /// Test-only hook: plants a dead claim the analysis never made, so
  /// the suite can prove the oracle detects violations.
  void injectDeadClaim(uint32_t SiteId);

  /// Checks the program result's cons/pair graph for reachable
  /// dead-claimed cells; call once after the run completes (null for
  /// failed runs).
  void finalize(const RtValue *ProgramResult);

  const LiveOracleReport &report() const { return Report; }
  /// Per-site last field-read time, in AllocSeq units.
  const std::unordered_map<uint32_t, uint64_t> &lastTouchBySite() const {
    return LastTouch;
  }

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override;
  void cellTouched(const ConsCell *Cell, uint64_t NowSeq) override;
  std::string abortReason() const override;

private:
  void refute(const char *Kind, uint32_t SiteId, uint64_t AtSeq);

  LiveClaims Claims;
  /// Claims added through injectDeadClaim (reported with their own
  /// violation kind so planted failures are distinguishable).
  std::unordered_set<uint32_t> Injected;
  /// Every site that allocated at least once (feeds the imprecision
  /// counter at finalize()).
  std::unordered_set<uint32_t> AllocatedSites;
  LiveOracleReport Report;
  std::unordered_map<uint32_t, uint64_t> LastTouch;
  /// One violation per (site, kind): a hot loop touching a refuted
  /// site must not flood the report.
  std::unordered_set<uint64_t> Reported;
};

} // namespace check
} // namespace eal

#endif // EAL_CHECK_LIVEORACLE_H
