//===- SpecRuntime.h - Guard tracking and the deopt protocol ----*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of the speculative tier (docs/SPECULATION.md): a
/// SpecHooks implementation both engines consult while executing a plan
/// with speculative directives. It arms the directives, tracks the live
/// speculative arenas, and runs the *global* deopt protocol when a guard
/// fires: every live speculative arena's cells migrate to the GC heap
/// (keeping their AllocSeq, so oracle and profiler attribution stay
/// exact) and every speculation disarms, falling the rest of the run
/// back to the conservative plan.
///
/// nml is deterministic and takes no input, so the profiling pre-run is
/// the real run and a guard can never fail naturally. The deopt path is
/// exercised through deterministic injection (--spec-inject-deopt):
/// the Nth close of a live speculative arena covering a chosen site is
/// treated as a guard failure *before* the arena frees, so the arena's
/// own cells are migrated too.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SPEC_SPECRUNTIME_H
#define EAL_SPEC_SPECRUNTIME_H

#include "runtime/SpecHooks.h"
#include "spec/SpecPlan.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eal {

class Heap;

namespace obs {
class MetricsRegistry;
}

namespace spec {

/// Deterministic guard-failure injection (parsed from
/// --spec-inject-deopt=SITE[:N] | all).
struct SpecInjection {
  /// Treat the first close of any live speculative arena as a failure.
  bool All = false;
  /// Fail at a close of a live arena whose speculation covers this site
  /// (0xFFFFFFFF: no site-keyed injection).
  uint32_t Site = 0xFFFFFFFFu;
  /// 1-based: fire at the Nth covering close.
  uint64_t AtClose = 1;

  bool enabled() const { return All || Site != 0xFFFFFFFFu; }
};

/// Counters surfaced as spec.* metrics and in the spec report.
struct SpecStats {
  uint64_t ArenasOpened = 0;
  uint64_t GuardHits = 0;
  /// 0 or 1: the protocol is global, the first failure disarms all.
  uint64_t Deopts = 0;
  uint64_t InjectedDeopts = 0;
  uint64_t CellsMigrated = 0;
};

/// One run's speculative state. Attach to both engine option structs via
/// the SpecHooks pointer and hand it the engine's heap before running.
class SpecRuntime : public SpecHooks {
public:
  explicit SpecRuntime(const SpecPlan &Plan, SpecInjection Inject = {});

  /// The heap whose arenas migrate on deopt. Must be the executing
  /// engine's heap; set after engine construction, before run.
  void setHeap(Heap *H) { TheHeap = H; }

  //===--- SpecHooks ----------------------------------------------------==//

  void branchEntered(uint32_t BranchExprId) override;
  bool directiveArmed(int32_t SpecIndex) override {
    (void)SpecIndex;
    return !Deopted;
  }
  void arenaOpened(int32_t SpecIndex, uint32_t Handle) override;
  void arenaClosing(uint32_t Handle) override;

  //===--- Reporting ----------------------------------------------------==//

  bool deopted() const { return Deopted; }
  /// "guard" / "injected" / "" (no deopt).
  const std::string &deoptCause() const { return Cause; }
  const SpecStats &stats() const { return Stats; }

  /// Publishes spec.* counters (directives, arenas_opened, guard_hits,
  /// deopts, injected_deopts, cells_migrated).
  void exportTo(obs::MetricsRegistry &Reg) const;

private:
  /// The global deopt: migrate every live speculative arena's cells to
  /// the GC heap and disarm every speculation for the rest of the run.
  void deopt(bool Injected);

  /// Whether speculation \p SpecIndex covers the injection's site.
  bool injectionCovers(int32_t SpecIndex) const;

  const SpecPlan &Plan;
  SpecInjection Inject;
  Heap *TheHeap = nullptr;

  /// Live speculative arenas: handle -> speculation index. Handles are
  /// reused by the heap after frees, so entries are erased at close.
  std::unordered_map<uint32_t, int32_t> LiveArenas;
  /// Per-speculation set of covered base site ids (for injectionCovers).
  std::vector<std::unordered_set<uint32_t>> SpecSites;

  uint64_t CoveringCloses = 0;
  bool Deopted = false;
  std::string Cause;
  SpecStats Stats;
};

} // namespace spec
} // namespace eal

#endif // EAL_SPEC_SPECRUNTIME_H
