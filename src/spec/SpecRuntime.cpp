//===- SpecRuntime.cpp ----------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "spec/SpecRuntime.h"

#include "obs/Recorder.h"
#include "runtime/Heap.h"
#include "support/Metrics.h"

#include <cassert>

using namespace eal;
using namespace eal::spec;

SpecRuntime::SpecRuntime(const SpecPlan &Plan, SpecInjection Inject)
    : Plan(Plan), Inject(Inject) {
  SpecSites.resize(Plan.Specs.size());
  for (size_t I = 0; I != Plan.Specs.size(); ++I)
    for (uint32_t DirIdx : Plan.Specs[I].DirectiveIndices)
      for (const auto &[Site, Class] : Plan.Merged.Directives[DirIdx].Sites)
        SpecSites[I].insert(Site);
}

void SpecRuntime::branchEntered(uint32_t BranchExprId) {
  if (!Plan.GuardsByBranch.count(BranchExprId))
    return;
  ++Stats.GuardHits;
  if (!Deopted)
    deopt(/*Injected=*/false);
}

void SpecRuntime::arenaOpened(int32_t SpecIndex, uint32_t Handle) {
  assert(!Deopted && "engines must not open speculative arenas after deopt");
  ++Stats.ArenasOpened;
  LiveArenas[Handle] = SpecIndex;
}

bool SpecRuntime::injectionCovers(int32_t SpecIndex) const {
  if (Inject.All)
    return true;
  if (Inject.Site == 0xFFFFFFFFu)
    return false;
  return SpecIndex >= 0 &&
         static_cast<size_t>(SpecIndex) < SpecSites.size() &&
         SpecSites[static_cast<size_t>(SpecIndex)].count(Inject.Site) != 0;
}

void SpecRuntime::arenaClosing(uint32_t Handle) {
  // Handles the runtime never registered (conservative arenas) are not
  // ours; disarmed directives open no arena at all.
  auto It = LiveArenas.find(Handle);
  if (It == LiveArenas.end())
    return;
  if (!Deopted && Inject.enabled() && injectionCovers(It->second) &&
      ++CoveringCloses >= Inject.AtClose) {
    // Fire before the free: this arena's cells migrate too, exactly as
    // if its guard had failed while the arena was still live.
    deopt(/*Injected=*/true);
    return; // deopt() cleared LiveArenas
  }
  LiveArenas.erase(It);
}

void SpecRuntime::deopt(bool Injected) {
  assert(TheHeap && "SpecRuntime::setHeap not called");
  Deopted = true;
  ++Stats.Deopts;
  if (Injected) {
    ++Stats.InjectedDeopts;
    Cause = "injected";
  } else {
    Cause = "guard";
  }
  uint64_t Migrated = 0;
  for (const auto &[Handle, SpecIdx] : LiveArenas)
    Migrated += TheHeap->migrateArenaToHeap(Handle);
  Stats.CellsMigrated += Migrated;
  LiveArenas.clear();
  // After the migration events so the dump's tail reads in causal
  // order; the deopt is also a dump trigger in its own right.
  obs::rec::emit(obs::rec::RecKind::SpecDeopt, obs::rec::internName(Cause),
                 Migrated,
                 Injected && Inject.Site != 0xFFFFFFFFu ? Inject.Site : 0);
  obs::rec::dumpNow("spec-deopt");
}

void SpecRuntime::exportTo(obs::MetricsRegistry &Reg) const {
  size_t SpecDirectives = 0;
  for (const ArgArenaDirective &D : Plan.Merged.Directives)
    if (D.SpecIndex >= 0)
      ++SpecDirectives;
  Reg.counter("spec.speculations").add(Plan.Specs.size());
  Reg.counter("spec.directives").add(SpecDirectives);
  Reg.counter("spec.arenas_opened").add(Stats.ArenasOpened);
  Reg.counter("spec.guard_hits").add(Stats.GuardHits);
  Reg.counter("spec.deopts").add(Stats.Deopts);
  Reg.counter("spec.injected_deopts").add(Stats.InjectedDeopts);
  Reg.counter("spec.cells_migrated").add(Stats.CellsMigrated);
}
