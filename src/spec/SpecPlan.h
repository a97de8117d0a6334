//===- SpecPlan.h - Speculative allocation plan -----------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data model of the speculative tier (docs/SPECULATION.md). A
/// SpecPlan is the conservative AllocationPlan plus zero or more
/// *speculations*: bets that a profile-cold if-branch never runs. Each
/// speculation prunes its cold branch, re-runs the escape analysis on
/// the pruned program, and back-maps the extra arena directives the
/// analysis then proves; those directives carry the speculation's index
/// in ArgArenaDirective::SpecIndex and are honored by the engines only
/// while the speculation's guard holds. Entering the pruned branch at
/// run time fires the guard and triggers the global deopt protocol
/// (spec::SpecRuntime).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SPEC_SPECPLAN_H
#define EAL_SPEC_SPECPLAN_H

#include "escape/EscapeAnalyzer.h"
#include "opt/AllocPlanner.h"
#include "types/TypeInference.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace eal {
namespace spec {

/// One guarded bet: "this if-branch never runs".
struct Speculation {
  /// Node id of the IfExpr whose branch was pruned.
  uint32_t IfExprId = 0;
  /// Node id of the pruned (assumed-cold) branch expression. Entering
  /// this branch is the guard-failure event: the tree-walker reports it
  /// via SpecHooks::branchEntered, the VM via a guard.spec instruction
  /// materialized at the top of the branch's code.
  uint32_t GuardBranchId = 0;
  SourceLoc IfLoc;
  SourceLoc GuardLoc;
  /// Profile evidence from the pre-run: entry counts of the kept (hot)
  /// and pruned (cold) branches.
  uint64_t HotEntries = 0;
  uint64_t ColdEntries = 0;
  /// Indices into SpecPlan::Merged.Directives of the speculative
  /// directives this guard protects.
  std::vector<uint32_t> DirectiveIndices;
  /// The FactKind::Speculation fact recorded for this bet (explain::
  /// NoFact when no recorder was attached).
  uint32_t ProvenanceRef = explain::NoFact;
};

/// The merged plan both engines execute.
struct SpecPlan {
  /// Conservative directives (SpecIndex == -1) followed by speculative
  /// ones (SpecIndex == index into Specs), indexed and ready for the
  /// compiler/interpreter.
  AllocationPlan Merged;
  std::vector<Speculation> Specs;
  /// Pruned-branch expression id -> speculation index. The interpreter
  /// consults this via SpecRuntime::branchEntered on every if; the
  /// compiler materializes a guard.spec at each key's code.
  std::unordered_map<uint32_t, uint32_t> GuardsByBranch;

  bool anySpeculation() const { return !Specs.empty(); }
};

/// The speculative planner's thresholds. Its analysis configuration is
/// the optimizer's (planSpeculation).
struct SpecPlannerOptions {
  /// A branch is prunable when its profile entry count is at most this
  /// (default: only never-entered branches).
  uint64_t ColdMaxEntries = 0;
  /// Profit filter: a speculation is kept only if some directive it
  /// enables covers a site with at least this many profiled heap
  /// allocations — no point guarding a site that never allocates.
  uint64_t HotMinAllocs = 8;
};

} // namespace spec
} // namespace eal

#endif // EAL_SPEC_SPECPLAN_H
