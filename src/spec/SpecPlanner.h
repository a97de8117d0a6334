//===- SpecPlanner.h - Profile-guided speculative planning ------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-guided partial escape analysis (docs/SPECULATION.md).
/// Given the conservative plan and an if-branch entry profile from a
/// pre-run, the planner enumerates profile-cold branches, clones the
/// program with each candidate branch pruned (the condition is still
/// evaluated, for effect/step parity), re-runs type inference, the
/// escape analysis, and the allocation planner on the clone, and
/// back-maps any *new* directives onto the original AST as guarded
/// speculative directives. The analogy is partial escape analysis with
/// deoptimization (Stadler et al.; MoarVM's spesh): allocations that
/// escape only on a cold path are optimistically placed as if that path
/// did not exist, with a runtime guard to undo the bet.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SPEC_SPECPLANNER_H
#define EAL_SPEC_SPECPLANNER_H

#include "runtime/SpecHooks.h"
#include "spec/SpecPlan.h"

#include <cstdint>
#include <unordered_map>

namespace eal {

struct OptimizerConfig;

namespace prof {
class Profiler;
}

namespace spec {

/// Counts if-branch entries during the profiling pre-run. Either engine
/// reports every chosen branch through SpecHooks::branchEntered (the VM
/// from a guard.spec at the top of each branch); nml is deterministic
/// with no input, so the counts are exact for the real run, not a
/// sample of it.
class BranchProfile : public SpecHooks {
public:
  void branchEntered(uint32_t BranchExprId) override {
    ++Entries[BranchExprId];
  }

  uint64_t entries(uint32_t BranchExprId) const {
    auto It = Entries.find(BranchExprId);
    return It == Entries.end() ? 0 : It->second;
  }

  size_t numBranchesSeen() const { return Entries.size(); }

private:
  std::unordered_map<uint32_t, uint64_t> Entries;
};

/// Plans speculations for \p Root (the optimized program the engines
/// will execute). \p Conservative is the plan the optimizer proved
/// without betting; \p Branches and \p Profile come from the profiling
/// pre-run of the same program. Clones are allocated into \p Ast and
/// analyzed with scratch type/diagnostic contexts; the original program
/// and its contexts are never mutated. The returned plan's Merged
/// directives are indexed and ready to execute. \p Config is the
/// conservative pipeline's, so the clones are analyzed alike; its
/// recorder, when attached, gets a Speculation fact per speculation.
SpecPlan planSpeculation(AstContext &Ast, const Expr *Root,
                         const AllocationPlan &Conservative,
                         const BranchProfile &Branches,
                         const prof::Profiler &Profile,
                         const OptimizerConfig &Config,
                         const SpecPlannerOptions &Options);

} // namespace spec
} // namespace eal

#endif // EAL_SPEC_SPECPLANNER_H
