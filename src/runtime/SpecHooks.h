//===- SpecHooks.h - Speculative-tier runtime hooks -------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The narrow interface through which both execution engines talk to the
/// speculative tier (src/spec, docs/SPECULATION.md) without depending on
/// it. Two implementations exist:
///
///  * spec::BranchProfile counts if-branch entries during the profiling
///    pre-run that justifies speculation;
///  * spec::SpecRuntime arms/disarms speculative directives, tracks the
///    live speculative arenas, and runs the deopt protocol (migrate the
///    speculative cells to the GC heap, fall back to the conservative
///    plan) when a guard fires or a failure is injected.
///
/// Every hook defaults to a no-op so implementations override only what
/// they observe. Engines hold a nullable pointer: a null hook costs one
/// branch per call site and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_SPECHOOKS_H
#define EAL_RUNTIME_SPECHOOKS_H

#include <cstdint>

namespace eal {

class SpecHooks {
public:
  virtual ~SpecHooks() = default;

  /// Control entered the given branch expression of an `if`. The
  /// tree-walker reports every branch; the VM reports the branches its
  /// chunk guards, through the guard.spec opcode materialized at their
  /// entry (every branch in the profiling pre-run's chunk). A
  /// speculative runtime deopts here when the branch is one a
  /// speculation assumed cold.
  virtual void branchEntered(uint32_t BranchExprId) { (void)BranchExprId; }

  /// Whether the speculative directive with the given SpecIndex is
  /// still armed (its guard has not failed). Asked by the runtime core
  /// (EngineCore::enterArena) on either engine: a disarmed directive
  /// opens no arena, so its cells go on the GC heap like the
  /// conservative plan's.
  virtual bool directiveArmed(int32_t SpecIndex) {
    (void)SpecIndex;
    return false;
  }

  /// An arena backing the armed speculative directive \p SpecIndex was
  /// created with handle \p Handle.
  virtual void arenaOpened(int32_t SpecIndex, uint32_t Handle) {
    (void)SpecIndex;
    (void)Handle;
  }

  /// Called by the runtime core immediately before *any* arena free in
  /// a speculation-enabled run. Handles the runtime never saw in
  /// arenaOpened are not speculative and must be ignored. This is where
  /// deterministic guard-failure injection (--spec-inject-deopt) fires.
  virtual void arenaClosing(uint32_t Handle) { (void)Handle; }
};

} // namespace eal

#endif // EAL_RUNTIME_SPECHOOKS_H
