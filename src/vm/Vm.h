//===- Vm.h - the bytecode virtual machine ----------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An iterative stack VM over the same managed heap as the interpreter:
/// explicit operand stack and call frames, so nml recursion depth is
/// bounded by memory rather than the C++ stack, and GC roots are exactly
/// the VM's own structures. Executes the same optimizations (arena
/// directives at calls, DCONS) with the same statistics.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_VM_VM_H
#define EAL_VM_VM_H

#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/PrimOps.h"
#include "runtime/RuntimeStats.h"
#include "vm/Bytecode.h"

#include <memory>
#include <optional>
#include <vector>

namespace eal {

class DiagnosticEngine;
class SpecHooks;

namespace prof {
class Profiler;
}

/// Executes one compiled chunk.
class Vm {
public:
  struct Options {
    size_t HeapCapacity = 1 << 14;
    bool AllowHeapGrowth = true;
    /// Instruction budget.
    uint64_t MaxSteps = 2'000'000'000;
    /// Verify at every arena free that no arena cell is still reachable.
    bool ValidateArenaFrees = false;
    /// Cell events (runtime/ExecutionObserver.h; the VM reports no
    /// activations), not owned. Null disables them.
    ExecutionObserver *Observer = nullptr;
    /// Hot-path profiler (prof/Profiler.h), not owned. Null disables
    /// profiling. When set, every dispatched instruction is counted per
    /// opcode and per proto, and frame transitions feed the
    /// calling-context tree. Its site counters are fed through Observer.
    prof::Profiler *Profiler = nullptr;
    /// Speculative-tier hooks (runtime/SpecHooks.h), not owned. While
    /// set, guard.spec instructions report to guardReached, speculative
    /// directives (SpecIndex >= 0) are honored only while directiveArmed
    /// says so, and arena opens/closes are announced so the spec runtime
    /// can run the deopt protocol. Null disables the tier.
    SpecHooks *Spec = nullptr;
  };

  Vm(const Chunk &C, DiagnosticEngine &Diags);
  Vm(const Chunk &C, DiagnosticEngine &Diags, Options Opts);
  ~Vm();

  /// Runs the chunk's entry proto. Returns nullopt after a diagnostic on
  /// runtime errors.
  std::optional<RtValue> run();

  const RuntimeStats &stats() const { return Stats; }
  Heap &heap() { return TheHeap; }

private:
  struct CallFrame {
    const Proto *P = nullptr;
    size_t Ip = 0;
    EnvPtr Env;
    /// Operand-stack height at entry; Return truncates back to it.
    size_t StackBase = 0;
    /// Arenas owned by this activation (freed at Return).
    std::vector<size_t> Arenas;
    /// Over-application continuation: args to apply to the result.
    std::vector<RtValue> Pending;
  };

  /// Applies \p Callee to \p Args, either computing inline (primitives,
  /// partial applications) and pushing the result, or pushing a call
  /// frame. \p Arenas attach to the first full activation.
  bool applyValue(RtValue Callee, std::vector<RtValue> Args,
                  std::vector<size_t> Arenas);

  /// Call with \p N stack arguments below the callee; fast-paths exact-
  /// arity user closures (flat frames bind in place, no EnvFrame).
  bool doCall(size_t N, uint32_t NumPending);
  /// TailCall: like doCall but replaces the current frame, inheriting
  /// its arenas (freed at the same execution point as the unfused
  /// Call+Return). Falls back to a plain call when the frame still has
  /// an over-application continuation pending.
  bool doTailCall(size_t N, uint32_t NumPending);
  /// Return: pops the frame, frees its arenas, resumes the caller.
  bool doReturn();
  /// Runs saturated primitive \p Op over the stack top in place.
  bool doPrim(PrimOp Op, uint32_t Site);
  /// Moves the innermost \p N stashed arenas into \p Arenas.
  void takePendingArenas(uint32_t N, std::vector<size_t> &Arenas);

  /// Frees \p Arenas (with optional validation); \p Result is rooted
  /// during validation when non-null.
  bool freeArenas(std::vector<size_t> &Arenas, const RtValue *Result);

  ConsCell *allocateCell(uint32_t SiteId);
  RtClosure *newClosure();
  bool error(const std::string &Message);

  const Chunk &C;
  DiagnosticEngine &Diags;
  Options Opts;
  RuntimeStats Stats;
  Heap TheHeap;

  std::vector<RtValue> Stack;
  std::vector<CallFrame> Frames;

  struct ActiveArena {
    const ArgArenaDirective *Directive;
    size_t Handle;
    /// False for a speculative directive whose guard already failed:
    /// the arena exists (so Stash/free bookkeeping is uniform) but
    /// allocateCell skips it, and freeing the empty chain is O(1) and
    /// bumps no counters.
    bool Enabled = true;
  };
  std::vector<ActiveArena> ArenaStack;
  std::vector<size_t> PendingArenas;
  /// Arenas whose owning call turned out partial; freed at the end.
  std::vector<size_t> OrphanArenas;

  std::vector<std::unique_ptr<RtClosure>> Closures;
  /// One closure per Chunk::PrimRefs entry, created once at
  /// construction; PushPrim pushes these instead of allocating.
  std::vector<RtClosure *> InternedPrims;
  /// Recursive (letrec) frames: cycles broken at destruction.
  std::vector<EnvPtr> RecFrames;

  /// Primitive-evaluation hooks, built once (not per instruction).
  PrimOpsHooks Hooks;

  /// Profiler (Opts.Profiler, cached; null when profiling is off).
  prof::Profiler *Prof = nullptr;
  /// Spec hooks (Opts.Spec, cached; null when the tier is off).
  SpecHooks *Spec = nullptr;

  uint64_t MarkEpoch = 0;
  bool Failed = false;
};

} // namespace eal

#endif // EAL_VM_VM_H
