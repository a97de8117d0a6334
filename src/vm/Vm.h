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
/// directives at calls, DCONS) with the same statistics, through the
/// runtime core it shares with the tree-walker (runtime/EngineCore.h).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_VM_VM_H
#define EAL_VM_VM_H

#include "runtime/EngineCore.h"
#include "vm/Bytecode.h"

#include <optional>
#include <vector>

namespace eal {

/// Executes one compiled chunk.
class Vm {
public:
  using Options = EngineOptions;

  Vm(const Chunk &C, DiagnosticEngine &Diags, Options Opts = Options());

  /// Runs the chunk's entry proto. Returns nullopt after a diagnostic on
  /// runtime errors.
  std::optional<RtValue> run();

  const RuntimeStats &stats() const { return Core.Stats; }
  Heap &heap() { return Core.TheHeap; }

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
    /// Activations its Return ends: its own (none for the entry frame)
    /// and those of the frames it replaced, which end after Pending's
    /// application when there is one.
    size_t Exits = 0;
  };

  /// Applies \p Callee to \p Args, either computing inline (primitives,
  /// partial applications) and pushing the result, or pushing a call
  /// frame. \p Arenas and call site \p Site attach to the first full
  /// activation. \p Owed activations end with the value delivered.
  bool applyValue(RtValue Callee, std::vector<RtValue> Args,
                  std::vector<size_t> Arenas, uint32_t Site, size_t Owed);

  /// The one frame routine: activates saturated user closure \p Closure,
  /// whose parameters (partial arguments first) are the top operand-stack
  /// values. They become the frame's slots from stack height \p Base on
  /// (flat frames) or a fresh EnvFrame (the stack is cut back to \p Base);
  /// what lay between \p Base and them is dropped. Pushes a frame, or with
  /// \p Replace reuses the current one (a tail call). The frame owns
  /// \p Arenas and \p Exits activation ends, applies its result to
  /// \p Pending, and reports its begin from call site \p Site. Inlined
  /// into its callers like the copies it replaced: out of line, it slowed
  /// call-heavy VM runs measurably.
  [[gnu::always_inline]] inline void
  activate(const RtClosure &Closure, size_t Base, std::vector<size_t> &&Arenas,
           std::vector<RtValue> &&Pending, bool Replace, uint32_t Site,
           size_t Exits);
  /// \p Closure's begin from call site \p Site, as the tree-walker's: the
  /// lambda its partial arguments stopped at, and the arguments after.
  EngineCore::Activation activation(const RtClosure &Closure,
                                    uint32_t Site) const;

  /// Call (\p Tail: TailCall) with \p N stack arguments below the callee,
  /// taking the innermost \p NumPending stashed arenas; fast-paths
  /// exact-arity user closures (flat frames bind in place, no EnvFrame).
  /// A TailCall replaces the current frame, inheriting its arenas (freed
  /// at the same execution point as the unfused Call+Return) and its
  /// activation ends, unless the frame still has an over-application
  /// continuation pending. \p Site is the call's AppExpr id.
  bool doCall(size_t N, uint32_t NumPending, bool Tail, uint32_t Site);
  /// Return: pops the frame, frees its arenas, resumes the caller.
  bool doReturn();
  /// Runs saturated primitive \p Op over the stack top in place.
  bool doPrim(PrimOp Op, uint32_t Site);

  const Chunk &C;
  EngineCore Core;

  std::vector<RtValue> Stack;
  std::vector<CallFrame> Frames;
  /// The call site of an activation that is not its spine's first.
  static constexpr uint32_t NoSite = ~uint32_t(0);
  /// Arenas stashed by StashArena for the next Call to take.
  std::vector<size_t> PendingArenas;

  /// One closure per Chunk::PrimRefs entry, created once at
  /// construction; PushPrim pushes these instead of allocating.
  std::vector<RtClosure *> InternedPrims;
};

} // namespace eal

#endif // EAL_VM_VM_H
