//===- EngineCore.h - What both engines share around evaluation -*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime core that the tree-walker (Interpreter.h) and the VM
/// (vm/Vm.h) both compose (docs/INTERNALS.md, "The runtime core"). It owns
/// everything around evaluation: the options, the heap with its growth
/// trigger and closure tracer, closure ownership, letrec-cycle teardown,
/// the primitive hooks, and the two rules through which the paper's
/// storage optimizations (A.3.1 stack allocation, A.3.3 block
/// reclamation) execute as arena directives:
///
///  * the allocation rule: a cell goes into the innermost active arena
///    whose directive claims its site, otherwise onto the GC heap;
///  * the arena protocol: a directive's arena opens around the evaluation
///    of its argument and belongs to the call's activation. A disarmed
///    speculative directive opens none. When the activation returns, the
///    spec runtime sees each close first, then validation runs with the
///    result rooted, then the arena is freed.
///
/// It also applies primitive closures, reports every activation frame
/// (enterFrame, leaveFrame) and ends every run (endRun), which releases
/// a failed run's arenas in one place. The frame events are both
/// engines' one activation channel: the profiler's calling-context feed,
/// with one clock (RuntimeStats::Steps), and the observer's only source
/// of activation begins and ends.
///
/// Each engine keeps only its evaluator, its root scanner and its
/// diagnostic text.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_ENGINECORE_H
#define EAL_RUNTIME_ENGINECORE_H

#include "opt/AllocPlanner.h"
#include "prof/Profiler.h"
#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/PrimOps.h"
#include "runtime/RuntimeStats.h"
#include "support/SourceLoc.h"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace eal {

class DiagnosticEngine;
class SpecHooks;

/// The options of either engine (Interpreter::Options, Vm::Options).
struct EngineOptions {
  /// Initial heap capacity in cells.
  size_t HeapCapacity = 1 << 14;
  bool AllowHeapGrowth = true;
  /// Evaluation-step budget (guards against runaway programs): evaluated
  /// expressions on the tree-walker, dispatched instructions on the VM.
  uint64_t MaxSteps = 1'000'000'000;
  /// Verify at every arena free that no arena cell is still reachable
  /// (catches unsafe allocation plans; expensive).
  bool ValidateArenaFrees = false;
  /// Cell events and activations (runtime/ExecutionObserver.h), not
  /// owned. Null disables them.
  ExecutionObserver *Observer = nullptr;
  /// Hot-path profiler (prof/Profiler.h), not owned. Null disables
  /// profiling. Its site counters are fed through Observer; the core's
  /// frame events drive its calling-context tree, and endRun finishes
  /// it (docs/PROFILING.md).
  prof::Profiler *Profiler = nullptr;
  /// Speculative-tier hooks (runtime/SpecHooks.h), not owned. While
  /// set, speculative directives (SpecIndex >= 0) are honored only while
  /// directiveArmed says so, every arena open and close is announced so
  /// the spec runtime can run the deopt protocol, and the engine reports
  /// the branches it enters. Null disables the tier entirely.
  SpecHooks *Spec = nullptr;
};

/// The state and rules both engines share. Members are public: the core
/// is a part of each engine, not an interface between them.
class EngineCore {
public:
  /// The handle leaveArena returns for a disarmed speculative directive,
  /// which opened no arena. closeArenas skips it.
  static constexpr size_t NoArena = ~size_t(0);

  /// \p Roots marks the engine's own roots at every collection;
  /// \p DiagPrefix starts each runtime diagnostic.
  EngineCore(const EngineOptions &Opts, DiagnosticEngine &Diags,
             const char *DiagPrefix, Heap::RootScanner Roots);
  ~EngineCore();
  EngineCore(const EngineCore &) = delete;
  EngineCore &operator=(const EngineCore &) = delete;

  /// Reports the run's first runtime error; later ones are dropped.
  /// Always returns false.
  bool error(const std::string &Message, SourceLoc Loc = SourceLoc::invalid());

  RtClosure *newClosure();
  /// Applies primitive closure \p Prim to the leading values of \p Args:
  /// extends it while they do not saturate it, else runs the primitive.
  /// Sets \p Consumed to the number of values used. Returns nullopt after
  /// a diagnostic. The caller roots \p Prim and \p Args.
  std::optional<RtValue> applyPrim(const RtClosure &Prim,
                                   std::span<const RtValue> Args,
                                   size_t &Consumed);
  /// Keeps a letrec frame to the end of the run: it forms a reference
  /// cycle with its closures, broken when the core is destroyed.
  void keepRecFrame(EnvPtr Frame) { RecFrames.push_back(std::move(Frame)); }
  /// Marks the slots of \p F and of its ancestors not yet marked in the
  /// current collection.
  void markEnv(EnvFrame *F, Marker &M);

  //===--- Allocation rule and arena protocol ------------------------------==//

  /// Allocates the cell for cons site \p SiteId: in the innermost active
  /// arena whose directive claims the site, otherwise on the GC heap.
  ConsCell *allocateCell(uint32_t SiteId);
  /// Opens \p D's arena as the innermost active one while its argument
  /// evaluates. A disarmed speculative directive opens none, so its
  /// argument allocates as under the conservative plan.
  void enterArena(const ArgArenaDirective *D);
  /// Ends the innermost enterArena. Returns the arena's handle, owned
  /// from here on by the activation of the directive's call (NoArena
  /// when none opened).
  size_t leaveArena();
  /// The owning activation returned \p Result: each arena's close is
  /// announced to the spec runtime, then validated with \p Result rooted
  /// (ValidateArenaFrees), then freed. Empties \p Arenas. Returns false
  /// after a validation diagnostic. On the error path the engines drop
  /// their arenas for endRun to release.
  bool closeArenas(std::vector<size_t> &Arenas, RtValue Result) {
    return Arenas.empty() || close(Arenas, Result);
  }

  //===--- Frame events ----------------------------------------------------==//
  //
  // The one activation channel. Each event charges the steps counted
  // since the previous one (RuntimeStats::Steps) to the profiler's current
  // frame, keyed by lambda node id on the tree-walker and proto index on
  // the VM, and reports activation begins and ends to the observer.

  /// A begin: the lambda whose body runs (null reports nothing: the VM's
  /// entry frame), the spine's AppExpr when this is the spine's first
  /// activation (its direct callee), and the arguments it consumed.
  struct Activation {
    const LambdaExpr *Fn = nullptr;
    const AppExpr *CallSite = nullptr;
    std::span<const RtValue> Args;
  };

  /// \p A begins in a new frame keyed \p Key, or with \p Replace (a tail
  /// call) in the current frame, whose activations then end with it.
  void enterFrame(uint32_t Key, const Activation &A, bool Replace = false) {
    if (Opts.Profiler) [[unlikely]]
      Replace ? Opts.Profiler->frameReplaced(Key, Stats.Steps)
              : Opts.Profiler->framePushed(Key, Stats.Steps);
    if (Opts.Observer && A.Fn) [[unlikely]] {
      ++OpenActivations;
      Opts.Observer->activationEntered(A.Fn, A.CallSite, A.Args);
    }
  }
  /// The current frame ends, and with it its \p Exits innermost
  /// activations (endActivations).
  bool leaveFrame(const RtValue *Result, size_t Exits = 1,
                  SourceLoc Loc = SourceLoc::invalid()) {
    if (Opts.Profiler) [[unlikely]]
      Opts.Profiler->framePopped(Stats.Steps);
    return endActivations(Result, Exits, Loc);
  }
  /// The \p Exits innermost activations end with \p Result (null while
  /// unwinding), before their arenas close. An observer that refuses the
  /// result is a runtime error at \p Loc, and the outer ones end with
  /// null; returns false then.
  bool endActivations(const RtValue *Result, size_t Exits,
                      SourceLoc Loc = SourceLoc::invalid()) {
    return !Opts.Observer || !Exits || exitActivations(Result, Exits, Loc);
  }

  /// Ends a run of either engine with \p Result. After a failure it ends
  /// the open activations, then releases every arena the heap still
  /// holds, without validation. It empties the active-arena stack and
  /// finishes the profiler. Returns \p Result, or nullopt on failure.
  std::optional<RtValue> endRun(std::optional<RtValue> Result);

  const EngineOptions Opts;
  RuntimeStats Stats;
  Heap TheHeap;
  /// Primitive-evaluation hooks, built once (not per primitive call).
  PrimOpsHooks Hooks;
  bool Failed = false;

private:
  bool close(std::vector<size_t> &Arenas, RtValue Result);
  bool exitActivations(const RtValue *Result, size_t Exits, SourceLoc Loc);
  /// Announces \p Handle's close, validates it when \p Validate, frees
  /// it. Returns false, leaving it live, after a validation diagnostic.
  bool release(size_t Handle, bool Validate);

  DiagnosticEngine &Diags;
  const char *DiagPrefix;

  /// Arenas active for the argument being evaluated, innermost last.
  struct ActiveArena {
    const ArgArenaDirective *Directive;
    size_t Handle;
  };
  std::vector<ActiveArena> ArenaStack;
  /// The result an arena close roots during validation.
  RtValue Pinned = RtValue::makeNil();
  /// Activations the observer saw begin and not yet end.
  size_t OpenActivations = 0;

  /// All closures (owned; never individually freed).
  std::vector<std::unique_ptr<RtClosure>> Closures;
  std::vector<EnvPtr> RecFrames;
  uint64_t MarkEpoch = 0;
};

} // namespace eal

#endif // EAL_RUNTIME_ENGINECORE_H
