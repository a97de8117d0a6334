//===- Interpreter.h - The nml abstract machine -----------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A strict, environment-based evaluator for nml over the managed heap of
/// Heap.h — the stack-and-heap, aliasing implementation model the escape
/// semantics abstracts (§3.3). It executes the optimizations:
///
///  * cons sites covered by an ArgArenaDirective allocate into an arena
///    owned by the callee's activation and reclaimed when it returns;
///  * DCONS overwrites the head cell of its first operand in place.
///
/// The interpreter reports runtime errors (car of nil, division by zero,
/// fuel exhaustion) through the diagnostic engine and returns nullopt.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_INTERPRETER_H
#define EAL_RUNTIME_INTERPRETER_H

#include "lang/Ast.h"
#include "opt/AllocPlanner.h"
#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/PrimOps.h"
#include "runtime/RtValue.h"
#include "runtime/RuntimeStats.h"
#include "types/TypeInference.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace eal {

class DiagnosticEngine;
class SpecHooks;

/// Evaluates one typed program.
class Interpreter {
public:
  struct Options {
    /// Initial heap capacity in cells.
    size_t HeapCapacity = 1 << 14;
    bool AllowHeapGrowth = true;
    /// Evaluation-step budget (guards against runaway programs).
    uint64_t MaxSteps = 1'000'000'000;
    /// Verify at every arena free that no arena cell is still reachable
    /// (catches unsafe allocation plans; expensive).
    bool ValidateArenaFrees = false;
    /// Cell and activation events (runtime/ExecutionObserver.h), not
    /// owned. Null disables them.
    ExecutionObserver *Observer = nullptr;
    /// Speculative-tier hooks (runtime/SpecHooks.h), not owned. While
    /// set, every entered if-branch is reported, speculative directives
    /// (SpecIndex >= 0) are honored only while directiveArmed says so,
    /// and every arena open/close is announced so the spec runtime can
    /// track speculative arenas and run the deopt protocol. Null
    /// disables the tier entirely.
    SpecHooks *Spec = nullptr;
  };

  /// \p Plan may be null (everything heap-allocated, no reuse semantics
  /// change — DCONS still executes destructively if present in the AST).
  Interpreter(const AstContext &Ast, const TypedProgram &Program,
              const AllocationPlan *Plan, DiagnosticEngine &Diags);
  Interpreter(const AstContext &Ast, const TypedProgram &Program,
              const AllocationPlan *Plan, DiagnosticEngine &Diags,
              Options Opts);
  ~Interpreter();

  /// Evaluates the program root. Returns nullopt after a diagnostic on
  /// runtime errors.
  std::optional<RtValue> run();

  /// Like run(), but on a dedicated thread with \p StackBytes of stack —
  /// deep nml recursion (long lists) needs more than the default.
  std::optional<RtValue> runOnLargeStack(size_t StackBytes = 512u << 20);

  /// Oracle support: with a top-level-letrec program, evaluates the
  /// bindings, then applies binding \p Fn to \p Args (evaluated in the
  /// top-level environment). When \p ArgValues is non-null it receives
  /// the evaluated argument values, so tests can tag their cells and
  /// check reachability from the result against the escape analysis.
  std::optional<RtValue> callBinding(Symbol Fn,
                                     std::span<const Expr *const> Args,
                                     std::vector<RtValue> *ArgValues);

  const RuntimeStats &stats() const { return Stats; }
  RuntimeStats &stats() { return Stats; }
  Heap &heap() { return TheHeap; }

  /// Renders a value: "42", "true", "[1, 2, 3]", "<fun>". Cyclic or very
  /// long structures are truncated with "...".
  std::string render(RtValue V, size_t MaxElements = 64) const;

  /// Flattens an int list value into a vector (empty on mismatch).
  static std::vector<int64_t> toIntVector(RtValue V);

private:
  std::optional<RtValue> eval(const Expr *E, const EnvPtr &Env);
  std::optional<RtValue> evalCallSpine(const AppExpr *Call,
                                       const EnvPtr &Env);
  /// \p Call is the originating call spine (for the observer's per-call
  /// hooks), null when the application has no source call site.
  std::optional<RtValue> applyValues(RtValue Callee,
                                     const std::vector<RtValue> &Args,
                                     std::vector<size_t> &&Arenas,
                                     const AppExpr *Call);
  std::optional<RtValue> applyPrim(RtClosure &Prim,
                                   const std::vector<RtValue> &Args,
                                   size_t First, size_t &Consumed);
  /// Allocates the cell for cons site \p SiteId (consulting the active
  /// arena stack) or a plain heap cell when SiteId has no directive.
  ConsCell *allocateConsCell(uint32_t SiteId);

  RtClosure *newClosure();
  bool error(SourceLoc Loc, std::string Message);
  bool fuel(const Expr *E);

  const AstContext &Ast;
  const TypedProgram &Program;
  const AllocationPlan *Plan;
  DiagnosticEngine &Diags;
  Options Opts;
  RuntimeStats Stats;
  Heap TheHeap;
  /// Primitive-evaluation hooks, built once (not per primitive call).
  PrimOpsHooks Hooks;

  /// GC roots: in-flight values and active environments.
  std::vector<RtValue> ShadowStack;
  std::vector<EnvFrame *> ActiveFrames;

  /// Arenas active for the argument currently being evaluated.
  struct ActiveArena {
    const ArgArenaDirective *Directive;
    size_t Handle;
  };
  std::vector<ActiveArena> ArenaStack;

  /// All closures (owned; small count, never individually freed).
  std::vector<std::unique_ptr<RtClosure>> Closures;
  /// Letrec frames kept alive to the end (closure cycles).
  std::vector<EnvPtr> LetrecFrames;

  uint64_t MarkEpoch = 0;
  bool Failed = false;
};

} // namespace eal

#endif // EAL_RUNTIME_INTERPRETER_H
