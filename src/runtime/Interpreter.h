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
///    owned by the callee's activation and reclaimed when it returns,
///    by the rules of the runtime core it shares with the VM
///    (EngineCore.h);
///  * DCONS overwrites the head cell of its first operand in place.
///
/// The interpreter reports runtime errors (car of nil, division by zero,
/// fuel exhaustion) through the diagnostic engine and returns nullopt.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_INTERPRETER_H
#define EAL_RUNTIME_INTERPRETER_H

#include "lang/Ast.h"
#include "runtime/EngineCore.h"
#include "types/TypeInference.h"

#include <optional>
#include <string>
#include <vector>

namespace eal {

/// Evaluates one typed program.
class Interpreter {
public:
  using Options = EngineOptions;

  /// \p Plan may be null (everything heap-allocated, no reuse semantics
  /// change — DCONS still executes destructively if present in the AST).
  Interpreter(const AstContext &Ast, const TypedProgram &Program,
              const AllocationPlan *Plan, DiagnosticEngine &Diags,
              Options Opts = Options());

  /// Evaluates the program root. Returns nullopt after a diagnostic on
  /// runtime errors.
  std::optional<RtValue> run();

  /// Like run(), but on a 512 MB stack (support/LargeStack.h): deep nml
  /// recursion (long lists) needs more than the default.
  std::optional<RtValue> runOnLargeStack();

  const RuntimeStats &stats() const { return Core.Stats; }
  RuntimeStats &stats() { return Core.Stats; }
  Heap &heap() { return Core.TheHeap; }

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
  /// Binds \p Letrec's bindings in a new frame under \p Env. Returns
  /// null after a diagnostic.
  EnvPtr bindLetrec(const LetrecExpr *Letrec, const EnvPtr &Env);
  bool fuel(const Expr *E);

  const AstContext &Ast;
  const TypedProgram &Program;
  const AllocationPlan *Plan;
  EngineCore Core;

  /// GC roots: in-flight values and active environments.
  std::vector<RtValue> ShadowStack;
  std::vector<EnvFrame *> ActiveFrames;
};

} // namespace eal

#endif // EAL_RUNTIME_INTERPRETER_H
