//===- PrimOps.h - shared primitive evaluation ------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation of saturated nml primitives over runtime values, shared by
/// the tree-walking interpreter and the bytecode VM. Allocation and
/// error reporting are callbacks so each engine supplies its own
/// allocation-site/arena logic and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_PRIMOPS_H
#define EAL_RUNTIME_PRIMOPS_H

#include "lang/Ast.h"
#include "runtime/Heap.h"
#include "runtime/RtValue.h"

#include <functional>
#include <optional>
#include <span>
#include <string>

namespace eal {

/// Engine hooks for primitive evaluation.
struct PrimOpsHooks {
  /// Allocates the cell for cons/pair site \p SiteId (null on OOM).
  std::function<ConsCell *(uint32_t SiteId)> AllocateCell;
  /// Reports a runtime error (message in LLVM diagnostic style).
  std::function<void(const std::string &)> Error;
  /// The engine's heap: field reads report through Heap::touch and DCONS
  /// overwrites through Heap::reuse, which also charges DconsReuses.
  Heap *Cells = nullptr;
};

/// Applies the saturated primitive \p Op to \p Args (exactly
/// primOpArity(Op) of them, already evaluated left to right). \p SiteId
/// identifies the static allocation site for cons/pair. Returns nullopt
/// after calling Hooks.Error on faults (car of nil, division by zero,
/// runtime type errors, out of cells).
std::optional<RtValue> evalSaturatedPrim(PrimOp Op, uint32_t SiteId,
                                         std::span<const RtValue> Args,
                                         const PrimOpsHooks &Hooks);

} // namespace eal

#endif // EAL_RUNTIME_PRIMOPS_H
