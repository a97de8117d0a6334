//===- Frame.h - environment frames and closures ----------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment frames and function values, shared by the tree-walking
/// interpreter and the bytecode VM. Frames are reference-counted; letrec
/// frames form closure cycles and are reclaimed by their owning engine.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_FRAME_H
#define EAL_RUNTIME_FRAME_H

#include "lang/Ast.h"
#include "runtime/RtValue.h"

#include <memory>
#include <utility>
#include <vector>

namespace eal {

/// One lexical environment frame.
struct EnvFrame {
  std::shared_ptr<EnvFrame> Parent;
  std::vector<std::pair<Symbol, RtValue>> Slots;
  /// Mark epoch for GC tracing (avoids revisiting shared frames).
  uint64_t MarkEpoch = 0;

  /// The innermost binding of \p Name in this frame: the last slot, so
  /// `f x x` binds x to its second argument.
  RtValue *find(Symbol Name) {
    for (auto It = Slots.rbegin(); It != Slots.rend(); ++It)
      if (It->first == Name)
        return &It->second;
    return nullptr;
  }
};

using EnvPtr = std::shared_ptr<EnvFrame>;

/// A runtime function value: a user closure (Lambda set; VM: its proto's
/// chain, and ProtoIdx >= 0) or a (possibly partially applied) primitive.
struct RtClosure {
  const LambdaExpr *Lambda = nullptr;
  /// Compiled-code closures reference a proto of the running chunk.
  int32_t ProtoIdx = -1;
  EnvPtr Env;

  bool IsPrim = false;
  PrimOp Op = PrimOp::Add;
  /// Static node id of the prim occurrence (cons sites key allocation
  /// decisions; 0 when the primitive travelled as a value).
  uint32_t PrimNodeId = 0;
  std::vector<RtValue> Partial;
};

} // namespace eal

#endif // EAL_RUNTIME_FRAME_H
