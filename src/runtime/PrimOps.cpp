//===- PrimOps.cpp --------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/PrimOps.h"

#include <cassert>

using namespace eal;

std::optional<RtValue>
eal::evalSaturatedPrim(PrimOp Op, uint32_t SiteId,
                       std::span<const RtValue> Args,
                       const PrimOpsHooks &Hooks) {
  assert(Args.size() == primOpArity(Op) && "wrong arity");
  auto TypeError = [&]() -> std::optional<RtValue> {
    Hooks.Error(std::string("runtime type error applying '") +
                std::string(primOpName(Op)) + "'");
    return std::nullopt;
  };

  switch (Op) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
  case PrimOp::Mod: {
    if (!Args[0].isInt() || !Args[1].isInt())
      return TypeError();
    int64_t A = Args[0].intValue(), B = Args[1].intValue();
    switch (Op) {
    case PrimOp::Add:
      return RtValue::makeInt(A + B);
    case PrimOp::Sub:
      return RtValue::makeInt(A - B);
    case PrimOp::Mul:
      return RtValue::makeInt(A * B);
    case PrimOp::Div:
    case PrimOp::Mod:
      if (B == 0) {
        Hooks.Error("division by zero");
        return std::nullopt;
      }
      return RtValue::makeInt(Op == PrimOp::Div ? A / B : A % B);
    default:
      break;
    }
    return TypeError();
  }
  case PrimOp::Eq:
  case PrimOp::Ne:
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Gt:
  case PrimOp::Ge: {
    if (!Args[0].isInt() || !Args[1].isInt())
      return TypeError();
    int64_t A = Args[0].intValue(), B = Args[1].intValue();
    bool R = false;
    switch (Op) {
    case PrimOp::Eq:
      R = A == B;
      break;
    case PrimOp::Ne:
      R = A != B;
      break;
    case PrimOp::Lt:
      R = A < B;
      break;
    case PrimOp::Le:
      R = A <= B;
      break;
    case PrimOp::Gt:
      R = A > B;
      break;
    case PrimOp::Ge:
      R = A >= B;
      break;
    default:
      break;
    }
    return RtValue::makeBool(R);
  }
  case PrimOp::Not:
    if (!Args[0].isBool())
      return TypeError();
    return RtValue::makeBool(!Args[0].boolValue());
  case PrimOp::Null:
    if (Args[0].isNil())
      return RtValue::makeBool(true);
    if (Args[0].isCons())
      return RtValue::makeBool(false);
    return TypeError();
  case PrimOp::Car:
  case PrimOp::Cdr:
    if (Args[0].isNil()) {
      Hooks.Error(std::string(Op == PrimOp::Car ? "car" : "cdr") +
                  " applied to the empty list");
      return std::nullopt;
    }
    if (!Args[0].isCons())
      return TypeError();
    Hooks.Cells->touch(Args[0].cell());
    return Op == PrimOp::Car ? Args[0].cell()->Car : Args[0].cell()->Cdr;
  case PrimOp::Cons: {
    ConsCell *Cell = Hooks.AllocateCell(SiteId);
    if (!Cell) {
      Hooks.Error("out of heap cells");
      return std::nullopt;
    }
    Cell->Car = Args[0];
    Cell->Cdr = Args[1];
    return RtValue::makeCons(Cell);
  }
  case PrimOp::MkPair: {
    ConsCell *Cell = Hooks.AllocateCell(SiteId);
    if (!Cell) {
      Hooks.Error("out of heap cells");
      return std::nullopt;
    }
    Cell->Car = Args[0];
    Cell->Cdr = Args[1];
    return RtValue::makePair(Cell);
  }
  case PrimOp::Fst:
  case PrimOp::Snd:
    if (!Args[0].isPair())
      return TypeError();
    Hooks.Cells->touch(Args[0].cell());
    return Op == PrimOp::Fst ? Args[0].cell()->Car : Args[0].cell()->Cdr;
  case PrimOp::DCons: {
    // dcons p b c: reuse p's head cell in place (§6). The analysis
    // guarantees p is non-nil and dead.
    if (Args[0].isNil()) {
      Hooks.Error("dcons applied to the empty list");
      return std::nullopt;
    }
    if (!Args[0].isCons())
      return TypeError();
    ConsCell *Cell = Args[0].cell();
    Hooks.Cells->reuse(Cell, SiteId, Args[1], Args[2]);
    return RtValue::makeCons(Cell);
  }
  }
  return TypeError();
}
