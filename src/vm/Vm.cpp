//===- Vm.cpp -------------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// The dispatch loop is direct-threaded when the toolchain supports
// computed goto (GCC/Clang label addresses) and EAL_COMPUTED_GOTO is on;
// otherwise it falls back to a portable switch. Both variants share the
// same handler bodies through the VM_OP/VM_NEXT macros, so there is one
// semantics and two dispatch mechanisms.
//
// Calls have a fast path for the common shape (user closure, no partial
// application, exact arity): flat-frame protos bind their parameters in
// place on the operand stack — the callee slot is squeezed out and no
// EnvFrame is allocated — and TailCall additionally reuses the caller's
// CallFrame, transferring its arenas so frees happen at exactly the
// execution point the unfused Call+Return would have freed them.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "runtime/SpecHooks.h"

#include <algorithm>
#include <cassert>

using namespace eal;

#if defined(EAL_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define EAL_VM_THREADED 1
#else
#define EAL_VM_THREADED 0
#endif

Vm::Vm(const Chunk &C, DiagnosticEngine &Diags, Options Opts)
    : C(C), Core(Opts, Diags, "vm: ",
                 [this](Marker &M) {
                   for (RtValue V : Stack)
                     M.value(V);
                   for (CallFrame &Frame : Frames) {
                     Core.markEnv(Frame.Env.get(), M);
                     for (RtValue V : Frame.Pending)
                       M.value(V);
                   }
                 }) {
  if (Opts.Profiler)
    Opts.Profiler->beginVm(C.Protos.size(), NumOpcodes);
  // Intern one closure per primitive-as-value site up front; PushPrim
  // is then a plain push, never an allocation.
  InternedPrims.reserve(C.PrimRefs.size());
  for (const Chunk::PrimRef &Ref : C.PrimRefs) {
    RtClosure *Closure = Core.newClosure();
    Closure->IsPrim = true;
    Closure->Op = Ref.Op;
    Closure->PrimNodeId = Ref.Site;
    InternedPrims.push_back(Closure);
  }
}

bool Vm::applyValue(RtValue Callee, std::vector<RtValue> Args,
                    std::vector<size_t> Arenas, uint32_t Site, size_t Owed) {
  for (;;) {
    if (!Callee.isClosure())
      return Core.error("applied a non-function value");
    RtClosure *Closure = Callee.closure();
    ++Core.Stats.Applications;

    if (Closure->IsPrim) {
      // Root the in-flight values across the (possibly allocating)
      // primitive: the closure roots its partial arguments.
      size_t Mark = Stack.size();
      Stack.push_back(Callee);
      Stack.insert(Stack.end(), Args.begin(), Args.end());
      size_t Consumed = 0;
      std::optional<RtValue> R = Core.applyPrim(*Closure, Args, Consumed);
      Stack.resize(Mark);
      if (!R)
        return false;
      Args.erase(Args.begin(), Args.begin() + Consumed);
      if (Args.empty()) {
        if (!Core.endActivations(&*R, Owed) || !Core.closeArenas(Arenas, *R))
          return false;
        Stack.push_back(*R);
        return true;
      }
      Callee = *R;
      Site = NoSite;
      continue;
    }

    // User closure.
    assert(Closure->ProtoIdx >= 0 && "interpreter closure inside the VM");
    const Proto &P = C.Protos[Closure->ProtoIdx];
    size_t Have = Closure->Partial.size();
    if (Have + Args.size() < P.Arity) {
      RtClosure *Next = Core.newClosure();
      Next->Lambda = Closure->Lambda;
      Next->ProtoIdx = Closure->ProtoIdx;
      Next->Env = Closure->Env;
      Next->Partial = Closure->Partial;
      Next->Partial.insert(Next->Partial.end(), Args.begin(), Args.end());
      assert(Arenas.empty() &&
             "arena directive on a call whose callee is partial");
      Stack.push_back(RtValue::makeClosure(Next));
      return Core.endActivations(&Stack.back(), Owed);
    }

    // Saturated: the parameters go on the operand stack, the rest of the
    // arguments wait in the frame for its result.
    size_t Need = P.Arity - Have;
    size_t Base = Stack.size();
    Stack.insert(Stack.end(), Closure->Partial.begin(),
                 Closure->Partial.end());
    Stack.insert(Stack.end(), Args.begin(), Args.begin() + Need);
    activate(*Closure, Base, std::move(Arenas),
             std::vector<RtValue>(Args.begin() + Need, Args.end()),
             /*Replace=*/false, Site, Owed + 1);
    return true;
  }
}

EngineCore::Activation Vm::activation(const RtClosure &Closure,
                                      uint32_t Site) const {
  const Proto &P = C.Protos[Closure.ProtoIdx];
  const LambdaExpr *Fn = Closure.Lambda;
  for (size_t I = 0; I != Closure.Partial.size(); ++I)
    Fn = cast<LambdaExpr>(Fn->body());
  auto It = C.CallSites.find(Site);
  return {Fn, It == C.CallSites.end() ? nullptr : It->second,
          std::span(Stack).last(P.Arity - Closure.Partial.size())};
}

void Vm::activate(const RtClosure &Closure, size_t Base,
                  std::vector<size_t> &&Arenas,
                  std::vector<RtValue> &&Pending, bool Replace,
                  uint32_t Site, size_t Exits) {
  const Proto &P = C.Protos[Closure.ProtoIdx];
  uint32_t Key = static_cast<uint32_t>(Closure.ProtoIdx);
  // Reported first, while the arguments still lie on the stack top.
  EngineCore::Activation A;
  if (Core.Opts.Observer) [[unlikely]]
    A = activation(Closure, Site);
  Core.enterFrame(Key, A, Replace);
  size_t First = Stack.size() - P.Arity;
  CallFrame CF{&P, 0, nullptr, Base, std::move(Arenas), std::move(Pending),
               Exits};
  if (P.FlatFrame) {
    // Parameters live on the operand stack from the frame base: slide
    // them down over what lies below them (the callee, or the replaced
    // frame's slots).
    if (First != Base)
      std::move(Stack.begin() + First, Stack.end(), Stack.begin() + Base);
    Stack.resize(Base + P.Arity);
    CF.Env = Closure.Env;
  } else {
    EnvPtr Frame = std::make_shared<EnvFrame>();
    Frame->Parent = Closure.Env;
    Frame->Slots.reserve(P.Arity);
    const LambdaExpr *Param = P.Lambda;
    for (size_t I = First; I != Stack.size(); ++I) {
      Frame->Slots.emplace_back(Param->param(), Stack[I]);
      Param = dyn_cast<LambdaExpr>(Param->body());
    }
    Stack.resize(Base);
    CF.Env = std::move(Frame);
  }
  if (Replace) {
    Frames.back() = std::move(CF);
    return;
  }
  Frames.push_back(std::move(CF));
  if (Frames.size() > Core.Stats.PeakCallFrames)
    Core.Stats.PeakCallFrames = Frames.size();
}

bool Vm::doPrim(PrimOp Op, uint32_t Site) {
  // Fast paths for the common shapes, operating on the stack in place.
  // Anything unusual (runtime type errors, division by zero) falls
  // through to the shared evaluator so diagnostics match the
  // interpreter's exactly.
  size_t Size = Stack.size();
  switch (Op) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul: {
    RtValue &A = Stack[Size - 2], &B = Stack[Size - 1];
    if (A.isInt() && B.isInt()) {
      int64_t X = A.intValue(), Y = B.intValue();
      A = RtValue::makeInt(Op == PrimOp::Add   ? X + Y
                           : Op == PrimOp::Sub ? X - Y
                                               : X * Y);
      Stack.pop_back();
      return true;
    }
    break;
  }
  case PrimOp::Eq:
  case PrimOp::Ne:
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Gt:
  case PrimOp::Ge: {
    RtValue &A = Stack[Size - 2], &B = Stack[Size - 1];
    if (A.isInt() && B.isInt()) {
      int64_t X = A.intValue(), Y = B.intValue();
      bool R = false;
      switch (Op) {
      case PrimOp::Eq: R = X == Y; break;
      case PrimOp::Ne: R = X != Y; break;
      case PrimOp::Lt: R = X < Y; break;
      case PrimOp::Le: R = X <= Y; break;
      case PrimOp::Gt: R = X > Y; break;
      default: R = X >= Y; break;
      }
      A = RtValue::makeBool(R);
      Stack.pop_back();
      return true;
    }
    break;
  }
  case PrimOp::Null: {
    RtValue &A = Stack[Size - 1];
    if (A.isNil()) {
      A = RtValue::makeBool(true);
      return true;
    }
    if (A.isCons()) {
      A = RtValue::makeBool(false);
      return true;
    }
    break;
  }
  case PrimOp::Car:
  case PrimOp::Cdr: {
    RtValue &A = Stack[Size - 1];
    if (A.isCons()) {
      ConsCell *Cell = A.cell();
      Core.TheHeap.touch(Cell);
      A = Op == PrimOp::Car ? Cell->Car : Cell->Cdr;
      return true;
    }
    break;
  }
  case PrimOp::Fst:
  case PrimOp::Snd: {
    RtValue &A = Stack[Size - 1];
    if (A.isPair()) {
      ConsCell *Cell = A.cell();
      Core.TheHeap.touch(Cell);
      A = Op == PrimOp::Fst ? Cell->Car : Cell->Cdr;
      return true;
    }
    break;
  }
  case PrimOp::Cons:
  case PrimOp::MkPair: {
    // The arguments stay rooted on the stack across a possible GC.
    ConsCell *Cell = Core.allocateCell(Site);
    if (!Cell)
      return Core.error("out of heap cells");
    Cell->Car = Stack[Size - 2];
    Cell->Cdr = Stack[Size - 1];
    Stack[Size - 2] = Op == PrimOp::Cons ? RtValue::makeCons(Cell)
                                         : RtValue::makePair(Cell);
    Stack.pop_back();
    return true;
  }
  case PrimOp::DCons: {
    RtValue &P = Stack[Size - 3];
    if (P.isCons()) {
      Core.TheHeap.reuse(P.cell(), Site, Stack[Size - 2],
                         Stack[Size - 1]);
      Stack.resize(Size - 2);
      return true;
    }
    break;
  }
  default:
    break;
  }

  unsigned Arity = primOpArity(Op);
  assert(Size >= Arity && "prim stack underflow");
  std::span<const RtValue> Args(Stack.data() + Size - Arity, Arity);
  std::optional<RtValue> R = evalSaturatedPrim(Op, Site, Args, Core.Hooks);
  if (!R)
    return false;
  Stack.resize(Size - Arity);
  Stack.push_back(*R);
  return true;
}

bool Vm::doCall(size_t N, uint32_t NumPending, bool Tail, uint32_t Site) {
  CallFrame &Frame = Frames.back();
  assert(Stack.size() >= Frame.StackBase + N + 1 && "stack underflow");
  // An over-application continuation is pinned to this frame; the code
  // after a TailCall (cleanup + Return) is exactly the unfused sequence,
  // so then behave like a plain call.
  Tail = Tail && Frame.Pending.empty();
  std::vector<size_t> Arenas;
  if (NumPending) {
    Arenas.assign(PendingArenas.end() - NumPending, PendingArenas.end());
    PendingArenas.resize(PendingArenas.size() - NumPending);
  }
  if (Tail) {
    // The replaced frame's arenas transfer to the callee: they are freed
    // when it returns — the same execution point at which the unfused
    // Call+Return pair would have freed them.
    Arenas.insert(Arenas.end(), Frame.Arenas.begin(), Frame.Arenas.end());
    Frame.Arenas.clear();
  }
  size_t Slot = Stack.size() - N - 1; // the callee's
  RtValue Callee = Stack[Slot];
  // A tail call's frame starts where the replaced one did.
  size_t Base = Tail ? Frame.StackBase : Slot;

  // Fast path: a user closure that the arguments saturate exactly binds
  // them where they lie. A tail call reuses the frame in place, so deep
  // tail recursion runs in O(1) call frames.
  const RtClosure *Closure = Callee.isClosure() ? Callee.closure() : nullptr;
  if (Closure && !Closure->IsPrim && Closure->Partial.empty()) {
    assert(Closure->ProtoIdx >= 0 && "interpreter closure inside the VM");
    if (C.Protos[Closure->ProtoIdx].Arity == N) {
      ++Core.Stats.Applications;
      activate(*Closure, Base, std::move(Arenas), {}, Tail, Site,
               Tail ? Frame.Exits + 1 : 1);
      return true;
    }
  }

  std::vector<RtValue> Args(Stack.end() - N, Stack.end());
  Stack.resize(Base);
  // A replaced frame's activations end with the value applyValue delivers.
  size_t Owed = Tail ? Frame.Exits : 0;
  if (Tail) {
    Frames.pop_back();
    Core.leaveFrame(nullptr, 0);
  }
  return applyValue(Callee, std::move(Args), std::move(Arenas), Site, Owed);
}

bool Vm::doReturn() {
  assert(!Stack.empty() && "return without a value");
  RtValue Result = Stack.back();
  CallFrame Finished = std::move(Frames.back());
  Frames.pop_back();
  size_t Owed = Finished.Pending.empty() ? 0 : Finished.Exits - 1;
  if (!Core.leaveFrame(&Result, Finished.Exits - Owed))
    return false;
  Stack.resize(Finished.StackBase);
  if (!Core.closeArenas(Finished.Arenas, Result))
    return false;
  if (!Finished.Pending.empty())
    return applyValue(Result, std::move(Finished.Pending), {}, NoSite, Owed);
  Stack.push_back(Result);
  return true;
}

std::optional<RtValue> Vm::run() {
  Core.Failed = false;

  // Enter the entry proto.
  Frames.push_back(CallFrame{&C.Protos[C.Entry], 0,
                             std::make_shared<EnvFrame>(), 0, {}, {}});
  Core.Stats.PeakCallFrames =
      std::max<uint64_t>(Core.Stats.PeakCallFrames, 1);
  Core.enterFrame(C.Entry, {});
  Frames.reserve(64);
  Stack.reserve(256);

  uint64_t Steps = 0;
  CallFrame *F = nullptr;
  const Instr *CodeBase = nullptr; // current proto's code
  const Instr *IP = nullptr;       // next instruction
  const Instr *In = nullptr;
  // Profiling state, hoisted so the per-instruction hook is one
  // predictable branch when profiling is off.
  prof::Profiler *const Prof = Core.Opts.Profiler;
  const Proto *ProtoBase = C.Protos.data();

  // One handler body per opcode, two dispatch mechanisms. The hot state
  // (frame pointer, instruction pointer) lives in locals: handlers that
  // cannot touch the frame stack re-dispatch with VM_NEXT_FAST, while
  // Call/TailCall/Return write the suspended ip back (VM_SAVE) and
  // reload everything (VM_NEXT) because the frame vector may have
  // grown, shrunk, or reallocated.
#define VM_RELOAD()                                                          \
  do {                                                                       \
    F = &Frames.back();                                                      \
    CodeBase = F->P->Code.data();                                            \
    IP = CodeBase + F->Ip;                                                   \
  } while (0)
#define VM_SAVE() (F->Ip = static_cast<size_t>(IP - CodeBase))

#if EAL_VM_THREADED
  static const void *Targets[NumOpcodes] = {
      &&op_PushInt,     &&op_PushBool,    &&op_PushNil,
      &&op_PushPrim,    &&op_LoadSlot,    &&op_MakeClosure,
      &&op_Call,        &&op_Return,      &&op_Jump,
      &&op_JumpIfFalse, &&op_Prim,        &&op_EnterScope,
      &&op_StoreSlot,   &&op_LeaveScope,  &&op_BeginArena,
      &&op_StashArena,  &&op_LoadLocal,   &&op_Slide,
      &&op_TailCall,    &&op_PushIntPrim, &&op_LocalPrim,
      &&op_LocalLocalPrim, &&op_GuardSpec};
#define VM_OP(name) op_##name:
#define VM_NEXT_FAST()                                                       \
  do {                                                                       \
    if (++Steps > Core.Opts.MaxSteps) {                                      \
      Core.error("execution exceeded the step budget");                      \
      goto run_done;                                                         \
    }                                                                        \
    In = IP++;                                                               \
    if (Prof) [[unlikely]]                                                   \
      Prof->countVmStep(static_cast<uint8_t>(In->Op),                        \
                        static_cast<uint32_t>(F->P - ProtoBase));            \
    goto *Targets[static_cast<uint8_t>(In->Op)];                             \
  } while (0)
#define VM_NEXT()                                                            \
  do {                                                                       \
    if (Frames.empty())                                                      \
      goto run_done;                                                         \
    VM_RELOAD();                                                             \
    VM_NEXT_FAST();                                                          \
  } while (0)
#define VM_FAIL() goto run_done

  VM_NEXT();
#else
#define VM_OP(name) case Opcode::name:
#define VM_NEXT_FAST() continue
// Not do{}while(0): `continue` must re-enter the dispatch loop, and
// inside a do-while it would bind to that statement instead, falling
// through into the next case label.
#define VM_NEXT()                                                            \
  {                                                                          \
    if (Frames.empty())                                                      \
      goto run_done;                                                         \
    VM_RELOAD();                                                             \
    continue;                                                                \
  }
#define VM_FAIL() goto run_done

  VM_RELOAD();
  for (;;) {
    if (++Steps > Core.Opts.MaxSteps) {
      Core.error("execution exceeded the step budget");
      break;
    }
    In = IP++;
    if (Prof) [[unlikely]]
      Prof->countVmStep(static_cast<uint8_t>(In->Op),
                        static_cast<uint32_t>(F->P - ProtoBase));
    switch (In->Op) {
#endif

  VM_OP(PushInt) {
    Stack.push_back(RtValue::makeInt(In->Imm));
    VM_NEXT_FAST();
  }
  VM_OP(PushBool) {
    Stack.push_back(RtValue::makeBool(In->A != 0));
    VM_NEXT_FAST();
  }
  VM_OP(PushNil) {
    Stack.push_back(RtValue::makeNil());
    VM_NEXT_FAST();
  }
  VM_OP(PushPrim) {
    Stack.push_back(
        RtValue::makeClosure(InternedPrims[static_cast<size_t>(In->A)]));
    VM_NEXT_FAST();
  }
  VM_OP(LoadSlot) {
    EnvFrame *Env = F->Env.get();
    for (int32_t D = 0; D != In->A; ++D)
      Env = Env->Parent.get();
    assert(Env && In->B < Env->Slots.size() && "bad lexical address");
    Stack.push_back(Env->Slots[In->B].second);
    VM_NEXT_FAST();
  }
  VM_OP(LoadLocal) {
    assert(F->StackBase + static_cast<size_t>(In->A) < Stack.size() &&
           "bad local slot");
    Stack.push_back(Stack[F->StackBase + static_cast<size_t>(In->A)]);
    VM_NEXT_FAST();
  }
  VM_OP(MakeClosure) {
    RtClosure *Closure = Core.newClosure();
    Closure->Lambda = C.Protos[In->A].Lambda;
    Closure->ProtoIdx = In->A;
    Closure->Env = F->Env;
    Stack.push_back(RtValue::makeClosure(Closure));
    VM_NEXT_FAST();
  }
  // Calls and returns report frame events, whose clock is
  // Core.Stats.Steps: publish the local step count first.
  VM_OP(Call) {
    VM_SAVE(); // the callee's Return resumes the caller here
    Core.Stats.Steps = Steps;
    if (!doCall(static_cast<size_t>(In->A), In->B, /*Tail=*/false,
                static_cast<uint32_t>(In->Imm)))
      VM_FAIL();
    VM_NEXT();
  }
  VM_OP(TailCall) {
    VM_SAVE(); // doCall falls back to a plain call when pendings exist
    Core.Stats.Steps = Steps;
    if (!doCall(static_cast<size_t>(In->A), In->B, /*Tail=*/true,
                static_cast<uint32_t>(In->Imm)))
      VM_FAIL();
    VM_NEXT();
  }
  VM_OP(Return) {
    Core.Stats.Steps = Steps;
    if (!doReturn())
      VM_FAIL();
    VM_NEXT();
  }
  VM_OP(Jump) {
    IP += In->A;
    VM_NEXT_FAST();
  }
  VM_OP(JumpIfFalse) {
    RtValue Cond = Stack.back();
    Stack.pop_back();
    if (!Cond.isBool()) {
      Core.error("if condition is not a boolean");
      VM_FAIL();
    }
    if (!Cond.boolValue())
      IP += In->A;
    VM_NEXT_FAST();
  }
  VM_OP(Prim) {
    if (!doPrim(static_cast<PrimOp>(In->A), In->B))
      VM_FAIL();
    VM_NEXT_FAST();
  }
  VM_OP(PushIntPrim) {
    Stack.push_back(RtValue::makeInt(In->Imm));
    if (!doPrim(static_cast<PrimOp>(In->A), In->B))
      VM_FAIL();
    VM_NEXT_FAST();
  }
  VM_OP(LocalPrim) {
    assert(F->StackBase + static_cast<size_t>(In->A) < Stack.size() &&
           "bad local slot");
    Stack.push_back(Stack[F->StackBase + static_cast<size_t>(In->A)]);
    if (!doPrim(static_cast<PrimOp>(In->Imm), In->B))
      VM_FAIL();
    VM_NEXT_FAST();
  }
  VM_OP(LocalLocalPrim) {
    size_t Base = F->StackBase;
    assert(Base + static_cast<size_t>(In->A >> 16) < Stack.size() &&
           Base + static_cast<size_t>(In->A & 0xFFFF) < Stack.size() &&
           "bad local slot");
    Stack.push_back(Stack[Base + static_cast<size_t>(In->A >> 16)]);
    Stack.push_back(Stack[Base + static_cast<size_t>(In->A & 0xFFFF)]);
    if (!doPrim(static_cast<PrimOp>(In->Imm), In->B))
      VM_FAIL();
    VM_NEXT_FAST();
  }
  VM_OP(EnterScope) {
    EnvPtr Child = std::make_shared<EnvFrame>();
    Child->Parent = F->Env;
    for (int32_t I = 0; I != In->A; ++I)
      Child->Slots.emplace_back(C.SlotNames[static_cast<size_t>(In->Imm + I)],
                                RtValue::makeNil());
    if (In->B)
      Core.keepRecFrame(Child);
    F->Env = std::move(Child);
    VM_NEXT_FAST();
  }
  VM_OP(StoreSlot) {
    assert(!Stack.empty() && "store without a value");
    F->Env->Slots[static_cast<size_t>(In->A)].second = Stack.back();
    Stack.pop_back();
    VM_NEXT_FAST();
  }
  VM_OP(LeaveScope) {
    F->Env = F->Env->Parent;
    VM_NEXT_FAST();
  }
  VM_OP(Slide) {
    size_t NewTop = Stack.size() - 1 - static_cast<size_t>(In->A);
    Stack[NewTop] = Stack.back();
    Stack.resize(NewTop + 1);
    VM_NEXT_FAST();
  }
  VM_OP(BeginArena) {
    Core.enterArena(C.Directives[static_cast<size_t>(In->A)]);
    VM_NEXT_FAST();
  }
  VM_OP(GuardSpec) {
    if (Core.Opts.Spec) [[unlikely]]
      Core.Opts.Spec->branchEntered(In->B);
    VM_NEXT_FAST();
  }
  VM_OP(StashArena) {
    PendingArenas.push_back(Core.leaveArena());
    VM_NEXT_FAST();
  }

#if !EAL_VM_THREADED
    } // switch: every handler re-enters the loop via VM_NEXT
  }
#endif
#undef VM_OP
#undef VM_NEXT
#undef VM_NEXT_FAST
#undef VM_SAVE
#undef VM_RELOAD
#undef VM_FAIL

run_done:
  Core.Stats.Steps = Steps;
  std::optional<RtValue> Result;
  if (!Stack.empty())
    Result = Stack.back();
  Stack.clear();
  Frames.clear();
  PendingArenas.clear();
  return Core.endRun(Result);
}
