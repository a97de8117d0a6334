//===- Interpreter.cpp ----------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "runtime/SpecHooks.h"
#include "runtime/ValuePrinter.h"
#include "support/LargeStack.h"

#include "lang/AstUtils.h"

#include <cassert>

using namespace eal;

namespace {

/// Restores the shadow stack to its entry size (rooted temporaries).
class ShadowGuard {
public:
  ShadowGuard(std::vector<RtValue> &Stack) : Stack(Stack), Mark(Stack.size()) {}
  ~ShadowGuard() { Stack.resize(Mark); }
  void push(RtValue V) { Stack.push_back(V); }

private:
  std::vector<RtValue> &Stack;
  size_t Mark;
};

/// Keeps an environment frame registered as a GC root.
class FrameGuard {
public:
  FrameGuard(std::vector<EnvFrame *> &Frames, EnvFrame *Frame)
      : Frames(Frames) {
    Frames.push_back(Frame);
  }
  ~FrameGuard() { Frames.pop_back(); }

private:
  std::vector<EnvFrame *> &Frames;
};

} // namespace

Interpreter::Interpreter(const AstContext &Ast, const TypedProgram &Program,
                         const AllocationPlan *Plan, DiagnosticEngine &Diags,
                         Options Opts)
    : Ast(Ast), Program(Program), Plan(Plan),
      Core(Opts, Diags, "", [this](Marker &M) {
        for (RtValue V : ShadowStack)
          M.value(V);
        for (EnvFrame *Frame : ActiveFrames)
          Core.markEnv(Frame, M);
      }) {}

bool Interpreter::fuel(const Expr *E) {
  if (++Core.Stats.Steps <= Core.Opts.MaxSteps)
    return true;
  return Core.error("evaluation exceeded the step budget", E->loc());
}

//===----------------------------------------------------------------------===//
// Application
//===----------------------------------------------------------------------===//

std::optional<RtValue>
Interpreter::applyValues(RtValue Callee, const std::vector<RtValue> &Args,
                         std::vector<size_t> &&Arenas, const AppExpr *Call) {
  // Rooting discipline: slot Base holds the current callee/result; slot
  // Base+1+i holds argument i until it is consumed. A consumed argument's
  // slot is cleared — it is then reachable only through the activation
  // frame, which matches the semantic lifetime the escape analysis
  // reasons about (and is what makes arena-free validation precise).
  ShadowGuard Rooted(ShadowStack);
  size_t Base = ShadowStack.size();
  Rooted.push(Callee);
  for (RtValue A : Args)
    Rooted.push(A);
  auto ClearConsumed = [&](size_t UpTo) {
    for (size_t I = 0; I != UpTo; ++I)
      ShadowStack[Base + 1 + I] = RtValue::makeNil();
  };

  RtValue Current = Callee;
  size_t Idx = 0;
  // The observer's per-call claims attach only to the activation of the
  // spine's direct callee, i.e. the first applied closure.
  bool DirectCallee = true;
  while (Idx < Args.size()) {
    if (!Current.isClosure()) {
      Core.error("applied a non-function value");
      return std::nullopt;
    }
    RtClosure *C = Current.closure();
    ++Core.Stats.Applications;

    if (C->IsPrim) {
      size_t Consumed = 0;
      std::optional<RtValue> R =
          Core.applyPrim(*C, std::span(Args).subspan(Idx), Consumed);
      if (!R)
        return std::nullopt;
      Idx += Consumed;
      Current = *R;
      ShadowStack[Base] = Current;
      ClearConsumed(Idx);
      DirectCallee = false;
      continue;
    }

    // User closure: bind as many leading parameters as arguments remain.
    EnvPtr Frame = std::make_shared<EnvFrame>();
    Frame->Parent = C->Env;
    const Expr *Body = C->Lambda;
    size_t FirstArg = Idx;
    while (const auto *L = dyn_cast<LambdaExpr>(Body)) {
      if (Idx == Args.size())
        break;
      Frame->Slots.emplace_back(L->param(), Args[Idx++]);
      Body = L->body();
    }
    if (isa<LambdaExpr>(Body)) {
      // Arguments exhausted mid-chain: the result is a closure.
      RtClosure *Partial = Core.newClosure();
      Partial->Lambda = cast<LambdaExpr>(Body);
      Partial->Env = Frame;
      Current = RtValue::makeClosure(Partial);
      ShadowStack[Base] = Current;
      ClearConsumed(Idx);
      DirectCallee = false;
      continue;
    }

    // Evaluate the body; arenas (if any) belong to this first activation
    // and die when it returns (closing empties Arenas, so later closes
    // are no-ops). Consumed arguments live on only through the frame.
    ClearConsumed(Idx);
    ShadowStack[Base] = RtValue::makeNil(); // callee consumed too
    std::optional<RtValue> R;
    {
      FrameGuard Active(ActiveFrames, Frame.get());
      Core.enterFrame(C->Lambda->id(),
                      {C->Lambda, DirectCallee ? Call : nullptr,
                       std::span<const RtValue>(Args).subspan(
                           FirstArg, Idx - FirstArg)});
      R = eval(Body, Frame);
      // Before closeArenas, and inside the FrameGuard so the frame roots
      // the cells the observer inspects.
      if (!Core.leaveFrame(R ? &*R : nullptr, 1,
                           Call ? Call->loc() : SourceLoc::invalid()))
        R = std::nullopt;
    }
    if (!R || !Core.closeArenas(Arenas, *R))
      return std::nullopt;
    Current = *R;
    ShadowStack[Base] = Current;
    DirectCallee = false;
  }
  // A partial result ends the loop; the planner places directives on
  // saturated calls only, so no arena waits for an activation then.
  assert((Arenas.empty() || !Current.isClosure()) &&
         "arena directive on a call whose callee is partial");
  if (!Core.closeArenas(Arenas, Current))
    return std::nullopt;
  return Current;
}

std::optional<RtValue> Interpreter::evalCallSpine(const AppExpr *Call,
                                                  const EnvPtr &Env) {
  std::vector<const Expr *> ArgExprs;
  const Expr *CalleeExpr = uncurryCall(Call, ArgExprs);

  size_t ShadowMark = ShadowStack.size();
  ShadowGuard Rooted(ShadowStack);

  // Fast path: a saturated direct primitive application needs no closure.
  if (const auto *Prim = dyn_cast<PrimExpr>(CalleeExpr)) {
    if (ArgExprs.size() == primOpArity(Prim->op())) {
      std::vector<RtValue> Args;
      Args.reserve(ArgExprs.size());
      for (const Expr *ArgExpr : ArgExprs) {
        std::optional<RtValue> V = eval(ArgExpr, Env);
        if (!V)
          return std::nullopt;
        Rooted.push(*V);
        Args.push_back(*V);
      }
      // The cons site id is the outermost App node of the spine.
      return evalSaturatedPrim(Prim->op(), Call->id(), Args, Core.Hooks);
    }
  }

  std::optional<RtValue> CalleeVal = eval(CalleeExpr, Env);
  if (!CalleeVal)
    return std::nullopt;
  Rooted.push(*CalleeVal);

  std::vector<RtValue> Args;
  std::vector<size_t> Arenas;
  Args.reserve(ArgExprs.size());
  for (size_t I = 0; I != ArgExprs.size(); ++I) {
    const ArgArenaDirective *D =
        Plan ? Plan->directiveFor(Call->id(), I) : nullptr;
    if (D)
      Core.enterArena(D);
    std::optional<RtValue> V = eval(ArgExprs[I], Env);
    if (D)
      Arenas.push_back(Core.leaveArena());
    if (!V)
      return std::nullopt;
    Rooted.push(*V);
    Args.push_back(*V);
  }

  // Hand rooting over to applyValues (which re-roots callee and args
  // immediately and releases each as it is consumed). Nothing can
  // allocate between this resize and the re-rooting.
  ShadowStack.resize(ShadowMark);
  return applyValues(*CalleeVal, Args, std::move(Arenas), Call);
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

std::optional<RtValue> Interpreter::eval(const Expr *E, const EnvPtr &Env) {
  if (!fuel(E))
    return std::nullopt;
  switch (E->kind()) {
  case ExprKind::IntLit:
    return RtValue::makeInt(cast<IntLitExpr>(E)->value());
  case ExprKind::BoolLit:
    return RtValue::makeBool(cast<BoolLitExpr>(E)->value());
  case ExprKind::NilLit:
    return RtValue::makeNil();
  case ExprKind::Var: {
    Symbol Name = cast<VarExpr>(E)->name();
    for (EnvFrame *F = Env.get(); F; F = F->Parent.get())
      if (RtValue *Slot = F->find(Name))
        return *Slot;
    Core.error("unbound identifier '" + std::string(Ast.spelling(Name)) +
                   "' at run time",
               E->loc());
    return std::nullopt;
  }
  case ExprKind::Prim: {
    const auto *Prim = cast<PrimExpr>(E);
    RtClosure *C = Core.newClosure();
    C->IsPrim = true;
    C->Op = Prim->op();
    C->PrimNodeId = E->id();
    return RtValue::makeClosure(C);
  }
  case ExprKind::App:
    return evalCallSpine(cast<AppExpr>(E), Env);
  case ExprKind::Lambda: {
    RtClosure *C = Core.newClosure();
    C->Lambda = cast<LambdaExpr>(E);
    C->Env = Env;
    return RtValue::makeClosure(C);
  }
  case ExprKind::If: {
    const auto *If = cast<IfExpr>(E);
    std::optional<RtValue> Cond = eval(If->cond(), Env);
    if (!Cond)
      return std::nullopt;
    if (!Cond->isBool()) {
      Core.error("if condition is not a boolean", If->cond()->loc());
      return std::nullopt;
    }
    const Expr *Chosen = Cond->boolValue() ? If->thenExpr() : If->elseExpr();
    // Branch-entry report: the spec tier's profile counter during the
    // pre-run, its deopt guard during the speculative run.
    if (Core.Opts.Spec) [[unlikely]]
      Core.Opts.Spec->branchEntered(Chosen->id());
    return eval(Chosen, Env);
  }
  case ExprKind::Let: {
    const auto *Let = cast<LetExpr>(E);
    std::optional<RtValue> V = eval(Let->value(), Env);
    if (!V)
      return std::nullopt;
    EnvPtr Frame = std::make_shared<EnvFrame>();
    Frame->Parent = Env;
    Frame->Slots.emplace_back(Let->name(), *V);
    FrameGuard Active(ActiveFrames, Frame.get());
    return eval(Let->body(), Frame);
  }
  case ExprKind::Letrec: {
    const auto *Letrec = cast<LetrecExpr>(E);
    EnvPtr Frame = bindLetrec(Letrec, Env);
    if (!Frame)
      return std::nullopt;
    FrameGuard Active(ActiveFrames, Frame.get());
    return eval(Letrec->body(), Frame);
  }
  }
  assert(false && "unhandled expression kind");
  return std::nullopt;
}

EnvPtr Interpreter::bindLetrec(const LetrecExpr *Letrec, const EnvPtr &Env) {
  EnvPtr Frame = std::make_shared<EnvFrame>();
  Frame->Parent = Env;
  Core.keepRecFrame(Frame);
  for (const LetrecBinding &B : Letrec->bindings())
    Frame->Slots.emplace_back(B.Name, RtValue::makeNil());
  FrameGuard Active(ActiveFrames, Frame.get());
  auto Bindings = Letrec->bindings();
  for (size_t I = 0; I != Bindings.size(); ++I) {
    std::optional<RtValue> V = eval(Bindings[I].Value, Frame);
    if (!V)
      return nullptr;
    Frame->Slots[I].second = *V;
  }
  return Frame;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::optional<RtValue> Interpreter::run() {
  Core.Failed = false;
  EnvPtr Root = std::make_shared<EnvFrame>();
  FrameGuard Active(ActiveFrames, Root.get());
  return Core.endRun(eval(Program.root(), Root));
}

std::optional<RtValue> Interpreter::runOnLargeStack() {
  std::optional<RtValue> Result;
  eal::runOnLargeStack([&] { Result = run(); });
  return Result;
}

//===----------------------------------------------------------------------===//
// Value rendering
//===----------------------------------------------------------------------===//

std::string Interpreter::render(RtValue V, size_t MaxElements) const {
  return renderValue(V, MaxElements);
}

std::vector<int64_t> Interpreter::toIntVector(RtValue V) {
  return valueToIntVector(V);
}
