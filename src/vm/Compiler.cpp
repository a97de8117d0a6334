//===- Compiler.cpp -------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Beyond the straightforward AST-to-stack-code translation, three code
// quality passes run at emit time:
//
//  * Frame flattening (escape/FrameEscape.h): binders whose frame the
//    analysis proves uncaptured keep their bindings on the value stack
//    (LoadLocal against the frame base) instead of heap EnvFrames. The
//    compile-time operand-stack depth `Depth` assigns the slots; every
//    expression nets exactly one value, so the depth is static.
//
//  * Tail calls: an application in tail position compiles to TailCall,
//    which replaces the caller's frame. Scope cleanup (Slide/LeaveScope)
//    is skipped in tail position — Return truncates to the frame base
//    anyway — so the callee really is the activation's last word.
//
//  * Peephole superinstructions: a saturated primitive fuses with the
//    instructions that feed it (LoadLocal+LoadLocal+Prim, PushInt+Prim,
//    LoadLocal+Prim). Fusion never crosses a jump target: binding a
//    label raises the buffer's barrier.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "escape/FrameEscape.h"
#include "lang/AstUtils.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <unordered_map>

using namespace eal;

namespace {

/// A proto's code under construction. Barrier marks the earliest
/// instruction peephole fusion may consume (jump targets land here).
struct CodeBuf {
  std::vector<Instr> Code;
  size_t Barrier = 0;
};

class CompilerImpl {
public:
  CompilerImpl(const AstContext &Ast, const AllocationPlan *Plan,
               DiagnosticEngine &Diags,
               const std::unordered_map<uint32_t, uint32_t> *SpecGuards)
      : Ast(Ast), Plan(Plan), Diags(Diags), SpecGuards(SpecGuards) {}

  std::optional<Chunk> run(const Expr *Root) {
    Escapes = analyzeFrameEscapes(Ast, Root);
    // The entry proto runs under one (empty) frame.
    Out.Protos.emplace_back();
    Out.Protos[0].Arity = 0;
    Out.Protos[0].Name = "<entry>";
    Out.Entry = 0;
    Scopes.push_back({Scope::Frame, {}, {}, 0});
    CodeBuf B;
    if (!compileExpr(Root, B, /*Tail=*/true))
      return std::nullopt;
    emit(B, {Opcode::Return, 0, 0, 0}, -1);
    Out.Protos[0].Code = std::move(B.Code);
    Scopes.pop_back();
    return std::move(Out);
  }

private:
  //===--- Scope handling --------------------------------------------------==//

  struct Scope {
    enum Kind { Frame, Stack };
    Kind K;
    std::vector<Symbol> Names;
    /// Stack scopes only: frame-base-relative slot per name.
    std::vector<uint32_t> Slots;
    /// Owning proto; Stack slots are only addressable from it.
    unsigned ProtoIdx;
  };

  bool resolve(Symbol Name, SourceLoc Loc, CodeBuf &B) {
    int32_t FrameDepth = 0;
    for (size_t D = 0; D != Scopes.size(); ++D) {
      const Scope &S = Scopes[Scopes.size() - 1 - D];
      // The last match is the innermost binding (`f x x`).
      for (size_t I = S.Names.size(); I-- != 0;)
        if (S.Names[I] == Name) {
          if (S.K == Scope::Stack) {
            // The frame-escape analysis guarantees stack bindings are
            // never referenced across a closure boundary.
            if (S.ProtoIdx != CurProto) {
              Diags.error(Loc, "bytecode compiler: internal error: "
                               "flattened binding referenced across a "
                               "closure boundary");
              return false;
            }
            emit(B, {Opcode::LoadLocal,
                     static_cast<int32_t>(S.Slots[I]), 0, 0}, +1);
            return true;
          }
          emit(B, {Opcode::LoadSlot, FrameDepth,
                   static_cast<uint32_t>(I), 0}, +1);
          return true;
        }
      if (S.K == Scope::Frame)
        ++FrameDepth;
    }
    Diags.error(Loc, "bytecode compiler: unbound identifier '" +
                         std::string(Ast.spelling(Name)) + "'");
    return false;
  }

  //===--- Emission --------------------------------------------------------==//

  void emit(CodeBuf &B, Instr I, int StackDelta) {
    B.Code.push_back(I);
    Depth += StackDelta;
    assert(Depth >= 0 && "operand stack underflow at compile time");
  }

  /// Points the jump at \p At to the current end of code and bars
  /// fusion across the landing site.
  void bindJump(CodeBuf &B, size_t At) {
    B.Code[At].A = static_cast<int32_t>(B.Code.size() - (At + 1));
    B.Barrier = B.Code.size();
  }

  /// Emits a saturated primitive, fusing it with the instruction(s) that
  /// feed its trailing arguments when they are simple pushes.
  void emitPrim(CodeBuf &B, PrimOp Op, uint32_t Site) {
    unsigned Arity = primOpArity(Op);
    int Delta = 1 - static_cast<int>(Arity);
    std::vector<Instr> &Code = B.Code;
    size_t N = Code.size();
    if (Arity == 2 && N >= 2 && N - 2 >= B.Barrier &&
        Code[N - 2].Op == Opcode::LoadLocal &&
        Code[N - 1].Op == Opcode::LoadLocal && Code[N - 2].A <= 0xFFFF &&
        Code[N - 1].A <= 0xFFFF) {
      int32_t Packed = (Code[N - 2].A << 16) | Code[N - 1].A;
      Code.resize(N - 2);
      emit(B, {Opcode::LocalLocalPrim, Packed, Site,
               static_cast<int64_t>(Op)}, Delta);
      return;
    }
    if (Arity >= 1 && N >= 1 && N - 1 >= B.Barrier) {
      if (Code[N - 1].Op == Opcode::PushInt) {
        int64_t Lit = Code[N - 1].Imm;
        Code.resize(N - 1);
        emit(B, {Opcode::PushIntPrim, static_cast<int32_t>(Op), Site, Lit},
             Delta);
        return;
      }
      if (Code[N - 1].Op == Opcode::LoadLocal) {
        int32_t Slot = Code[N - 1].A;
        Code.resize(N - 1);
        emit(B, {Opcode::LocalPrim, Slot, Site, static_cast<int64_t>(Op)},
             Delta);
        return;
      }
    }
    emit(B, {Opcode::Prim, static_cast<int32_t>(Op), Site, 0}, Delta);
  }

  uint32_t primRefIndex(PrimOp Op, uint32_t Site) {
    uint64_t Key = (static_cast<uint64_t>(Site) << 8) |
                   static_cast<uint8_t>(Op);
    auto It = PrimRefIndices.find(Key);
    if (It != PrimRefIndices.end())
      return It->second;
    uint32_t Index = static_cast<uint32_t>(Out.PrimRefs.size());
    Out.PrimRefs.push_back({Op, Site});
    PrimRefIndices.emplace(Key, Index);
    return Index;
  }

  //===--- Expression compilation -------------------------------------------==//

  bool compileExpr(const Expr *E, CodeBuf &B, bool Tail) {
    // A guarded branch materializes its deopt guard before anything
    // else runs in it; the barrier keeps fusion from reaching past the
    // branch entry (the guard must fire before any allocation in the
    // branch).
    if (SpecGuards) [[unlikely]] {
      auto GuardIt = SpecGuards->find(E->id());
      if (GuardIt != SpecGuards->end()) {
        emit(B, {Opcode::GuardSpec, static_cast<int32_t>(GuardIt->second),
                 E->id(), 0}, 0);
        B.Barrier = B.Code.size();
        Out.Protos[CurProto].SpecGuards.push_back(GuardIt->second);
      }
    }
    switch (E->kind()) {
    case ExprKind::IntLit:
      emit(B, {Opcode::PushInt, 0, 0, cast<IntLitExpr>(E)->value()}, +1);
      return true;
    case ExprKind::BoolLit:
      emit(B, {Opcode::PushBool, cast<BoolLitExpr>(E)->value() ? 1 : 0,
               0, 0}, +1);
      return true;
    case ExprKind::NilLit:
      emit(B, {Opcode::PushNil, 0, 0, 0}, +1);
      return true;
    case ExprKind::Var:
      return resolve(cast<VarExpr>(E)->name(), E->loc(), B);
    case ExprKind::Prim: {
      const auto *Prim = cast<PrimExpr>(E);
      uint32_t Index = primRefIndex(Prim->op(), E->id());
      emit(B, {Opcode::PushPrim, static_cast<int32_t>(Index), 0, 0}, +1);
      return true;
    }
    case ExprKind::App:
      return compileCallSpine(cast<AppExpr>(E), B, Tail);
    case ExprKind::Lambda: {
      std::optional<unsigned> ProtoIdx = compileLambdaChain(E, "<lambda>");
      if (!ProtoIdx)
        return false;
      emit(B, {Opcode::MakeClosure, static_cast<int32_t>(*ProtoIdx), 0, 0},
           +1);
      return true;
    }
    case ExprKind::If: {
      const auto *If = cast<IfExpr>(E);
      if (!compileExpr(If->cond(), B, /*Tail=*/false))
        return false;
      size_t JumpToElse = B.Code.size();
      emit(B, {Opcode::JumpIfFalse, 0, 0, 0}, -1);
      // Both branches net one value from here; in tail position their
      // internal depths may differ (cleanup is skipped), which is fine
      // because only Return follows the join.
      int DepthAtBranch = Depth;
      if (!compileExpr(If->thenExpr(), B, Tail))
        return false;
      size_t JumpToEnd = B.Code.size();
      emit(B, {Opcode::Jump, 0, 0, 0}, 0);
      bindJump(B, JumpToElse);
      Depth = DepthAtBranch;
      if (!compileExpr(If->elseExpr(), B, Tail))
        return false;
      bindJump(B, JumpToEnd);
      return true;
    }
    case ExprKind::Let: {
      const auto *Let = cast<LetExpr>(E);
      if (!compileExpr(Let->value(), B, /*Tail=*/false))
        return false;
      if (!Escapes.frameEscapes(E)) {
        // Flattened: the value stays put as a stack slot.
        Scopes.push_back({Scope::Stack,
                          {Let->name()},
                          {static_cast<uint32_t>(Depth - 1)},
                          CurProto});
        bool Ok = compileExpr(Let->body(), B, Tail);
        Scopes.pop_back();
        if (!Ok)
          return false;
        if (!Tail)
          emit(B, {Opcode::Slide, 1, 0, 0}, -1);
        return true;
      }
      emit(B, {Opcode::EnterScope, 1, 0, slotNames({Let->name()})}, 0);
      emit(B, {Opcode::StoreSlot, 0, 0, 0}, -1);
      Scopes.push_back({Scope::Frame, {Let->name()}, {}, CurProto});
      bool Ok = compileExpr(Let->body(), B, Tail);
      Scopes.pop_back();
      if (!Ok)
        return false;
      if (!Tail)
        emit(B, {Opcode::LeaveScope, 0, 0, 0}, 0);
      return true;
    }
    case ExprKind::Letrec: {
      // Letrec frames are always heap frames: the bindings' closures
      // capture the frame to reach their siblings and themselves.
      const auto *Letrec = cast<LetrecExpr>(E);
      auto Bindings = Letrec->bindings();
      Scope S{Scope::Frame, {}, {}, CurProto};
      for (const LetrecBinding &Binding : Bindings)
        S.Names.push_back(Binding.Name);
      emit(B, {Opcode::EnterScope, static_cast<int32_t>(Bindings.size()), 1,
               slotNames(S.Names)}, 0);
      Scopes.push_back(std::move(S));
      bool Ok = true;
      for (size_t I = 0; Ok && I != Bindings.size(); ++I) {
        // Name function bindings' protos after the binding.
        if (isa<LambdaExpr>(Bindings[I].Value)) {
          std::optional<unsigned> ProtoIdx = compileLambdaChain(
              Bindings[I].Value, std::string(Ast.spelling(Bindings[I].Name)));
          if (!ProtoIdx) {
            Ok = false;
            break;
          }
          emit(B, {Opcode::MakeClosure,
                   static_cast<int32_t>(*ProtoIdx), 0, 0}, +1);
        } else {
          Ok = compileExpr(Bindings[I].Value, B, /*Tail=*/false);
        }
        emit(B, {Opcode::StoreSlot, static_cast<int32_t>(I), 0, 0}, -1);
      }
      Ok = Ok && compileExpr(Letrec->body(), B, Tail);
      Scopes.pop_back();
      if (!Ok)
        return false;
      if (!Tail)
        emit(B, {Opcode::LeaveScope, 0, 0, 0}, 0);
      return true;
    }
    }
    assert(false && "unhandled expression kind");
    return false;
  }

  bool compileCallSpine(const AppExpr *Call, CodeBuf &B, bool Tail) {
    std::vector<const Expr *> Args;
    const Expr *Callee = uncurryCall(Call, Args);

    // Saturated direct primitive: one instruction, no closure.
    if (const auto *Prim = dyn_cast<PrimExpr>(Callee)) {
      if (Args.size() == primOpArity(Prim->op())) {
        for (const Expr *Arg : Args)
          if (!compileExpr(Arg, B, /*Tail=*/false))
            return false;
        emitPrim(B, Prim->op(), Call->id());
        return true;
      }
    }

    if (!compileExpr(Callee, B, /*Tail=*/false))
      return false;

    uint32_t NumPending = 0;
    for (size_t I = 0; I != Args.size(); ++I) {
      const ArgArenaDirective *D =
          Plan ? Plan->directiveFor(Call->id(), I) : nullptr;
      if (D) {
        emit(B, {Opcode::BeginArena,
                 static_cast<int32_t>(directiveIndex(D)), 0, 0}, 0);
      }
      if (!compileExpr(Args[I], B, /*Tail=*/false))
        return false;
      if (D) {
        emit(B, {Opcode::StashArena, 0, 0, 0}, 0);
        ++NumPending;
      }
    }
    emit(B, {Tail ? Opcode::TailCall : Opcode::Call,
             static_cast<int32_t>(Args.size()), NumPending, Call->id()},
         -static_cast<int>(Args.size()));
    Out.CallSites.emplace(Call->id(), Call);
    return true;
  }

  std::optional<unsigned> compileLambdaChain(const Expr *E,
                                             std::string Name) {
    std::vector<Symbol> Params;
    const Expr *Body = E;
    while (const auto *Lambda = dyn_cast<LambdaExpr>(Body)) {
      Params.push_back(Lambda->param());
      Body = Lambda->body();
    }
    unsigned ProtoIdx = static_cast<unsigned>(Out.Protos.size());
    bool Flat = !Escapes.frameEscapes(E);
    Out.Protos.emplace_back();
    Out.Protos[ProtoIdx].Arity = static_cast<unsigned>(Params.size());
    Out.Protos[ProtoIdx].Name = std::move(Name);
    Out.Protos[ProtoIdx].FlatFrame = Flat;
    Out.Protos[ProtoIdx].Lambda = cast<LambdaExpr>(E);

    unsigned SavedProto = CurProto;
    int SavedDepth = Depth;
    CurProto = ProtoIdx;
    Scope S{Flat ? Scope::Stack : Scope::Frame, {}, {}, ProtoIdx};
    S.Names = std::move(Params);
    if (Flat) {
      // Parameters occupy the first frame-base slots.
      Depth = static_cast<int>(S.Names.size());
      for (uint32_t I = 0; I != S.Names.size(); ++I)
        S.Slots.push_back(I);
    } else {
      Depth = 0;
    }
    Scopes.push_back(std::move(S));
    CodeBuf B;
    bool Ok = compileExpr(Body, B, /*Tail=*/true);
    if (Ok)
      emit(B, {Opcode::Return, 0, 0, 0}, -1);
    Scopes.pop_back();
    CurProto = SavedProto;
    Depth = SavedDepth;
    if (!Ok)
      return std::nullopt;
    Out.Protos[ProtoIdx].Code = std::move(B.Code);
    return ProtoIdx;
  }

  /// Appends an EnterScope's slot names; returns where they start.
  int64_t slotNames(const std::vector<Symbol> &Names) {
    Out.SlotNames.insert(Out.SlotNames.end(), Names.begin(), Names.end());
    return static_cast<int64_t>(Out.SlotNames.size() - Names.size());
  }

  size_t directiveIndex(const ArgArenaDirective *D) {
    auto It = DirectiveIndices.find(D);
    if (It != DirectiveIndices.end())
      return It->second;
    size_t Index = Out.Directives.size();
    Out.Directives.push_back(D);
    DirectiveIndices.emplace(D, Index);
    return Index;
  }

  const AstContext &Ast;
  const AllocationPlan *Plan;
  DiagnosticEngine &Diags;
  /// Guarded branch expr id -> guard index (null: no speculation).
  const std::unordered_map<uint32_t, uint32_t> *SpecGuards;
  Chunk Out;
  FrameEscapeInfo Escapes;
  std::vector<Scope> Scopes;
  /// Proto currently being compiled; guards Stack-slot locality.
  unsigned CurProto = 0;
  /// Compile-time operand-stack depth of the current proto, relative to
  /// its frame base. Assigns flattened bindings their slots.
  int Depth = 0;
  std::unordered_map<const ArgArenaDirective *, size_t> DirectiveIndices;
  std::unordered_map<uint64_t, uint32_t> PrimRefIndices;
};

} // namespace

std::optional<Chunk> eal::compileToBytecode(
    const AstContext &Ast, const Expr *Root, const AllocationPlan *Plan,
    DiagnosticEngine &Diags,
    const std::unordered_map<uint32_t, uint32_t> *SpecGuards) {
  CompilerImpl Impl(Ast, Plan, Diags, SpecGuards);
  return Impl.run(Root);
}
