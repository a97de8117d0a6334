//===- Bytecode.h - nml bytecode --------------------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact stack-machine bytecode for nml, the second execution engine
/// beside the tree-walking interpreter. The compiler resolves variables
/// to (frame depth, slot) pairs at compile time and turns lambda chains
/// into n-ary protos; the VM runs an iterative dispatch loop, so nml
/// recursion depth is bounded by memory, not by the C++ stack.
///
/// Allocation-plan integration mirrors the interpreter: cons/pair
/// instructions carry their static site id, and argument evaluation for
/// calls with arena directives is bracketed by BeginArena/StashArena so
/// the arenas attach to the callee's activation.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_VM_BYTECODE_H
#define EAL_VM_BYTECODE_H

#include "lang/Ast.h"
#include "opt/AllocPlanner.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace eal {

/// VM instruction set.
enum class Opcode : uint8_t {
  PushInt,     ///< push Imm
  PushBool,    ///< push A != 0
  PushNil,     ///< push nil
  PushPrim,    ///< push the interned primitive closure PrimRefs[A]
  LoadSlot,    ///< push env[depth A][slot B]
  MakeClosure, ///< push closure of proto A capturing the current frame
  Call,        ///< call with A args; B pending arenas attach to the callee;
               ///< Imm = the spine's AppExpr id (activation reports)
  Return,      ///< return top of stack from the current frame
  Jump,        ///< ip += A (relative to the next instruction)
  JumpIfFalse, ///< pop condition; jump if false
  Prim,        ///< saturated primitive A (pops arity args); B = site id
  EnterScope,  ///< push an env frame with A empty slots named
               ///< SlotNames[Imm...]; B = 1 if letrec
  StoreSlot,   ///< pop into slot A of the current frame
  LeaveScope,  ///< pop the current env frame
  BeginArena,  ///< activate a fresh arena for plan directive A
  StashArena,  ///< deactivate the innermost arena, pending for next Call

  // Escape-directed frame flattening: bindings the frame-escape
  // analysis proves uncaptured live as value-stack slots.
  LoadLocal, ///< push stack[frame base + A] (a flattened binding)
  Slide,     ///< pop the result, drop A values beneath it, push it back
  TailCall,  ///< like Call with A args / B arenas, but replaces the frame

  // Peephole superinstructions (hot shapes; see Compiler.cpp).
  PushIntPrim,    ///< push Imm, then saturated prim A; B = site id
  LocalPrim,      ///< push local A, then saturated prim Imm; B = site id
  LocalLocalPrim, ///< push locals A>>16 and A&0xffff, then prim Imm @ B

  /// Speculative-tier deopt guard (src/spec, docs/SPECULATION.md):
  /// control reached a branch the speculation assumed cold. Reports the
  /// branch (B = its expr id) to SpecHooks::branchEntered, which runs the
  /// deopt protocol; A is the guard index. With no hooks attached it is
  /// a no-op. Materialized at the top of the guarded branch's code, so it
  /// also bars superinstruction fusion across the branch entry.
  GuardSpec,
};

/// One past the last opcode (size of dispatch tables).
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::GuardSpec) + 1;

/// Returns the mnemonic of \p Op.
const char *opcodeName(Opcode Op);

/// One instruction. A/B are operands; Imm carries integer literals.
struct Instr {
  Opcode Op;
  int32_t A = 0;
  uint32_t B = 0;
  int64_t Imm = 0;
};

/// One compiled function (a whole lambda chain): binds Arity parameters
/// at once, then runs Code until Return.
struct Proto {
  unsigned Arity = 0;
  std::vector<Instr> Code;
  std::string Name; ///< for disassembly and diagnostics
  const LambdaExpr *Lambda = nullptr; ///< the chain's outermost; null: entry
  /// Frame flattening: the frame-escape analysis proved no binding of
  /// this proto is captured by a nested closure, so parameters live as
  /// value-stack slots (LoadLocal) and calls allocate no EnvFrame.
  bool FlatFrame = false;
  /// Speculation guards materialized in this proto's code (guard
  /// indices, in emission order) — the per-proto materialization map the
  /// spec report and disassembly show (docs/SPECULATION.md). Empty in
  /// non-speculative compiles.
  std::vector<uint32_t> SpecGuards;
};

/// A compiled program.
struct Chunk {
  std::vector<Proto> Protos;
  /// Index of the entry proto (arity 0; the program body).
  unsigned Entry = 0;
  /// Directive table referenced by BeginArena operands.
  std::vector<const ArgArenaDirective *> Directives;
  /// One entry per distinct primitive-as-value site; PushPrim pushes the
  /// VM's interned closure for PrimRefs[A] instead of allocating one.
  struct PrimRef {
    PrimOp Op;
    uint32_t Site;
  };
  std::vector<PrimRef> PrimRefs;
  /// The AppExpr of each Call/TailCall Imm, for activation reports.
  std::unordered_map<uint32_t, const AppExpr *> CallSites;
  /// Each EnterScope's slot names, from its Imm on (the escape oracle
  /// reads a closure's free variables by name).
  std::vector<Symbol> SlotNames;

  /// Total instruction count (a size metric).
  size_t instructionCount() const {
    size_t N = 0;
    for (const Proto &P : Protos)
      N += P.Code.size();
    return N;
  }
};

/// Renders \p C as human-readable assembly.
std::string disassemble(const Chunk &C);

} // namespace eal

#endif // EAL_VM_BYTECODE_H
