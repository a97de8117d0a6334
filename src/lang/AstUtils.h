//===- AstUtils.h - AST traversal helpers -----------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Free-variable computation and generic traversal over nml ASTs. The
/// escape semantics of lambda needs the free identifiers of each lambda
/// (the set F in §3.4); the optimizer needs last-use information.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_LANG_ASTUTILS_H
#define EAL_LANG_ASTUTILS_H

#include "lang/Ast.h"

#include <functional>
#include <optional>
#include <vector>

namespace eal {

/// Returns the free variables of \p E in first-occurrence order,
/// deduplicated. Primitives are constants, not variables.
std::vector<Symbol> freeVariables(const Expr *E);

/// Calls \p Visit on \p E and every descendant, preorder.
void forEachExpr(const Expr *E, const std::function<void(const Expr *)> &Visit);

/// Counts the nodes of \p E (a cheap size metric for scalability benches).
size_t countNodes(const Expr *E);

/// If \p E is an application spine `f a1 ... an`, returns the callee and
/// fills \p Args (empty Args and E itself otherwise).
const Expr *uncurryCall(const Expr *E, std::vector<const Expr *> &Args);

/// Counts the leading lambda binders of \p E (its syntactic arity).
unsigned lambdaArity(const Expr *E);

/// True for the primitives that allocate a cell: cons, mkpair and dcons.
inline bool isAllocPrim(PrimOp Op) {
  return Op == PrimOp::Cons || Op == PrimOp::MkPair || Op == PrimOp::DCons;
}

/// Matches a saturated cell construction `cons e1 e2` or `mkpair e1 e2`:
/// returns its primitive and fills the operands, or returns nullopt.
std::optional<PrimOp> matchConsApp(const Expr *E, const Expr *&Head,
                                   const Expr *&Tail);

/// Calls \p Visit on every allocation site under \p E, in preorder, with
/// its primitive. A site is the node the engines tag its cells with: the
/// outermost AppExpr of a saturated cons/mkpair/dcons spine, or the
/// PrimExpr of an allocating primitive used first-class (partially
/// applied or passed around).
void forEachAllocSite(const Expr *E,
                      const std::function<void(const Expr *, PrimOp)> &Visit);

} // namespace eal

#endif // EAL_LANG_ASTUTILS_H
