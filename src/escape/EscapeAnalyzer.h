//===- EscapeAnalyzer.h - Abstract escape interpreter -----------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract escape semantics of §3.4, evaluated by a memoizing
/// fixpoint interpreter, plus the global escape test G (§4.1) and local
/// escape test L (§4.2).
///
/// Evaluation strategy: closure applications, keyed by (closure atom,
/// argument value), and letrec bindings are memoized as entries of the
/// fixpoint solver shared with the liveness analysis (explain/Fixpoint.h).
/// A cache miss starts from ⊥, which breaks recursive cycles; the whole
/// query is then re-evaluated in rounds until no entry changes. The
/// entries of a converged query's last round are then final, so later
/// queries evaluate only entries no earlier query settled. All
/// abstract operators are monotone and the value space reachable from a
/// program is finite, so the iteration terminates (§3.5); the solver's
/// round budget guards against bugs.
///
/// One program shape escapes that finiteness argument: a recursive
/// function that *rebuilds* a function argument at every call
/// (`g (cdr l) (compose f h)`) manufactures a strictly growing chain of
/// distinct closures, so each recursive application is a fresh cache key
/// and the ⊥-seeded cycle brake never engages. A depth budget on nested
/// closure applications detects the runaway chain and widens the closure
/// to its worst-case function W^τ (Definition 2) joined with its captured
/// ground — above anything the closure can do, so the result stays sound,
/// merely conservative (see wideningCount()).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_ESCAPE_ESCAPEANALYZER_H
#define EAL_ESCAPE_ESCAPEANALYZER_H

#include "escape/EscapeValue.h"
#include "explain/Fixpoint.h"
#include "types/TypeInference.h"

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace eal {

class DiagnosticEngine;

/// The outcome of one escape test on one parameter.
struct ParamEscape {
  Symbol Function;
  unsigned ParamIndex = 0; ///< 0-based
  const Type *ParamType = nullptr;
  /// Spine count s_i of the parameter's type.
  unsigned ParamSpines = 0;
  /// The test result: ⟨0,0⟩ or ⟨1,k⟩.
  BasicEscape Escape;
  /// Why-provenance: the Query fact this verdict was derived under, when
  /// a recorder was attached (explain::NoFact otherwise).
  uint32_t Prov = explain::NoFact;

  /// True if any part of the parameter may escape.
  bool escapes() const { return Escape.isContained(); }

  /// The k of ⟨1,k⟩: how many bottom spines may escape (0 both for
  /// non-escaping parameters and for escaping non-list parameters).
  unsigned escapingSpines() const { return Escape.spines(); }

  /// The polymorphically invariant quantity s_i − k: how many top spines
  /// can never escape (they may be stack allocated or reused). For an
  /// escaping non-list parameter this is 0; for a non-escaping parameter
  /// it is the full spine count.
  unsigned protectedTopSpines() const {
    if (!Escape.isContained())
      return ParamSpines;
    return ParamSpines - Escape.spines();
  }
};

/// Global escape results for one function.
struct FunctionEscape {
  Symbol Name;
  const Type *FunctionType = nullptr;
  unsigned Arity = 0;
  /// Spine count of the (fully applied) result type.
  unsigned ResultSpines = 0;
  std::vector<ParamEscape> Params;
};

/// Global escape results for a whole program, plus analysis statistics.
struct ProgramEscapeReport {
  std::vector<FunctionEscape> Functions;
  unsigned FixpointRounds = 0;
  size_t ApplyCacheEntries = 0;
  size_t DistinctValues = 0;

  const FunctionEscape *find(Symbol Name) const {
    for (const FunctionEscape &F : Functions)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// One recorded fixpoint iterate of a letrec binding (the append^(k) of
/// Appendix A.1).
struct FixpointTraceEntry {
  Symbol Binding;
  unsigned Round = 0;
  /// Rendered value after this round ("<1,0>", "<0,0>+fn(1)", ...).
  std::string Value;
  bool Changed = false;
};

/// Analysis granularity.
enum class EscapeAnalysisMode {
  /// The paper's contribution: lists graded per spine (car^s strips).
  SpineAware,
  /// The baseline of the authors' earlier work (ESOP'90, the paper's
  /// reference [10]): objects are indivisible — if any part of a list
  /// may escape, the whole list escapes. Implemented by treating every
  /// type as spineless (car is the identity, s_i = 0), which is exactly
  /// what the paper's abstract domain degenerates to at d = 0.
  WholeObject,
};

/// A saturated call of a top-level function binding: the call sites whose
/// arguments the optimizer and its checkers grade (§4.2).
struct TopLevelCall {
  /// Outermost AppExpr of the call spine.
  const Expr *Node = nullptr;
  /// The callee's top-level binding (a lambda of arity Args.size()).
  const LetrecBinding *Callee = nullptr;
  std::vector<const Expr *> Args;
};

/// Evaluates the abstract escape semantics over one typed program and
/// answers escape queries.
class EscapeAnalyzer {
public:
  /// \p MaxRounds bounds the outer fixpoint iteration; exceeding it is
  /// reported as an error and answered conservatively.
  EscapeAnalyzer(const AstContext &Ast, const TypedProgram &Program,
                 DiagnosticEngine &Diags, unsigned MaxRounds = 512,
                 EscapeAnalysisMode Mode = EscapeAnalysisMode::SpineAware);

  //===--- Queries --------------------------------------------------------==//

  /// The global escape test G(f, i) (§4.1): how much of the (0-based)
  /// \p ParamIndex-th parameter of top-level function \p Fn may escape in
  /// *any* application. Returns nullopt if \p Fn is not a top-level
  /// binding or has fewer parameters.
  std::optional<ParamEscape> globalEscape(Symbol Fn, unsigned ParamIndex);

  /// The local escape test L(f, i, e1...en) (§4.2) for the application
  /// expression \p CallSite (which must be an application spine located
  /// in the top-level scope). Arguments' function components come from
  /// the actual argument expressions, so the result is at least as
  /// precise as the global test.
  std::optional<ParamEscape> localEscape(const Expr *CallSite,
                                         unsigned ParamIndex);

  /// The local test for a call site *inside* a function body: free
  /// variables that are not top-level bindings (the enclosing function's
  /// parameters and lets) are bound to ⟨⟨0,0⟩, W^τ⟩ — they are not the
  /// interesting object, and their behaviour is worst-cased, which is
  /// exactly the env_e discipline of §4.2. Sound in any context; at
  /// least as precise as the global test on the callee.
  std::optional<ParamEscape> localEscapeInContext(const Expr *CallSite,
                                                  unsigned ParamIndex);

  /// Runs the global test on every parameter of every top-level function
  /// binding.
  ProgramEscapeReport analyzeProgram();

  //===--- Call-site verdicts ----------------------------------------------==//
  // The one rule by which the allocation planner, the site classifier and
  // the escape oracle's claim table grade call arguments.

  /// Describes \p Node if it is a saturated call of a top-level function
  /// binding: a variable callee naming the binding, applied to exactly
  /// as many arguments as the binding has leading lambdas.
  std::optional<TopLevelCall> topLevelCall(const Expr *Node);

  /// Visits every saturated top-level call, preorder, in each top-level
  /// binding's value and then in the program body.
  void forEachTopLevelCall(
      const std::function<void(const TopLevelCall &)> &Visit);

  /// The verdict on argument \p ArgIndex of \p Call: the local test L when
  /// every free variable of the call is a top-level binding (its
  /// arguments are evaluated in the top-level environment), the in-context
  /// variant for a call inside a function body, and the global test G when
  /// either gives up. Nullopt for an argument without list spines: there
  /// is nothing to grade. Memoized per (call, argument), so every client
  /// of one analyzer sees the verdicts, and provenance facts, of the first.
  std::optional<ParamEscape> callEscape(const TopLevelCall &Call,
                                        unsigned ArgIndex);

  /// Evaluates \p E in the top-level environment and returns its value.
  /// Exposed for tests and for clients composing custom queries.
  ValueId evaluate(const Expr *E);

  //===--- Introspection ---------------------------------------------------==//

  const ValueStore &store() const { return Store; }
  /// Rounds taken by the most recent query's fixpoint loop.
  unsigned lastRounds() const { return Solver.rounds(); }
  /// Total closure-application cache entries discovered so far.
  size_t applyCacheSize() const { return ApplyCache.size(); }
  /// True if some query exceeded the round budget (results are then
  /// conservative).
  bool hitIterationLimit() const { return Solver.budgetHit(); }

  /// Number of closure applications widened to W^τ because nested
  /// application depth exceeded the budget (higher-order recursion
  /// building ever-larger closures). Zero on every paper program; a
  /// positive count means the analysis stayed sound by worst-casing the
  /// runaway chain.
  unsigned wideningCount() const { return Widenings; }

  /// Closure-body and letrec-binding evaluations so far, over every
  /// query (the work the fixpoint does; also exported as the
  /// escape.body_evals metric). Final entries are not evaluated again.
  uint64_t bodyEvalCount() const { return Solver.evaluations(); }

  /// Enables recording of per-binding fixpoint iterates (Appendix A.1
  /// style); call before queries.
  void enableTracing() { Tracing = true; }
  const std::vector<FixpointTraceEntry> &trace() const { return Trace; }
  /// Renders the recorded trace as "name^(k) = value" lines.
  std::string renderTrace() const;

  /// Per-round counts of cache entries that moved up the lattice during
  /// the most recent query (recorded while tracing is enabled; one entry
  /// per fixpoint round, the final stable round counting 0).
  const std::vector<unsigned> &roundChanges() const { return RoundChanges; }

  /// Attaches a why-provenance recorder (docs/EXPLAIN.md): subsequent
  /// queries record Binding/Apply/Query facts and their derivation
  /// edges, and fill ParamEscape::Prov. Null detaches. The recorder must
  /// outlive the analyzer. Attach before the first query: while one is
  /// attached no entry becomes final, but entries made final before are
  /// not derived again.
  void attachProvenance(explain::ProvenanceRecorder *P);
  explain::ProvenanceRecorder *provenance() const {
    return Solver.provenance();
  }

private:
  /// The escape domain as the solver's lattice: values interned, joined
  /// and rendered by the store.
  struct ValueLattice {
    using Value = ValueId;
    ValueStore *Store;
    ValueId join(ValueId A, ValueId B) const { return Store->joinValues(A, B); }
    std::string render(ValueId V) const { return Store->str(V); }
  };
  using Fixpoint = explain::FixpointSolver<ValueLattice>;

  //===--- Abstract evaluation ---------------------------------------------==//

  ValueId eval(const Expr *E, EnvId Env);
  ValueId apply(ValueId Fn, ValueId Arg);
  ValueId applyAtom(FnAtomId Atom, ValueId Arg);
  ValueId applyPrim(const FnAtom &Atom, ValueId Arg);
  ValueId applyWorst(const FnAtom &Atom, ValueId Arg);

  /// Value of binding #Index of \p Inst (memoized, ⊥-seeded).
  ValueId materializeBinding(LetrecInstId Inst, uint32_t Index);

  /// Resolves an environment binding to a value.
  ValueId resolveBinding(const EnvBinding &Binding);

  /// The environment inside \p Inst's letrec: outer env plus letrec
  /// references for every binding.
  EnvId letrecBodyEnv(LetrecInstId Inst);

  /// Runs one escape test under its Query fact at \p Site: solves
  /// Callee() applied to Arg(j, ground) for j < \p Arity to fixpoint,
  /// where parameter \p ParamIndex (of type \p ParamType) carries
  /// ⟨1,s_i⟩ and every other argument ⟨0,0⟩, and grades the ground of
  /// the result (all-or-nothing in whole-object mode).
  template <class LabelFn, class CalleeFn, class ArgFn>
  ParamEscape escapeTest(const Fixpoint::FactSite &Site, LabelFn &&Label,
                         Symbol Fn, unsigned ParamIndex, const Type *ParamType,
                         unsigned Arity, CalleeFn &&Callee, ArgFn &&Arg);

  /// Shared implementation of the two local tests.
  std::optional<ParamEscape> localEscapeUnder(const Expr *CallSite,
                                              unsigned ParamIndex, EnvId Env);

  /// Ground join of the free variables of \p Lambda (the V of §3.4).
  BasicEscape closureGround(const LambdaExpr *Lambda, EnvId Env);

  /// Cached free-variable sets per node.
  const std::vector<Symbol> &freeVarsOf(const Expr *E);

  /// Runs \p Root() to fixpoint (monotone rounds until no cache entry
  /// changes); past the round budget, reports an error and returns the
  /// last round's (conservative) value.
  template <class RootFn> ValueId runToFixpoint(RootFn &&Root);

  /// The top-level environment (letrec bindings if the program root is a
  /// letrec, empty otherwise) and its instantiation id, built on demand.
  EnvId topEnv();

  /// Splits an n-ary function type into parameter types.
  std::vector<const Type *> paramTypes(const Type *FnType, unsigned Arity);

  /// Spine count of \p T under the current analysis mode.
  unsigned modeSpineCount(const Type *T) const;

  const AstContext &Ast;
  const TypedProgram &Program;
  DiagnosticEngine &Diags;
  EscapeAnalysisMode Mode;

  ValueStore Store;
  Fixpoint Solver;
  /// (closure atom, arg) -> result, ⊥-seeded.
  std::unordered_map<uint64_t, Fixpoint::Entry> ApplyCache;
  /// (letrec inst, binding index) -> value, ⊥-seeded.
  std::unordered_map<uint64_t, Fixpoint::Entry> BindingCache;
  std::unordered_map<uint32_t, std::vector<Symbol>> FreeVarCache;
  /// (call node, argument) -> callEscape verdict.
  std::unordered_map<uint64_t, std::optional<ParamEscape>> CallVerdicts;

  /// Nesting depth of in-flight closure applications, and the budget
  /// past which applyAtom widens instead of evaluating the body. The
  /// budget bounds C++ recursion, not fixpoint rounds: only a chain of
  /// *distinct* (closure, argument) keys can nest this deep, and any
  /// program whose abstract closures are finitely many stays far below
  /// it (Appendix A tops out below ten).
  unsigned ApplyDepth = 0;
  static constexpr unsigned MaxApplyDepth = 128;
  unsigned Widenings = 0;

  bool Tracing = false;
  std::vector<FixpointTraceEntry> Trace;
  std::vector<unsigned> RoundChanges;

  /// The namespaces keeping this analyzer's provenance keys apart from
  /// other attachees' (the recorder itself is the solver's). Fact kinds
  /// already separate bindings, applications and queries; the L queries
  /// need their own, as their keys are node ids, not symbols.
  uint32_t ProvNs = 0;
  uint32_t ProvLocalNs = 0;

  std::optional<EnvId> CachedTopEnv;
};

/// Renders \p Report as the paper's Appendix-A style table (one line per
/// parameter: function, parameter, type, G result, interpretation).
std::string renderEscapeReport(const AstContext &Ast,
                               const ProgramEscapeReport &Report);

} // namespace eal

#endif // EAL_ESCAPE_ESCAPEANALYZER_H
