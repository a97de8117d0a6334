//===- Provenance.h - Why-provenance for escape facts -----------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recorder for *why*-provenance of analysis facts (docs/EXPLAIN.md).
/// Every lattice join that raises a cached escape value, every escape
/// query, every Theorem 2 sharing derivation, and every optimizer
/// decision can register a Fact; edges between facts say which prior
/// facts were consumed to derive each one. The resulting graph is what
/// `eal explain` walks to print blame chains from an allocation site to
/// the program point that forces heap residency.
///
/// Cost discipline (same as eal::obs): producers hold a
/// `ProvenanceRecorder *` that is null unless explanation was requested,
/// and guard every recording site with one pointer test. With the
/// recorder detached there is zero provenance allocation.
///
/// Recording protocol of a memoizing fixpoint evaluator:
///
///   uint32_t F = P->lookup(Kind, Ns, Key);       // hot path: no strings
///   if (F == NoFact)
///     F = P->create(Kind, Ns, Key, label, eq, loc);
///   P->read(F);            // the innermost open fact consumed F
///   if (cache hit) return; // reads alone still build edges
///   P->open(F);
///   ... evaluate; nested lookups call read() into F's frame ...
///   if (value moved up the lattice)
///     P->raise(F, Round, renderedValue);         // snapshots frame reads
///   P->result(F, renderedValue);
///   P->close(F);
///
/// Its one caller is explain::FixpointSolver (explain/Fixpoint.h), the
/// solver that the escape and liveness analyses share. Other producers
/// only look up or create facts, add edges and set results.
///
/// Keys are caller-chosen 64-bit cache keys; a namespace (allocated per
/// attached analysis with allocNamespace()) keeps the key spaces of
/// independent analyzers — e.g. the optimizer's base and final escape
/// passes — from colliding.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_EXPLAIN_PROVENANCE_H
#define EAL_EXPLAIN_PROVENANCE_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace eal {

namespace obs {
class MetricsRegistry;
}

namespace explain {

/// Sentinel fact id: "no provenance recorded".
constexpr uint32_t NoFact = ~0u;

/// What kind of derivation a fact stands for.
enum class FactKind : uint8_t {
  Binding,  ///< a letrec binding's fixpoint iterate (append^(k), A.1)
  Apply,    ///< one (closure, argument) apply-cache entry (§3.4)
  Query,    ///< a top-level escape test: G (§4.1) or L (§4.2)
  Sharing,  ///< a Theorem 2 sharing derivation
  Decision, ///< an optimizer decision (arena directive, reuse version)
  Finding,  ///< a check finding anchored into the graph
  Liveness, ///< a heap-liveness fact: a summary or site demand (eal::live)
  /// A speculative re-classification (src/spec): the spec planner bet
  /// that a profile-cold branch never runs, re-ran the escape analysis
  /// on the branch-pruned program, and planted a guarded arena
  /// directive. Depends on the guarded Decision fact and cites the
  /// profile evidence in its label (docs/SPECULATION.md).
  Speculation,
};

/// Returns "binding" / "apply" / "query" / "sharing" / "decision" /
/// "finding" / "liveness" / "speculation".
const char *factKindName(FactKind K);

/// One lattice raise of a fact: the fixpoint round it happened in, the
/// rendered value after the join, and the facts consumed computing it.
struct RaiseEvent {
  unsigned Round = 0;
  std::string Value;
  std::vector<uint32_t> Deps;
};

/// One node of the provenance graph.
struct Fact {
  FactKind Kind = FactKind::Binding;
  /// Display name: "append", "G(append, 2)", "apply(<1,1>)", ...
  std::string Label;
  /// The equation/rule applied: "letrec-fix (§3.5)", "G (§4.1)", ...
  std::string Equation;
  SourceLoc Loc;
  /// Final rendered value (set by result()).
  std::string Result;
  std::vector<RaiseEvent> Raises;
  /// Union of every fact ever consumed while deriving this one.
  std::vector<uint32_t> Deps;
};

/// Records facts and their derivation edges. Not thread-safe (analyses
/// are single-threaded).
class ProvenanceRecorder {
public:
  /// Allocates a fresh namespace for one attached analysis.
  uint32_t allocNamespace() { return ++LastNamespace; }

  /// Finds the fact previously created under (Kind, Ns, Key); NoFact if
  /// none. Allocation-free: safe on cache-hit hot paths.
  uint32_t lookup(FactKind K, uint32_t Ns, uint64_t Key) const;

  /// Creates (and indexes) a fact under (Kind, Ns, Key). The key must
  /// not already be present.
  uint32_t create(FactKind K, uint32_t Ns, uint64_t Key, std::string Label,
                  std::string Equation, SourceLoc Loc);

  /// Creates an unkeyed fact (optimizer decisions, findings).
  uint32_t fresh(FactKind K, std::string Label, std::string Equation,
                 SourceLoc Loc);

  /// Pushes \p F as the innermost open fact: nested read()s accrue to it.
  void open(uint32_t F);
  /// Pops \p F (must be the innermost open fact) and folds its remaining
  /// reads into its dependency set.
  void close(uint32_t F);
  /// Records that the innermost open fact consumed \p F. No-op with no
  /// open fact, for self-reads, and for NoFact.
  void read(uint32_t F);
  /// Records a lattice raise of the innermost open fact \p F, capturing
  /// the reads of its frame so far as the raise's dependencies.
  void raise(uint32_t F, unsigned Round, std::string Value);
  /// Sets the final rendered value of \p F.
  void result(uint32_t F, std::string Value);
  /// Adds an explicit derivation edge From -> To ("From consumed To").
  void depend(uint32_t From, uint32_t To);

  const std::vector<Fact> &facts() const { return Facts; }
  const Fact &fact(uint32_t F) const { return Facts[F]; }
  size_t numFacts() const { return Facts.size(); }
  size_t numEdges() const { return EdgeCount; }
  size_t numRaises() const { return RaiseCount; }
  /// Length of the longest acyclic dependency chain (1 for a lone fact;
  /// 0 for an empty graph). Cycles — mutually recursive bindings — are
  /// cut at the back edge.
  unsigned maxDepth() const;

  /// Publishes graph size/depth as explain.* counters.
  void exportTo(obs::MetricsRegistry &Reg) const;

private:
  struct Frame {
    uint32_t FactId = NoFact;
    std::vector<uint32_t> Reads;
  };

  void addDep(Fact &F, uint32_t Dep);
  unsigned depthOf(uint32_t F, std::vector<uint8_t> &State,
                   std::vector<unsigned> &Memo) const;

  std::vector<Fact> Facts;
  std::vector<Frame> Stack;
  /// (Kind<<32 | Ns) -> Key -> fact id.
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint32_t>> Index;
  uint32_t LastNamespace = 0;
  size_t EdgeCount = 0;
  size_t RaiseCount = 0;
};

} // namespace explain
} // namespace eal

#endif // EAL_EXPLAIN_PROVENANCE_H
