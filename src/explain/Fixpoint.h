//===- Fixpoint.h - The memoized fixpoint solver ----------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoized fixpoint of §3.5, shared by the escape analysis
/// (src/escape) and the heap-liveness analysis (src/live); see
/// docs/INTERNALS.md §3. A client keeps memo tables of Entry, each
/// created at ⊥, and supplies only its evaluation step and its response
/// to a budget hit. With a ProvenanceRecorder attached, the solver is the
/// one caller of the recorder's fixpoint protocol (Provenance.h).
///
/// \c Lattice supplies `using Value` (comparable with ==),
/// `Value join(const Value &, const Value &)` and
/// `std::string render(const Value &)` for provenance.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_EXPLAIN_FIXPOINT_H
#define EAL_EXPLAIN_FIXPOINT_H

#include "explain/Provenance.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace eal {
namespace explain {

template <class Lattice> class FixpointSolver {
public:
  using Value = typename Lattice::Value;

  /// One memoized unknown. The client creates it with Val at ⊥; from
  /// then on only the solver writes it. It must not move while the
  /// solver may list it (until the next round starts).
  struct Entry {
    Value Val{};
    unsigned Round = 0; ///< round stamp of the last evaluation
    bool InProgress = false;
    bool Stable = false; ///< final: read without evaluating (freezeLastRound)
  };

  /// Where the provenance fact of an entry or a query lives, and the
  /// equation and location it is created with on first sight.
  struct FactSite {
    FactKind Kind;
    uint32_t Ns;
    uint64_t Key;
    const char *Equation;
    SourceLoc Loc;
  };

  /// \p MaxRounds bounds the rounds of each query.
  FixpointSolver(Lattice L, unsigned MaxRounds)
      : L(std::move(L)), MaxRounds(MaxRounds) {}

  /// Null detaches. The recorder must outlive the solver's queries.
  void attachProvenance(ProvenanceRecorder *P) { Prov = P; }
  ProvenanceRecorder *provenance() const { return Prov; }

  /// The entry protocol. Reads \p E, whose fact is at \p Site (labelled
  /// by \p Label() on first sight). Unless \p E is stable, in progress
  /// (a recursive cycle) or was evaluated this round already, runs
  /// \p Evaluate(fact id), joins its value into E.Val and raises the fact
  /// if E.Val rose. Returns nullopt when the memoized value stood, else
  /// whether it rose.
  template <class LabelFn, class EvaluateFn>
  std::optional<bool> evaluate(Entry &E, const FactSite &Site,
                               LabelFn &&Label, EvaluateFn &&Evaluate) {
    uint32_t F = readFact(Site, Label);
    if (E.Stable || E.InProgress || E.Round == Stamp)
      return std::nullopt;
    E.Round = Stamp;
    RoundEntries.push_back(&E);
    E.InProgress = true;
    if (Prov)
      Prov->open(F);
    ++Evaluations;
    Value New = Evaluate(F);
    Value Joined = L.join(E.Val, New);
    bool Rose = !(Joined == E.Val);
    if (Rose) {
      E.Val = std::move(Joined);
      Changed = true;
      ++Raises;
    }
    if (Prov && Rose)
      Prov->raise(F, Rounds, L.render(E.Val));
    closeFact(F, [&] { return L.render(E.Val); });
    E.InProgress = false;
    return Rose;
  }

  /// Opens the fact of a query, which has no entry: looked up or created,
  /// read by the innermost open fact, then opened so that the query's
  /// reads accrue to it. NoFact without a recorder.
  template <class LabelFn>
  uint32_t openFact(const FactSite &Site, LabelFn &&Label) {
    uint32_t F = readFact(Site, Label);
    if (Prov)
      Prov->open(F);
    return F;
  }

  /// Closes the innermost open fact \p F with its rendered result.
  template <class RenderFn> void closeFact(uint32_t F, RenderFn &&Render) {
    if (!Prov)
      return;
    Prov->result(F, Render());
    Prov->close(F);
  }

  /// The round driver. Runs \p Round() until no entry rose and nothing
  /// called markChanged(). Returns false, and records a budget hit, when
  /// the query still changed in round MaxRounds; entries keep the values
  /// of that round.
  template <class RoundFn> bool run(RoundFn &&Round) {
    Rounds = 0;
    do {
      Changed = false;
      Raises = 0;
      RoundEntries.clear();
      if (++Rounds > MaxRounds) {
        BudgetHit = true;
        return false;
      }
      ++Stamp;
      Round();
    } while (Changed);
    return true;
  }

  /// Forces another round: client state outside the memo tables rose.
  void markChanged() { Changed = true; }

  /// Marks the entries evaluated in the latest round stable. Sound after
  /// run() returned true when every evaluation step read only memo
  /// entries: nothing rose in that round, so those entries read only each
  /// other or stable ones, and sit at the least fixpoint of that closed
  /// system, which later queries (adding only new entries) cannot raise.
  /// A client with state outside the memo tables (markChanged()) must not
  /// call it. After a budget hit the list is empty: nothing is frozen.
  void freezeLastRound() {
    for (Entry *E : RoundEntries)
      E->Stable = true;
    RoundEntries.clear();
  }

  /// Rounds of the latest query, counting the one a budget hit refused.
  unsigned rounds() const { return Rounds; }
  /// Rounds evaluated over every query.
  unsigned totalRounds() const { return Stamp; }
  /// Entries that rose in the latest round.
  unsigned roundRaises() const { return Raises; }
  /// True once any query ran out of rounds.
  bool budgetHit() const { return BudgetHit; }
  /// Entry evaluations over every query.
  uint64_t evaluations() const { return Evaluations; }
  unsigned maxRounds() const { return MaxRounds; }

private:
  /// Looks up or creates the fact at \p Site; the innermost open fact
  /// reads it.
  template <class LabelFn>
  uint32_t readFact(const FactSite &Site, LabelFn &Label) {
    if (!Prov)
      return NoFact;
    uint32_t F = Prov->lookup(Site.Kind, Site.Ns, Site.Key);
    if (F == NoFact)
      F = Prov->create(Site.Kind, Site.Ns, Site.Key, Label(), Site.Equation,
                       Site.Loc);
    Prov->read(F);
    return F;
  }

  Lattice L;
  unsigned MaxRounds;
  ProvenanceRecorder *Prov = nullptr;
  /// The entries evaluated in the current round.
  std::vector<Entry *> RoundEntries;
  unsigned Stamp = 0;
  unsigned Rounds = 0;
  unsigned Raises = 0;
  bool Changed = false;
  bool BudgetHit = false;
  uint64_t Evaluations = 0;
};

} // namespace explain
} // namespace eal

#endif // EAL_EXPLAIN_FIXPOINT_H
