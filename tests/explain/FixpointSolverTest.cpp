//===- FixpointSolverTest.cpp - the memoized fixpoint solver ---------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The solver behind both the escape and the liveness analysis, driven
// over tiny synthetic equation systems on the naturals under max: ⊥-seeded
// recursion, once-per-round evaluation, convergence of mutual
// recursion, changes flagged from outside the memo table, the round
// budget, stable entries frozen after a converged query, and the
// provenance it records.
//
//===----------------------------------------------------------------------===//

#include "explain/Fixpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

using namespace eal;
using namespace eal::explain;

namespace {

/// The naturals ordered by ≤, joined by max.
struct MaxLattice {
  using Value = unsigned;
  unsigned join(unsigned A, unsigned B) const { return std::max(A, B); }
  std::string render(unsigned V) const { return std::to_string(V); }
};

using Solver = FixpointSolver<MaxLattice>;

/// Unknowns x0..xn-1 with one equation each; an equation reads other
/// unknowns through get(), the way an analysis reads its memo table.
class EquationSystem {
public:
  explicit EquationSystem(size_t N, unsigned MaxRounds = 64)
      : S(MaxLattice{}, MaxRounds), Entries(N), Equations(N), Evals(N) {}

  unsigned get(unsigned I) {
    S.evaluate(
        Entries[I],
        {FactKind::Binding, Ns, I, "test equation", SourceLoc::invalid()},
        [&] { return std::string("x").append(std::to_string(I)); },
        [&](uint32_t) {
          ++Evals[I];
          return Equations[I]();
        });
    return Entries[I].Val;
  }

  Solver S;
  std::vector<Solver::Entry> Entries;
  std::vector<std::function<unsigned()>> Equations;
  std::vector<unsigned> Evals;
  uint32_t Ns = 0;
};

TEST(FixpointSolver, SelfRecursionReadsBottomAndReachesLeastFixpoint) {
  // x0 = min(x0 + 1, 3): the recursive read answers the value of the
  // previous round (⊥ = 0 in the first), so x0 climbs 1, 2, 3 and a
  // fourth round confirms that nothing rose.
  EquationSystem Sys(1);
  std::vector<unsigned> InnerReads;
  Sys.Equations[0] = [&] {
    unsigned X = Sys.get(0);
    InnerReads.push_back(X);
    return std::min(X + 1, 3u);
  };
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_EQ(Sys.Entries[0].Val, 3u);
  EXPECT_EQ(InnerReads, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(Sys.S.rounds(), 4u);
  EXPECT_EQ(Sys.S.totalRounds(), 4u);
  EXPECT_EQ(Sys.Evals[0], 4u);
  EXPECT_EQ(Sys.S.evaluations(), 4u);
  EXPECT_FALSE(Sys.S.budgetHit());
}

TEST(FixpointSolver, EntryIsEvaluatedAtMostOncePerRound) {
  // x0 reads x1 twice and the root reads both: x1 still runs once per
  // round, the later reads answer its memoized value.
  EquationSystem Sys(2);
  Sys.Equations[0] = [&] { return Sys.get(1) + Sys.get(1); };
  Sys.Equations[1] = [] { return 5u; };
  std::vector<unsigned> RaisesPerRound;
  EXPECT_TRUE(Sys.S.run([&] {
    Sys.get(0);
    Sys.get(1);
    RaisesPerRound.push_back(Sys.S.roundRaises());
  }));
  EXPECT_EQ(Sys.Entries[0].Val, 10u);
  EXPECT_EQ(Sys.S.rounds(), 2u);
  EXPECT_EQ(Sys.Evals[0], 2u);
  EXPECT_EQ(Sys.Evals[1], 2u);
  EXPECT_EQ(RaisesPerRound, (std::vector<unsigned>{2, 0}));
}

TEST(FixpointSolver, MutualRecursionConverges) {
  // x0 = min(x1 + 1, 4), x1 = x0: least fixpoint x0 = x1 = 4. x0 rises
  // in rounds 1-4, x1 catches up in round 5, round 6 is stable.
  EquationSystem Sys(2);
  Sys.Equations[0] = [&] { return std::min(Sys.get(1) + 1, 4u); };
  Sys.Equations[1] = [&] { return Sys.get(0); };
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_EQ(Sys.Entries[0].Val, 4u);
  EXPECT_EQ(Sys.Entries[1].Val, 4u);
  EXPECT_EQ(Sys.S.rounds(), 6u);
}

TEST(FixpointSolver, ChangeFlaggedOutsideTheTableForcesAnotherRound) {
  // x0 is constant and stable after round 1, but state outside the memo
  // table rises in rounds 1 and 2: only round 3 may end the query.
  EquationSystem Sys(1);
  Sys.Equations[0] = [] { return 7u; };
  unsigned Outside = 0;
  EXPECT_TRUE(Sys.S.run([&] {
    Sys.get(0);
    if (Outside < 2) {
      ++Outside;
      Sys.S.markChanged();
    }
  }));
  EXPECT_EQ(Outside, 2u);
  EXPECT_EQ(Sys.S.rounds(), 3u);
  EXPECT_EQ(Sys.Evals[0], 3u);
}

TEST(FixpointSolver, BudgetHitAfterMaxRoundsKeepsLastValue) {
  // x0 = x0 + 1 never converges. With a budget of 3 the solver
  // evaluates exactly three rounds, refuses the fourth, and leaves x0
  // at the third round's value.
  EquationSystem Sys(1, /*MaxRounds=*/3);
  Sys.Equations[0] = [&] { return Sys.get(0) + 1; };
  EXPECT_FALSE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_TRUE(Sys.S.budgetHit());
  EXPECT_EQ(Sys.S.totalRounds(), 3u);
  EXPECT_EQ(Sys.Evals[0], 3u);
  EXPECT_EQ(Sys.Entries[0].Val, 3u);
  EXPECT_EQ(Sys.S.rounds(), 4u) << "the refused round counts";

  // The hit is sticky: a later query that converges does not clear it.
  EquationSystem Fresh(1, /*MaxRounds=*/3);
  Fresh.Equations[0] = [] { return 1u; };
  EXPECT_TRUE(Fresh.S.run([&] { Fresh.get(0); }));
  EXPECT_FALSE(Fresh.S.budgetHit());
  Sys.Equations[0] = [] { return 0u; };
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_TRUE(Sys.S.budgetHit());
}

TEST(FixpointSolver, StableEntryIsNeverEvaluatedAgain) {
  // Query A solves x0 = min(x0 + 1, 3) in 4 rounds and freezes x0.
  // Query B (x1 = x0 + 5) and a repeat of A read x0 without evaluating it.
  EquationSystem Sys(2);
  Sys.Equations[0] = [&] { return std::min(Sys.get(0) + 1, 3u); };
  Sys.Equations[1] = [&] { return Sys.get(0) + 5; };
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  Sys.S.freezeLastRound();
  EXPECT_TRUE(Sys.Entries[0].Stable);
  EXPECT_EQ(Sys.Evals[0], 4u);
  EXPECT_EQ(Sys.S.evaluations(), 4u);

  EXPECT_TRUE(Sys.S.run([&] { Sys.get(1); }));
  EXPECT_EQ(Sys.Entries[1].Val, 8u);
  EXPECT_EQ(Sys.Evals[0], 4u) << "a stable entry answers its value";
  EXPECT_EQ(Sys.Evals[1], 2u);
  EXPECT_EQ(Sys.S.evaluations(), 6u);

  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_EQ(Sys.S.rounds(), 1u);
  EXPECT_EQ(Sys.Evals[0], 4u);
  EXPECT_EQ(Sys.S.evaluations(), 6u);
  EXPECT_FALSE(Sys.Entries[1].Stable) << "query B was not frozen";
}

TEST(FixpointSolver, BudgetHitQueryFreezesNothing) {
  // x0 = x0 + 1 runs out of rounds; freezing afterwards marks nothing, so
  // a later query evaluates x0 again.
  EquationSystem Sys(1, /*MaxRounds=*/3);
  Sys.Equations[0] = [&] { return Sys.get(0) + 1; };
  EXPECT_FALSE(Sys.S.run([&] { Sys.get(0); }));
  Sys.S.freezeLastRound();
  EXPECT_FALSE(Sys.Entries[0].Stable);

  Sys.Equations[0] = [] { return 0u; };
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  EXPECT_EQ(Sys.Evals[0], 4u)
      << "three rounds before the budget hit, one after";
  EXPECT_EQ(Sys.Entries[0].Val, 3u);
}

TEST(FixpointSolver, ProvenanceRecordsQueryLocalRaisesAndReadDeps) {
  ProvenanceRecorder P;
  EquationSystem Sys(2);
  Sys.S.attachProvenance(&P);
  Sys.Ns = P.allocNamespace();
  uint32_t QueryNs = P.allocNamespace();
  // Query A: x0 = min(x0 + 1, 2). Query B: x1 = x0 + 5, asked after A.
  Sys.Equations[0] = [&] { return std::min(Sys.get(0) + 1, 2u); };
  Sys.Equations[1] = [&] { return Sys.get(0) + 5; };
  auto Query = [&](uint64_t Key, unsigned Unknown) {
    uint32_t QF = Sys.S.openFact(
        {FactKind::Query, QueryNs, Key, "test query", SourceLoc::invalid()},
        [&] { return std::string("q").append(std::to_string(Key)); });
    EXPECT_TRUE(Sys.S.run([&] { Sys.get(Unknown); }));
    Sys.S.closeFact(QF, [] { return std::string("done"); });
    return QF;
  };
  uint32_t QA = Query(0, 0);
  uint32_t QB = Query(1, 1);
  EXPECT_EQ(Sys.S.totalRounds(), 5u) << "A: 3 rounds, B: 2 rounds";

  uint32_t X0 = P.lookup(FactKind::Binding, Sys.Ns, 0);
  uint32_t X1 = P.lookup(FactKind::Binding, Sys.Ns, 1);
  ASSERT_NE(X0, NoFact);
  ASSERT_NE(X1, NoFact);
  EXPECT_EQ(P.fact(X0).Label, "x0");
  EXPECT_EQ(P.fact(X0).Result, "2");
  EXPECT_EQ(P.fact(X1).Result, "7");
  EXPECT_EQ(P.fact(QA).Result, "done");

  // Raises carry the round of their own query, not the solver's total.
  ASSERT_EQ(P.fact(X0).Raises.size(), 2u);
  EXPECT_EQ(P.fact(X0).Raises[0].Round, 1u);
  EXPECT_EQ(P.fact(X0).Raises[1].Round, 2u);
  ASSERT_EQ(P.fact(X1).Raises.size(), 1u);
  EXPECT_EQ(P.fact(X1).Raises[0].Round, 1u);

  // Reads become dependencies: of the raise that consumed them, of the
  // reading entry, and of the query whose root read the entry.
  auto Has = [](const std::vector<uint32_t> &Deps, uint32_t F) {
    return std::find(Deps.begin(), Deps.end(), F) != Deps.end();
  };
  EXPECT_TRUE(Has(P.fact(X1).Raises[0].Deps, X0));
  EXPECT_TRUE(Has(P.fact(X1).Deps, X0));
  EXPECT_TRUE(Has(P.fact(QA).Deps, X0));
  EXPECT_TRUE(Has(P.fact(QB).Deps, X1));
  EXPECT_FALSE(Has(P.fact(X0).Deps, X0)) << "self-reads are not edges";
}

TEST(FixpointSolver, DetachedSolverRecordsNoFacts) {
  EquationSystem Sys(1);
  Sys.Equations[0] = [] { return 1u; };
  uint32_t QF = Sys.S.openFact(
      {FactKind::Query, 0, 0, "test query", SourceLoc::invalid()},
      [] { return std::string("q"); });
  EXPECT_EQ(QF, NoFact);
  EXPECT_TRUE(Sys.S.run([&] { Sys.get(0); }));
  Sys.S.closeFact(QF, [] { return std::string("unused"); });
  EXPECT_EQ(Sys.Entries[0].Val, 1u);
}

} // namespace
