//===- EscapeOracleTest.cpp - analysis safety vs a runtime oracle -----------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Operationalizes the §3.5 safety claim: whenever the abstract analysis
// says the top p spines of a parameter never escape, then in *no* actual
// run may a cons cell of those spines be reachable from the call's
// result. The oracle runs randomly generated, well-typed programs on the
// real heap, tags the argument's spine cells by pointer identity, and
// checks reachability of the result against the analysis verdict. Each
// trial is an ordinary run of the program with its body replaced by the
// call `f lit1 ... litn`; an observer catches the arguments that call's
// activation receives.
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"

#include "TestUtil.h"
#include "escape/EscapeAnalyzer.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <set>

using namespace eal;
using namespace eal::test;

namespace {

/// Cells of each top spine of \p V: Levels[0] = top 1st spine, etc.
void collectSpineLevels(RtValue V,
                        std::vector<std::set<const ConsCell *>> &Levels) {
  std::vector<RtValue> Level = {V};
  while (true) {
    std::set<const ConsCell *> Cells;
    std::vector<RtValue> Next;
    for (RtValue L : Level)
      for (RtValue Cur = L; Cur.isCons(); Cur = Cur.cell()->Cdr) {
        Cells.insert(Cur.cell());
        if (Cur.cell()->Car.isCons())
          Next.push_back(Cur.cell()->Car);
      }
    if (Cells.empty())
      break;
    Levels.push_back(std::move(Cells));
    Level = std::move(Next);
  }
}

/// Everything reachable from \p V (through cells and closure
/// environments).
void collectReachable(RtValue V, std::set<const ConsCell *> &Cells,
                      std::set<const EnvFrame *> &Frames) {
  switch (V.kind()) {
  case RtValueKind::Int:
  case RtValueKind::Bool:
  case RtValueKind::Nil:
    return;
  case RtValueKind::Cons:
  case RtValueKind::Pair: {
    const ConsCell *Cell = V.cell();
    if (!Cells.insert(Cell).second)
      return;
    collectReachable(Cell->Car, Cells, Frames);
    collectReachable(Cell->Cdr, Cells, Frames);
    return;
  }
  case RtValueKind::Closure: {
    const RtClosure *C = V.closure();
    for (RtValue P : C->Partial)
      collectReachable(P, Cells, Frames);
    for (const EnvFrame *F = C->Env.get(); F; F = F->Parent.get()) {
      if (!Frames.insert(F).second)
        break;
      for (const auto &Slot : F->Slots)
        collectReachable(Slot.second, Cells, Frames);
    }
    return;
  }
  }
}

/// Catches the arguments of the activation call site \p Site enters.
struct ArgCatcher final : public ExecutionObserver {
  explicit ArgCatcher(uint32_t Site) : Site(Site) {}
  void activationEntered(const LambdaExpr *, const AppExpr *CallSite,
                         std::span<const RtValue> Values) override {
    if (CallSite && CallSite->id() == Site)
      Args.assign(Values.begin(), Values.end());
  }
  uint32_t Site;
  std::vector<RtValue> Args;
};

struct OracleTarget {
  std::string Fn;
  std::vector<GenType> Params;
};

class EscapeOracleTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EscapeOracleTest, AnalysisOverapproximatesRuntimeEscape) {
  ProgramGenerator Gen(GetParam());
  // The trials run the tree-walker on this thread's stack (no big
  // stack), and ASan's redzones inflate the recursive eval frames: keep
  // generated tail loops shallow enough for both.
  Gen.TailLoopBase = 50;
  Gen.TailLoopSpread = 100;
  GenProgram Prog = Gen.generate(3);

  Frontend FE;
  ASSERT_TRUE(FE.parseAndType(Prog.Source, TypeInferenceMode::Monomorphic))
      << "generator produced an ill-typed program (seed " << GetParam()
      << "):\n"
      << Prog.Source << "\n"
      << FE.diagText();

  // Both the spine-aware analysis and the whole-object baseline must be
  // sound; the oracle refutes either.
  EscapeAnalyzer Analyzer(FE.Ast, *FE.Typed, FE.Diags);
  EscapeAnalyzer Baseline(FE.Ast, *FE.Typed, FE.Diags, 512,
                          EscapeAnalysisMode::WholeObject);

  // Targets: the generated functions plus the prelude list functions.
  std::vector<OracleTarget> Targets;
  for (const GenFunction &F : Prog.Functions)
    Targets.push_back({F.Name, F.Params});
  Targets.push_back({"append", {GenType::IntList, GenType::IntList}});
  Targets.push_back({"rev", {GenType::IntList}});
  Targets.push_back({"take", {GenType::Int, GenType::IntList}});

  for (const OracleTarget &Target : Targets) {
    for (unsigned I = 0; I != Target.Params.size(); ++I) {
      if (genTypeSpines(Target.Params[I]) == 0)
        continue;
      auto PE = Analyzer.globalEscape(FE.Ast.intern(Target.Fn), I);
      ASSERT_TRUE(PE.has_value()) << Target.Fn;
      unsigned Protected = PE->protectedTopSpines();
      // The baseline's claims must never be stronger than the precise
      // analysis's (it is the same semantics, coarser grading)...
      auto BPE = Baseline.globalEscape(FE.Ast.intern(Target.Fn), I);
      ASSERT_TRUE(BPE.has_value());
      EXPECT_LE(BPE->protectedTopSpines(), Protected)
          << Target.Fn << " param " << (I + 1) << " (seed " << GetParam()
          << ")";
      // ...so refuting the precise claim below covers both.
      if (Protected == 0)
        continue; // no claim to refute

      // Several runs with different random arguments, each with the
      // program's bindings and the body `f lit1 ... litn`.
      for (unsigned Trial = 0; Trial != 3; ++Trial) {
        std::string Call = Target.Fn;
        for (GenType T : Target.Params)
          Call += " (" + GenProgram::literalOf(T, Gen.rng()) + ")";
        Frontend Run;
        ASSERT_TRUE(Run.parseAndType(
            Prog.Source.substr(0, Prog.Source.rfind("\nin ")) + "\nin " +
                Call + "\n",
            TypeInferenceMode::Monomorphic))
            << Call << " (seed " << GetParam() << "):\n"
            << Run.diagText();
        ArgCatcher Catcher(cast<LetrecExpr>(Run.Root)->body()->id());
        Interpreter::Options Opts;
        Opts.HeapCapacity = 1 << 18; // never collect: cell identity stable
        Opts.Observer = &Catcher;
        Interpreter Interp(Run.Ast, *Run.Typed, nullptr, Run.Diags, Opts);
        auto Result = Interp.run();
        ASSERT_TRUE(Result.has_value())
            << Call << " failed at run time (seed " << GetParam() << "):\n"
            << Prog.Source << Run.diagText();
        ASSERT_EQ(Catcher.Args.size(), Target.Params.size()) << Call;

        std::vector<std::set<const ConsCell *>> Levels;
        collectSpineLevels(Catcher.Args[I], Levels);
        std::set<const ConsCell *> Reach;
        std::set<const EnvFrame *> Frames;
        collectReachable(*Result, Reach, Frames);

        // The claim: no cell of the top `Protected` spines of argument I
        // is reachable from the result.
        for (unsigned L = 0; L != Protected && L < Levels.size(); ++L)
          for (const ConsCell *Cell : Levels[L])
            EXPECT_EQ(Reach.count(Cell), 0u)
                << "UNSOUND: " << Target.Fn << " param " << (I + 1)
                << " claims top " << Protected
                << " spines protected, but a level-" << (L + 1)
                << " cell is reachable from the result (seed "
                << GetParam() << ")\n"
                << Prog.Source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapeOracleTest,
                         ::testing::Range(1u, 81u));

} // namespace
