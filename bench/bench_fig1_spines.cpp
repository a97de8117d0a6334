//===- bench_fig1_spines.cpp - Figure 1: spines of a list ------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Experiment FIG1. Figure 1 depicts the spine decomposition of a nested
// list (Definition 1): the top i-th spine is the set of cells reachable
// by car/cdr paths with exactly i−1 cars. This binary regenerates the
// decomposition for the paper's running list [[1,2],[3,4],[5,6]] and
// deeper nestings, checks it against the type-level spine count, and
// times spine traversal per depth.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "runtime/Interpreter.h"

#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>
#include <vector>

using namespace eal;

namespace {

/// Counts the cells of each top spine of \p V (index 0 = top 1st spine).
std::vector<size_t> spineCellCounts(RtValue V) {
  std::vector<size_t> Counts;
  std::vector<RtValue> Level = {V};
  while (true) {
    size_t Cells = 0;
    std::vector<RtValue> Next;
    for (RtValue L : Level) {
      for (RtValue Cur = L; Cur.isCons(); Cur = Cur.cell()->Cdr) {
        ++Cells;
        if (Cur.cell()->Car.isCons())
          Next.push_back(Cur.cell()->Car);
      }
    }
    if (Cells == 0)
      break;
    Counts.push_back(Cells);
    Level = std::move(Next);
  }
  return Counts;
}

/// Builds a literal of nesting depth \p Depth with \p Width elements per
/// level, e.g. depth 2, width 3: [[1,1,1],[1,1,1],[1,1,1]].
std::string nestedLiteral(unsigned Depth, unsigned Width) {
  if (Depth == 0)
    return "1";
  std::string Inner = nestedLiteral(Depth - 1, Width);
  std::string Out = "[";
  for (unsigned I = 0; I != Width; ++I) {
    if (I != 0)
      Out += ", ";
    Out += Inner;
  }
  Out += "]";
  return Out;
}

void printFigure1() {
  std::cout << "=== FIG1: spines of [[1,2],[3,4],[5,6]] ===\n";
  PipelineResult R = runPipeline("[[1, 2], [3, 4], [5, 6]]");
  if (!R.Success) {
    std::cerr << R.diagnostics();
    return;
  }
  std::vector<size_t> Counts = spineCellCounts(*R.Value);
  std::cout << "value: " << R.RenderedValue << "\n";
  for (size_t I = 0; I != Counts.size(); ++I)
    std::cout << "  top " << (I + 1) << (I == 0 ? "st" : "nd")
              << " spine: " << Counts[I] << " cons cells (bottom "
              << (Counts.size() - I) << (Counts.size() - I == 1 ? "st" : "nd")
              << " spine)\n";
  std::cout << "  type-level spine count d = "
            << spineCount(R.Optimized->Typed->typeOf(R.Optimized->Root))
            << " (matches: " << (Counts.size() == 2 ? "yes" : "NO") << ")\n\n";
}

void BM_SpineTraversal(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  unsigned Width = static_cast<unsigned>(State.range(1));
  PipelineResult R = runPipeline(nestedLiteral(Depth, Width));
  if (!R.Success) {
    State.SkipWithError("pipeline failed");
    return;
  }
  size_t TotalCells = 0;
  for (auto _ : State) {
    std::vector<size_t> Counts = spineCellCounts(*R.Value);
    benchmark::DoNotOptimize(Counts);
    TotalCells = 0;
    for (size_t C : Counts)
      TotalCells += C;
  }
  State.counters["spines"] = static_cast<double>(Depth);
  State.counters["cells"] = static_cast<double>(TotalCells);
}

} // namespace

BENCHMARK(BM_SpineTraversal)
    ->Args({1, 64})
    ->Args({2, 16})
    ->Args({3, 8})
    ->Args({4, 5});

int main(int argc, char **argv) {
  printFigure1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
