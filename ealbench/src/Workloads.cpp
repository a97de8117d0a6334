//===- Workloads.cpp ------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace ealbench;

namespace {

/// splitmix64: a fixed generator, so one seed gives the same pool with
/// any standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  unsigned range(unsigned Lo, unsigned Hi) {
    return Lo + static_cast<unsigned>(next() % (Hi - Lo + 1));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// The \p I-th of \p K stratified draws from [Lo, Hi]: one jittered
/// point per equal-width stratum, so every seed covers the range evenly
/// and the pool's cost mix barely moves between seeds.
unsigned stratified(unsigned I, unsigned K, unsigned Lo, unsigned Hi, Rng &R) {
  double Width = static_cast<double>(Hi - Lo + 1);
  auto V = Lo + static_cast<unsigned>(Width * (I + R.unit()) / K);
  return std::min(V, Hi);
}

Program program(std::string Family, std::string Name, std::string Source,
                bool Stdlib = false) {
  Program P;
  P.Family = std::move(Family);
  P.Name = std::move(Name);
  P.Source = std::move(Source);
  P.IncludeStdlib = Stdlib;
  return P;
}

//===--- Reference rendering (eal's printed form, rebuilt in plain C++) ---==//

/// "[a, b, ...]" keeping the first \p Limit items, then ", ..." — the
/// printer's per-list element limit.
std::string renderItems(const std::vector<std::string> &Items, size_t Limit) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I) {
    if (I != 0)
      Out += ", ";
    if (I == Limit) {
      Out += "...";
      break;
    }
    Out += Items[I];
  }
  return Out + "]";
}

constexpr size_t ShownElements = 64;

void setExpectedItems(Program &P, const std::vector<std::string> &Items) {
  P.ExpectedShown = renderItems(Items, ShownElements);
  P.ExpectedFull = renderItems(Items, Items.size());
}

std::vector<std::string> intItems(const std::vector<int64_t> &Values) {
  std::vector<std::string> Items;
  Items.reserve(Values.size());
  for (int64_t V : Values)
    Items.push_back(std::to_string(V));
  return Items;
}

void setExpectedInts(Program &P, const std::vector<int64_t> &Values) {
  setExpectedItems(P, intItems(Values));
}

void setExpectedScalar(Program &P, std::string Text) {
  P.ExpectedShown = Text;
  P.ExpectedFull = std::move(Text);
}

/// An nml list literal of \p Values.
std::string literal(const std::vector<int64_t> &Values) {
  return renderItems(intItems(Values), Values.size());
}

std::vector<int64_t> randomInts(unsigned N, Rng &R) {
  std::vector<int64_t> Out(N);
  for (int64_t &V : Out)
    V = R.range(0, 999);
  return Out;
}

//===--- Program families ------------------------------------------------==//

/// The Appendix A partition sort (append/split/ps), without a driver.
const char *SortPrelude = R"(letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  split p x l h = if (null x) then cons l (cons h nil)
                  else if (car x) <= p
                       then split p (cdr x) (cons (car x) l) h
                       else split p (cdr x) l (cons (car x) h);
  ps x = if (null x) then nil
         else append (ps (car (split (car x) (cdr x) nil nil)))
                     (cons (car x)
                           (ps (car (cdr (split (car x) (cdr x) nil nil)))))
)";

Program psLiteral(unsigned N, Rng &R) {
  std::vector<int64_t> Values = randomInts(N, R);
  Program P = program("ps_literal", "ps_literal/n=" + std::to_string(N),
            std::string(SortPrelude) + "in ps " + literal(Values) + "\n");
  std::sort(Values.begin(), Values.end());
  setExpectedInts(P, Values);
  return P;
}

/// Partition sort of a producer-built list (create_list is the A.3.3
/// shape whose spine the planner gives a region).
Program psCreateList(unsigned N) {
  Program P = program("ps_create_list", "ps_create_list/n=" + std::to_string(N),
            std::string(SortPrelude) + R"(;
  create_list i = if i = 0 then nil
                  else cons (i * 193 mod 1021) (create_list (i - 1))
in ps (create_list )" + std::to_string(N) + ")\n");
  std::vector<int64_t> Values;
  for (unsigned I = N; I != 0; --I)
    Values.push_back(static_cast<int64_t>(I) * 193 % 1021);
  std::sort(Values.begin(), Values.end());
  setExpectedInts(P, Values);
  return P;
}

/// Naive reverse of a literal (A.3.2: the optimizer's REV'/APPEND' reuse
/// every cell through DCONS).
Program reverse(unsigned N, Rng &R) {
  std::vector<int64_t> Values = randomInts(N, R);
  Program P = program("rev", "rev/n=" + std::to_string(N), R"(letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil
          else append (rev (cdr l)) (cons (car l) nil)
in rev )" + literal(Values) + "\n");
  std::reverse(Values.begin(), Values.end());
  setExpectedInts(P, Values);
  return P;
}

/// The §1 map/pair example over a producer-built list of N two-element
/// rows, folded to an int: every row's pair has length 2, so 2N.
Program mapPair(unsigned N) {
  Program P = program("map_pair", "map_pair/n=" + std::to_string(N), R"(letrec
  pair x = if (null x) then nil
           else cons (car x) (cons (car x) nil);
  map f l = if (null l) then nil
            else cons (f (car l)) (map f (cdr l));
  build n = if n = 0 then nil
            else cons (cons n (cons (n + 1) nil)) (build (n - 1));
  len l = if (null l) then 0 else 1 + len (cdr l);
  lenall l = if (null l) then 0 else len (car l) + lenall (cdr l)
in lenall (map pair (build )" + std::to_string(N) + "))\n");
  setExpectedScalar(P, std::to_string(2 * static_cast<uint64_t>(N)));
  return P;
}

/// The SCALE generator's shape: f0 copies its list, f_i appends
/// f_{i-1} l to a recursive copy, so f_{F-1} [x] is F copies of x. The
/// driving literal nests D deep around the seeded integer \p V.
Program chain(unsigned F, unsigned D, unsigned V) {
  std::string Source = "letrec\n"
                       "  append x y = if (null x) then y\n"
                       "               else cons (car x) (append (cdr x) y);\n"
                       "  f0 l = if (null l) then nil\n"
                       "         else cons (car l) (f0 (cdr l));\n";
  for (unsigned I = 1; I != F; ++I) {
    std::string Name = "f" + std::to_string(I);
    std::string Prev = "f" + std::to_string(I - 1);
    Source += "  " + Name + " l = if (null l) then nil\n";
    Source += "     else append (" + Prev + " l) (cons (car l) (" + Name +
              " (cdr l)));\n";
  }
  std::string Element = std::to_string(V);
  for (unsigned I = 1; I != D; ++I)
    Element = "[" + Element + "]";
  Source += "  last l = l\n";
  Source += "in f" + std::to_string(F - 1) + " [" + Element + "]\n";
  Program P = program("chain",
            "chain/F=" + std::to_string(F) + "/d=" + std::to_string(D),
            std::move(Source));
  setExpectedItems(P, std::vector<std::string>(F, Element));
  return P;
}

struct ExampleSpec {
  const char *File;
  const char *Expected;
  bool Stdlib;
};

/// The examples/nml programs with their hand-checked values.
constexpr ExampleSpec PartitionSort{"partition_sort.nml", "[1, 2, 3, 4, 5, 7]",
                                    false};
constexpr ExampleSpec ReverseExample{"reverse.nml", "[8, 7, 6, 5, 4, 3, 2, 1]",
                                     false};
constexpr ExampleSpec DeadData{"dead_data.nml", "230", false};
constexpr ExampleSpec SpecCold{"spec_cold.nml", "1176", false};
constexpr ExampleSpec GcStress{"gc_stress.nml", "20404400", false};
constexpr ExampleSpec Stats{"stats.nml", "(385, (100, [9, 4, 1]))", true};

std::optional<Program> example(const ExampleSpec &Spec,
                               const std::string &RepoRoot, std::string &Err) {
  std::string Path = RepoRoot + "/examples/nml/" + Spec.File;
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  std::string Stem = Spec.File;
  Stem.resize(Stem.size() - 4); // ".nml"
  Program P = program("example", "example/" + Stem, Text.str(), Spec.Stdlib);
  setExpectedScalar(P, Spec.Expected);
  return P;
}

} // namespace

std::optional<Workload> ealbench::parseWorkload(std::string_view Name) {
  for (Workload W :
       {Workload::CompileBound, Workload::RunBound, Workload::CheckBound})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *ealbench::workloadName(Workload W) {
  switch (W) {
  case Workload::CompileBound:
    return "compile_bound";
  case Workload::RunBound:
    return "run_bound";
  case Workload::CheckBound:
    return "check_bound";
  }
  return "?";
}

std::vector<Program> ealbench::makeWorkload(Workload W, uint64_t Seed,
                                            const std::string &RepoRoot,
                                            std::string &Err) {
  Rng R(Seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(W));
  std::vector<Program> Pool;
  auto Family = [&](unsigned K, unsigned Lo, unsigned Hi, auto Make) {
    for (unsigned I = 0; I != K; ++I)
      Pool.push_back(Make(stratified(I, K, Lo, Hi, R)));
  };
  auto Examples = [&](std::initializer_list<ExampleSpec> Specs,
                      unsigned Copies) {
    for (const ExampleSpec &Spec : Specs) {
      std::optional<Program> P = example(Spec, RepoRoot, Err);
      if (!P)
        return false;
      for (unsigned I = 0; I != Copies; ++I)
        Pool.push_back(*P);
    }
    return true;
  };

  // Chains take every (F, D) pair of the grid Copies times, with a
  // seeded element: a chain's cost steps by 15-20% per F, so a pool
  // whose count per F moved with the seed would move the tail with it.
  auto Chains = [&](unsigned FLo, unsigned FHi, unsigned Copies) {
    for (unsigned C = 0; C != Copies; ++C)
      for (unsigned F = FLo; F <= FHi; ++F)
        for (unsigned D = 1; D <= 3; ++D)
          Pool.push_back(chain(F, D, R.range(0, 999)));
  };

  // Every pool holds over 100 programs, so more than 10 lie beyond the
  // latency p90 taken over programs.
  bool Ok = true;
  switch (W) {
  case Workload::CompileBound:
    // F is capped at 20: plan time grows roughly as F^3.
    Chains(4, 20, 1);
    Family(40, 32, 256, [&](unsigned N) { return psLiteral(N, R); });
    Family(32, 16, 128, [&](unsigned N) { return reverse(N, R); });
    Family(32, 8, 64, [&](unsigned N) { return mapPair(N); });
    Ok = Examples({PartitionSort, ReverseExample, DeadData, SpecCold, Stats},
                  2);
    break;
  case Workload::RunBound:
    Family(34, 5000, 20000, [&](unsigned N) { return mapPair(N); });
    Family(34, 600, 1000, [&](unsigned N) { return reverse(N, R); });
    Family(34, 4000, 8000, [&](unsigned N) { return psCreateList(N); });
    Ok = Examples({GcStress}, 8);
    break;
  case Workload::CheckBound:
    // Fewer map_pair than the others: each spends ~95% of its time in
    // the observed run, and the workload is also there for the
    // classifier and the claim table. With 14 of them, the ~8 above
    // n = 270 outcost every ps literal, so the p90 falls among the
    // closely spaced large ps literals, not on a map_pair step.
    Family(40, 16, 128, [&](unsigned N) { return psLiteral(N, R); });
    Family(14, 100, 500, [&](unsigned N) { return mapPair(N); });
    Chains(4, 8, 3);
    Ok = Examples({PartitionSort, DeadData, SpecCold}, 3);
    break;
  }
  if (!Ok)
    return {};

  // Fisher-Yates with the seeded generator: the loop's visiting order.
  for (size_t I = Pool.size(); I > 1; --I)
    std::swap(Pool[I - 1], Pool[R.next() % I]);
  return Pool;
}

std::vector<Program> ealbench::warmupPrograms(Workload W,
                                              const std::string &RepoRoot,
                                              std::string &Err) {
  std::vector<Program> Pool = makeWorkload(W, 0, RepoRoot, Err);
  std::vector<Program> Out;
  for (Program &P : Pool)
    if (std::none_of(Out.begin(), Out.end(), [&](const Program &Q) {
          return Q.Family == P.Family;
        }))
      Out.push_back(std::move(P));
  return Out;
}

eal::PipelineOptions ealbench::pipelineOptions(Workload W, const Program &P) {
  eal::PipelineOptions Options;
  Options.SourceName = P.Name;
  Options.IncludeStdlib = P.IncludeStdlib;
  if (W == Workload::CheckBound) {
    // eal check --oracle --live-oracle
    Options.RunProgram = false;
    Options.RunLint = true;
    Options.RunOracle = true;
    Options.RunLiveOracle = true;
  } else {
    // eal run --vm
    Options.Engine = eal::ExecutionEngine::Bytecode;
  }
  return Options;
}
