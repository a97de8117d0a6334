//===- main.cpp - The eal end-to-end benchmark ----------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// ealbench --workload W --seed N --seconds S --trace 0|1 [--repo DIR]
//          [--setup-only] [--plant-vm-delay F] [--spans FILE]
//
// Generates W's program pool from the seed, warms up, prints "ready",
// then either (trace 0) runs runPipeline over the pool in a closed loop
// with one client for S seconds (and at least one whole pass), checking
// every value against its reference, or (trace 1) runs each program once
// untraced and once as a
// layer-by-layer traced replay, in passes over the pool until S seconds
// have gone. The last stdout line is the result as one JSON object.
// run.py wraps this binary and adds the set-up time.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "runtime/ValuePrinter.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

using namespace ealbench;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Extra time spent in every eal::Vm::run call, as a multiple of that
/// call's own duration (the planted-slowdown self-test; 0 in real runs).
double PlantedVmDelay = 0;

} // namespace

// The link step routes every call to eal::Vm::run() here (see
// CMakeLists.txt). A member function returning a class type is called
// exactly like a free function taking the object pointer first, so this
// forwards to the real definition with the same signature.
extern "C" std::optional<eal::RtValue> __real__ZN3eal2Vm3runEv(eal::Vm *Self);
extern "C" std::optional<eal::RtValue> __wrap__ZN3eal2Vm3runEv(eal::Vm *Self) {
  if (PlantedVmDelay <= 0)
    return __real__ZN3eal2Vm3runEv(Self);
  Clock::time_point T0 = Clock::now();
  std::optional<eal::RtValue> Result = __real__ZN3eal2Vm3runEv(Self);
  auto Until = Clock::now() + (Clock::now() - T0) * PlantedVmDelay;
  while (Clock::now() < Until) {
  }
  return Result;
}

namespace {

struct Args {
  Workload W = Workload::CompileBound;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  std::string Repo = ".";
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    if (!(V = Value()))
      return false;
    if (Arg == "--workload") {
      std::optional<Workload> W = parseWorkload(V);
      if (!W)
        return false;
      A.W = *W;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds") {
      A.Seconds = std::strtod(V, nullptr);
    } else if (Arg == "--trace") {
      A.Trace = std::string(V) == "1";
    } else if (Arg == "--repo") {
      A.Repo = V;
    } else if (Arg == "--plant-vm-delay") {
      PlantedVmDelay = std::strtod(V, nullptr);
    } else if (Arg == "--spans") {
      A.SpansPath = V;
    } else {
      return false;
    }
  }
  return HaveWorkload && A.Seconds > 0;
}

/// Empty when \p R is \p P's reference value; otherwise what went wrong.
std::string checkResult(const Program &P, const eal::PipelineResult &R) {
  if (!R.Success) {
    std::string Diag = R.diagnostics();
    return "failed: " + Diag.substr(0, Diag.find('\n'));
  }
  if (R.LiveOracle && !R.LiveOracle->report().Violations.empty())
    return "liveness oracle refuted a dead-site claim";
  if (R.RenderedValue != P.ExpectedShown)
    return "printed " + R.RenderedValue + ", expected " + P.ExpectedShown;
  if (!R.Value || eal::renderValue(*R.Value, std::numeric_limits<size_t>::max()) !=
                      P.ExpectedFull)
    return "value differs from the reference beyond the printed prefix";
  return {};
}

/// Quantile \p Q of \p Sorted by linear interpolation.
double quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantile(V, 0.5);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  OS.precision(12);
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
       << Metrics[I].Value << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
}

void reportFailure(const Program &P, const std::string &What) {
  static unsigned Reported = 0;
  if (Reported++ < 10)
    std::cerr << "ealbench: " << P.Name << ": " << What << "\n";
}

//===--- trace 0: the closed loop ----------------------------------------==//

int runLoop(const Args &A, const std::vector<Program> &Pool) {
  std::vector<eal::PipelineOptions> Options;
  for (const Program &P : Pool)
    Options.push_back(pipelineOptions(A.W, P));

  // Wall times by pool position: every program runs once per pass.
  std::vector<std::vector<double>> LatencyMs(Pool.size());
  uint64_t Attempted = 0, Failed = 0;
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Pool.size() || secondsSince(Start) < A.Seconds; ++I) {
    const Program &P = Pool[I % Pool.size()];
    Clock::time_point T0 = Clock::now();
    eal::PipelineResult R = eal::runPipeline(P.Source, Options[I % Pool.size()]);
    LatencyMs[I % Pool.size()].push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
    ++Attempted;
    std::string Error = checkResult(P, R);
    if (!Error.empty()) {
      ++Failed;
      reportFailure(P, Error);
    }
  }
  double Wall = secondsSince(Start);

  // A program's latency is its fastest run; p50 and p90 are taken over
  // the pool's programs. Programs are deterministic, so runs of one
  // program differ only by what else the machine was doing; the fastest
  // is the one it disturbed least (see README.md, Noise). Pool entries
  // with one name (the same family and size) share their fastest run.
  std::map<std::string, double> Fastest;
  for (size_t I = 0; I != Pool.size(); ++I) {
    double Ms = *std::min_element(LatencyMs[I].begin(), LatencyMs[I].end());
    auto [It, New] = Fastest.emplace(Pool[I].Name, Ms);
    if (!New)
      It->second = std::min(It->second, Ms);
  }
  std::vector<double> ProgramMs;
  for (const Program &P : Pool)
    ProgramMs.push_back(Fastest[P.Name]);
  std::sort(ProgramMs.begin(), ProgramMs.end());
  size_t Programs = ProgramMs.size();
  std::cout << "samples: " << Attempted << " runs in " << Wall << " s, "
            << Attempted / Programs << " or more of each of " << Programs
            << " programs; "
            << Programs - 1 -
                   static_cast<size_t>(0.9 * static_cast<double>(Programs - 1))
            << " programs beyond p90; fail_ratio "
            << static_cast<double>(Failed) / static_cast<double>(Attempted)
            << "\n";
  printResult(Failed == 0, Attempted, Failed,
              {{"programs_per_s",
                static_cast<double>(Attempted - Failed) / Wall, "1/s"},
               {"latency_p50_ms", quantile(ProgramMs, 0.5), "ms"},
               {"latency_p90_ms", quantile(ProgramMs, 0.9), "ms"},
               {"peak_rss_mb", peakRssMb(), "MB"}});
  return 0;
}

//===--- trace 1: the layer-by-layer replay ------------------------------==//

/// The per-layer metrics, in output order. Names ending in _us are sums
/// of span self times; the rest are counts or ratios.
const std::vector<std::pair<std::string, const char *>> LayerMetrics = {
    {"lang.parse_us", "us"},
    {"lang.ast_nodes", "count"},
    {"types.infer_us", "us"},
    {"types.retype_us", "us"},
    {"escape.base_us", "us"},
    {"escape.final_us", "us"},
    {"escape.fixpoint_rounds", "count"},
    {"escape.apply_cache_entries", "count"},
    {"escape.widenings", "count"},
    {"opt.reuse_us", "us"},
    {"opt.reuse_versions", "count"},
    {"opt.dcons_sites", "count"},
    {"opt.plan_us", "us"},
    {"opt.plan_directives", "count"},
    {"opt.plan_cache_growth", "count"},
    {"vm.compile_us", "us"},
    {"vm.instructions", "count"},
    {"vm.run_us", "us"},
    {"vm.steps", "count"},
    {"runtime.heap_init_us", "us"},
    {"runtime.tree_run_us", "us"},
    {"runtime.heap_cells", "count"},
    {"runtime.arena_cells", "count"},
    {"runtime.dcons_reuses", "count"},
    {"runtime.gc_runs", "count"},
    {"runtime.cells_marked", "count"},
    {"runtime.sweep_scan_work", "count"},
    {"runtime.gc_yield", "ratio"},
    {"runtime.heap_growths", "count"},
    {"explain.classify_us", "us"},
    {"live.analyze_us", "us"},
    {"live.rounds", "count"},
    {"check.lint_us", "us"},
    {"check.claims_us", "us"},
    {"check.claims", "count"},
    {"check.refutations", "count"},
    {"driver.replay_coverage", "ratio"},
    {"driver.front_half_share", "ratio"},
    {"driver.trace_overhead", "ratio"},
};

bool isFrontHalf(const std::string &Layer) {
  for (const char *Prefix : {"lang.", "types.", "escape.", "opt."})
    if (Layer.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

/// Adds one program's runtime counters to a pass's counts.
void countRuntime(std::map<std::string, double> &Counts,
                  const eal::RuntimeStats &S) {
  Counts["runtime.heap_cells"] += S.HeapCellsAllocated;
  Counts["runtime.arena_cells"] += S.StackCellsAllocated + S.RegionCellsAllocated;
  Counts["runtime.dcons_reuses"] += S.DconsReuses;
  Counts["runtime.gc_runs"] += S.GcRuns;
  Counts["runtime.cells_marked"] += S.CellsMarked;
  Counts["runtime.sweep_scan_work"] += S.CellsScannedBySweep;
  Counts["runtime.cells_swept"] += S.CellsSwept;
  Counts["runtime.heap_growths"] += S.HeapGrowths;
}

/// Empty when the replay describes the same run as runPipeline did.
std::string checkParity(const eal::PipelineResult &R, const ReplayOutcome &O) {
  if (!O.Completed)
    return "replay failed: " + O.Error;
  if (O.Rendered != R.RenderedValue)
    return "replay printed " + O.Rendered + ", runPipeline " + R.RenderedValue;
  if (O.Stats.toJson() != R.Stats.toJson())
    return "runtime counters differ";
  if (!R.Optimized || O.ReuseVersions != R.Optimized->Reuse.Versions.size() ||
      O.PlanDirectives != R.Optimized->Plan.Directives.size())
    return "reuse versions or plan directives differ";
  return {};
}

int runTraced(const Args &A, const std::vector<Program> &Pool) {
  SpanRecorder Rec;
  std::vector<std::map<std::string, double>> PassTimes;
  std::map<std::string, double> Counts;
  uint64_t Attempted = 0, Failed = 0;
  bool Deterministic = true;
  Clock::time_point Start = Clock::now();
  while (PassTimes.empty() || secondsSince(Start) < A.Seconds) {
    size_t FirstSpan = Rec.spans().size();
    std::map<std::string, double> PassCounts;
    double UntracedSeconds = 0;
    for (size_t I = 0; I != Pool.size(); ++I) {
      const Program &P = Pool[I];
      ++Attempted;
      Clock::time_point T0 = Clock::now();
      eal::PipelineResult R = eal::runPipeline(P.Source, pipelineOptions(A.W, P));
      UntracedSeconds += secondsSince(T0);
      ReplayOutcome O = replayProgram(A.W, P, Rec, Rec.addProgram(P.Name));
      std::string Error = checkResult(P, R);
      if (Error.empty())
        Error = checkParity(R, O);
      if (!Error.empty()) {
        ++Failed;
        reportFailure(P, Error);
      }
      for (const auto &[Key, V] : O.Counts)
        PassCounts[Key] += V;
      countRuntime(PassCounts, O.Stats);
    }
    if (PassTimes.empty())
      Counts = PassCounts;
    else if (PassCounts != Counts)
      Deterministic = false;

    // Self times by layer for this pass.
    std::map<std::string, double> Times;
    std::vector<uint64_t> Self = Rec.selfTimes();
    double ReplayUs = 0, LayerUs = 0, FrontUs = 0;
    for (size_t I = FirstSpan; I != Self.size(); ++I) {
      const Span &S = Rec.spans()[I];
      double Us = static_cast<double>(Self[I]) / 1000.0;
      if (S.Parent < 0) {
        ReplayUs += static_cast<double>(S.EndNs - S.StartNs) / 1000.0;
        continue;
      }
      std::string Layer = S.Name;
      Times[Layer + "_us"] += Us;
      LayerUs += Us;
      if (isFrontHalf(Layer))
        FrontUs += Us;
    }
    Times["driver.replay_coverage"] = LayerUs / ReplayUs;
    Times["driver.front_half_share"] = FrontUs / ReplayUs;
    Times["driver.trace_overhead"] = ReplayUs / (UntracedSeconds * 1e6);
    PassTimes.push_back(std::move(Times));
  }
  if (!Deterministic)
    std::cerr << "ealbench: layer counts differ between passes\n";
  if (!A.SpansPath.empty() && !Rec.writeJson(A.SpansPath))
    std::cerr << "ealbench: cannot write '" << A.SpansPath << "'\n";

  double Swept = Counts["runtime.cells_swept"];
  double Scanned = Counts["runtime.sweep_scan_work"];
  Counts["runtime.gc_yield"] = Scanned > 0 ? Swept / Scanned : 0;
  std::vector<Metric> Metrics;
  for (const auto &[Name, Unit] : LayerMetrics) {
    if (std::string_view(Unit) == "us" || Name.rfind("driver.", 0) == 0) {
      std::vector<double> PerPass;
      for (std::map<std::string, double> &Times : PassTimes)
        PerPass.push_back(Times[Name]);
      Metrics.push_back({Name, median(PerPass), Unit});
    } else {
      Metrics.push_back({Name, Counts[Name], Unit});
    }
  }
  std::cout << "passes: " << PassTimes.size() << " over a pool of "
            << Pool.size() << " programs; _us and driver.* are per-pass "
            << "medians\n";
  printResult(Failed == 0 && Deterministic, Attempted, Failed, Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point Start = Clock::now();
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::cerr << "usage: ealbench --workload compile_bound|run_bound|"
                 "check_bound --seed N --seconds S --trace 0|1 [--repo DIR] "
                 "[--setup-only] [--plant-vm-delay F] [--spans FILE]\n";
    return 2;
  }

  std::string Err;
  std::vector<Program> Pool = makeWorkload(A.W, A.Seed, A.Repo, Err);
  std::vector<Program> Warmup = warmupPrograms(A.W, A.Repo, Err);
  if (Pool.empty() || Warmup.empty()) {
    std::cerr << "ealbench: " << Err << "\n";
    return 2;
  }
  for (const Program &P : Warmup) {
    eal::PipelineResult R = eal::runPipeline(P.Source, pipelineOptions(A.W, P));
    std::string Error = checkResult(P, R);
    if (!Error.empty()) {
      std::cerr << "ealbench: warm-up " << P.Name << ": " << Error << "\n";
      return 1;
    }
  }
  std::cout << "ready after " << secondsSince(Start) << " s" << std::endl;
  if (A.SetupOnly)
    return 0;
  return A.Trace ? runTraced(A, Pool) : runLoop(A, Pool);
}
