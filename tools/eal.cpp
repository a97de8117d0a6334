//===- eal.cpp - command-line driver ----------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Usage:
//   eal analyze  <file>   escape (G) and sharing (Theorem 2) reports
//   eal optimize <file>   DCONS-transformed program and allocation plan
//   eal run      <file>   execute, printing the value and storage counters
//   eal disasm   <file>   compile to bytecode and print the disassembly
//                         (flat frames, superinstructions, tail calls)
//   eal report   <file>   all of the above
//   eal check    <file>   lint + per-allocation optimization explanations
//                         (docs/CHECKING.md); add --oracle to also execute
//                         under the dynamic escape oracle
//   eal profile  <file>   execute on BOTH engines under the allocation-site
//                         & hot-path profiler (docs/PROFILING.md): every
//                         cons/pair/dcons site with its planned storage
//                         class, why, and what each engine observed there
//   eal explain  <file>   why-provenance blame chains (docs/EXPLAIN.md):
//                         for every allocation site, the derivation from
//                         the site to the program point deciding its
//                         storage (the escaping return, the directive, ...)
//   eal live     <file>   heap-liveness analysis (docs/LIVENESS.md):
//                         per-function demand summaries, per-site demands,
//                         and the EAL-D dead-data findings; add
//                         --live-oracle to also execute under the dynamic
//                         liveness oracle
//   eal spec     <file>   speculative tier (docs/SPECULATION.md): profile
//                         the program, plan guarded arena directives for
//                         profile-cold branches, execute the merged plan,
//                         and report each speculation with its outcome
//                         (held, or deopted with cells migrated)
//   eal timeline <rec>    replay an eal-rec-v1 recording (--record= /
//                         --rec-dump= output, docs/RECORDER.md) into heap
//                         occupancy curves by storage class, cell lifetime
//                         ribbons, and phase/GC bands; --json=FILE exports
//                         the reconstruction (schema eal-timeline-v1)
//
// Common flags:
//   --mono            monomorphic typing (the paper's base language, §3.1)
//   --stdlib          splice the standard prelude into the program
//   --vm              execute on the bytecode VM instead of the interpreter
//   --no-reuse / --no-stack / --no-region
//                     disable individual optimizations
//   --heap N          initial heap capacity in cells (default 16384, at
//                     most 16777216 = 2^24)
//   --validate        verify every arena free (debugging plans)
//   -                 read the program from stdin
//
// Observability flags (docs/OBSERVABILITY.md):
//   --trace=FILE      write the run's phases, GC cycles, heap growth,
//                     arena opens and frees, deopts and refutations as a
//                     Chrome trace_event JSON file loadable by
//                     chrome://tracing / Perfetto
//   --stats-json=FILE write runtime counters + metrics registry as JSON
//   --time-phases     print per-phase wall times after the run
//
// Recorder flags (docs/RECORDER.md):
//   --record=FILE     stream the flight-recorder event feed (run/phase/GC/
//                     arena boundaries plus the per-cell detail tier) into
//                     an eal-rec-v1 NDJSON file; `eal timeline` replays it
//   --record-binary=FILE
//                     same, as raw 32-byte binary records (compact)
//   --rec-dump=FILE   arm the always-on flight recorder to dump its
//                     retained event window here on the first failure
//                     (oracle refutation, spec deopt, failed run, SIGABRT)
//
// Checking flags (docs/CHECKING.md):
//   --check           run the lints alongside any command
//   --oracle          execute under the dynamic escape oracle: every
//                     static "does not escape" claim is verified against
//                     the concrete heap; a refuted claim aborts the run.
//                     Runs on the engine asked for (--vm or not)
//   --check-json=FILE write findings + oracle counters as JSON
//                     (schema eal-check-v1, tools/check_json.py)
//
// Profiling flags (docs/PROFILING.md, `eal profile` only):
//   --profile-json=FILE write the joined static+dynamic profile as JSON
//                     (schema eal-profile-v1, tools/check_json.py)
//   --folded=FILE     write collapsed stacks for both engines (one
//                     "tree;f;g N" / "vm;f;g N" line per stack), ready
//                     for flamegraph.pl / speedscope
//
// Liveness flags (docs/LIVENESS.md):
//   --live            run the liveness analysis alongside any command
//   --live-oracle     execute under the dynamic liveness oracle: every
//                     EAL-D001 dead-site claim is checked against the
//                     concrete run's field reads; violations exit 1.
//                     Runs on the engine asked for (--vm or not)
//   --live-gc         let the GC prune never-demanded structure (the one
//                     liveness consumer that changes runtime behaviour)
//   --live-json=FILE  write the liveness report as JSON (schema
//                     eal-live-v1, tools/check_json.py); any command
//
// Explain flags (docs/EXPLAIN.md):
//   --at=[FILE:]L:C   print only the chains of the allocation site at
//                     line L, column C (`eal explain` only); with no
//                     exact column match, every site on line L
//   --explain-json=FILE write the chains + the whole provenance graph as
//                     JSON (schema eal-explain-v1,
//                     tools/check_json.py); any command
//   --dot=FILE        write the provenance graph as Graphviz DOT, blame
//                     chains highlighted; any command
//
// Speculation flags (docs/SPECULATION.md):
//   --spec            enable the speculative tier alongside any executing
//                     command (run/report/check --oracle/...)
//   --spec-inject-deopt=SITE[:N] | all
//                     deterministically inject a guard failure at the Nth
//                     close (default 1st) of a live speculative arena
//                     covering allocation site SITE ("all": the first
//                     close of any speculative arena); exercises the
//                     deopt/migration path, which an unperturbed
//                     deterministic program can never reach
//   --spec-cold-max=N treat branches with at most N profiled entries as
//                     cold (default 0)
//   --spec-hot-min=N  require a speculated site to have at least N
//                     profiled heap allocations (default 8)
//   --spec-json=FILE  write the speculation plan + runtime outcome as
//                     JSON (schema eal-spec-v1, tools/check_json.py)
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "escape/EscapeAnalyzer.h"
#include "obs/Timeline.h"
#include "lang/AstPrinter.h"
#include "prof/ProfileReport.h"
#include "prof/Profiler.h"
#include "sharing/SharingAnalysis.h"
#include "support/LargeStack.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

using namespace eal;

namespace {

int usage() {
  std::cerr
      << "usage: eal <analyze|optimize|run|disasm|report|check|profile"
         "|explain|live|spec> <file|-> [options]\n"
         "       eal timeline <recording> [--json=FILE]\n"
         "options: --mono --stdlib --vm --whole-object --no-reuse --no-stack "
         "--no-region "
         "--heap N --validate\n"
         "         --trace=FILE --stats-json=FILE --time-phases\n"
         "         --record=FILE --record-binary=FILE --rec-dump=FILE\n"
         "         --check --oracle --check-json=FILE\n"
         "         --live --live-oracle --live-gc --live-json=FILE\n"
         "         --profile-json=FILE --folded=FILE   (profile only)\n"
         "         --at=[FILE:]LINE:COL (explain only) --explain-json=FILE "
         "--dot=FILE\n"
         "         --spec --spec-inject-deopt=SITE[:N]|all "
         "--spec-cold-max=N --spec-hot-min=N --spec-json=FILE\n";
  return 2;
}

bool readSource(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "eal: error: cannot open '" << Path << "'\n";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void printAnalysis(const PipelineResult &R) {
  std::cout << "== escape analysis (G, section 4.1) ==\n"
            << renderEscapeReport(*R.Ast, R.Optimized->BaseEscape)
            << "\n== sharing (Theorem 2, clause 2) ==\n"
            << renderSharingReport(*R.Ast, *R.Typed,
                                   R.Optimized->BaseEscape);
}

void printOptimization(const PipelineResult &R) {
  std::cout << "== transformed program ==\n"
            << printExpr(*R.Ast, R.Optimized->Root) << "\n\n"
            << "== in-place reuse record ==\n"
            << renderReuseReport(*R.Ast, R.Optimized->Reuse)
            << "\n== allocation plan ==\n"
            << renderAllocationPlan(*R.Ast, R.Optimized->Plan);
}

void printRun(const PipelineResult &R) {
  std::cout << "value: " << R.RenderedValue << "\n\n"
            << "== storage counters ==\n"
            << R.Stats.str();
}

void printPhaseTimes(const PipelineResult &R) {
  std::cout << "== phase times ==\n";
  for (const auto &[Name, Micros] : R.PhaseMicros)
    std::cout << std::left << std::setw(16) << Name << "= " << std::right
              << std::setw(10) << Micros << " us\n";
}

/// Reports PipelineResult::ObsExportErrors (trace/stats-json export
/// failures) on stderr; returns false when there were any.
bool reportObsErrors(const PipelineResult &R) {
  for (const std::string &E : R.ObsExportErrors)
    std::cerr << "eal: error: " << E << "\n";
  return R.ObsExportErrors.empty();
}

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (Out)
    Out << Text;
  if (!Out)
    std::cerr << "eal: error: cannot write '" << Path << "'\n";
  return static_cast<bool>(Out);
}

/// The largest --heap: 2^24 cells, about 1 GB of cells, all
/// allocated before the program starts.
constexpr uint64_t MaxHeapCells = uint64_t(1) << 24;

/// Parses \p Text, the value of \p Flag, as a decimal count of at most
/// \p Max: digits only, no sign, no trailing junk. Prints an error and
/// returns false when it is not one.
bool parseCount(const char *Flag, std::string_view Text, uint64_t Max,
                uint64_t &Out) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec == std::errc() && Stop == End && V <= Max) {
    Out = V;
    return true;
  }
  std::cerr << "eal: error: malformed " << Flag << " '" << Text
            << "' (expected a decimal count of at most " << Max << ")\n";
  return false;
}

/// Parses "--spec-inject-deopt" specs: "all" or "SITE[:N]" (N 1-based,
/// default 1).
bool parseInjectSpec(const std::string &Spec, spec::SpecInjection &Inject) {
  if (Spec == "all") {
    Inject.All = true;
    return true;
  }
  char *End = nullptr;
  Inject.Site = static_cast<uint32_t>(std::strtoul(Spec.c_str(), &End, 10));
  if (End == Spec.c_str())
    return false;
  if (*End == '\0')
    return true;
  if (*End != ':')
    return false;
  const char *NBegin = End + 1;
  Inject.AtClose = std::strtoull(NBegin, &End, 10);
  return End != NBegin && *End == '\0' && Inject.AtClose > 0;
}

/// Parses "--at" position specs: "LINE:COL" with an optional leading
/// "FILE:" prefix (ignored; the command already names the file).
bool parseAt(const std::string &Spec, LineColumn &LC) {
  size_t Colon2 = Spec.rfind(':');
  if (Colon2 == std::string::npos || Colon2 == 0 || Colon2 + 1 >= Spec.size())
    return false;
  size_t Colon1 = Spec.rfind(':', Colon2 - 1);
  size_t LineBegin = Colon1 == std::string::npos ? 0 : Colon1 + 1;
  char *End = nullptr;
  LC.Line = std::strtoul(Spec.c_str() + LineBegin, &End, 10);
  if (End != Spec.c_str() + Colon2)
    return false;
  LC.Column = std::strtoul(Spec.c_str() + Colon2 + 1, &End, 10);
  if (End != Spec.c_str() + Spec.size())
    return false;
  return LC.Line > 0;
}

/// `eal timeline <recording>`: replay an eal-rec-v1 recording
/// (docs/RECORDER.md) into occupancy curves, lifetime ribbons, and
/// phase/GC bands. Exits 1 when the recording's event replay fails to
/// reconcile with the footer counters.
int runTimeline(int argc, char **argv) {
  std::string RecPath = argv[2];
  std::string JsonPath;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--json=", 0) == 0)
      JsonPath = Arg.substr(std::strlen("--json="));
    else
      return usage();
  }
  obs::rec::Timeline T;
  std::string Err;
  if (!T.load(RecPath, &Err)) {
    std::cerr << "eal: error: " << Err << "\n";
    return 1;
  }
  bool Ok = true;
  if (!JsonPath.empty())
    Ok = writeTextFile(JsonPath, T.toJson());
  std::cout << T.renderText();
  std::string Why;
  if (!T.reconciles(&Why)) {
    std::cerr << "eal: error: recording does not reconcile: " << Why << "\n";
    return 1;
  }
  return Ok ? 0 : 1;
}

/// What the command line asks for beyond the pipeline's options: the
/// files to export and the extra report sections.
struct CliOutputs {
  std::string CheckJsonPath, ProfileJsonPath, FoldedPath;
  std::string AtSpec, ExplainJsonPath, DotPath, LiveJsonPath, SpecJsonPath;
  bool TimePhases = false;
};

/// `eal profile`: run the program on both engines under the profiler and
/// join the two runs with the optimizer's plan into one report. The
/// parser and optimizer are deterministic, so both runs assign the same
/// node ids and the site/frames tables line up.
int runProfile(const std::string &Source, PipelineOptions Options,
               const CliOutputs &Cli) {
  prof::Profiler TreeProf;
  prof::Profiler VmProf;

  Options.Engine = ExecutionEngine::TreeWalker;
  Options.Run.Profiler = &TreeProf;
  PipelineResult R1 = runPipeline(Source, Options);

  Options.Engine = ExecutionEngine::Bytecode;
  Options.Run.Profiler = &VmProf;
  Options.RunLint = false; // findings carry over from the first run
  PipelineResult R2 = runPipeline(Source, Options);

  bool ExportOk = reportObsErrors(R1) && reportObsErrors(R2);

  if (!R1.Optimized) { // front-end failure: nothing to profile
    std::cerr << R1.diagnostics();
    return 1;
  }

  std::vector<prof::EngineProfile> Engines(2);
  Engines[0].Name = "tree";
  Engines[0].P = &TreeProf;
  Engines[0].Success = R1.Success;
  Engines[1].Name = "vm";
  Engines[1].P = &VmProf;
  Engines[1].Success = R2.Success;
  if (R2.Code)
    for (const Proto &P : R2.Code->Protos)
      Engines[1].FrameNames.push_back(P.Name);
  for (unsigned I = 0; I != NumOpcodes; ++I)
    Engines[1].OpcodeNames.push_back(opcodeName(static_cast<Opcode>(I)));

  prof::ProfileReport Report(*R1.Ast, *R1.SM, R1.Optimized->Root,
                             R1.Optimized->Plan, R1.Optimized->Reuse,
                             R1.Check ? &R1.Check->Findings : nullptr,
                             std::move(Engines));

  if (!Cli.ProfileJsonPath.empty())
    ExportOk = writeTextFile(Cli.ProfileJsonPath, Report.toJson()) && ExportOk;
  if (!Cli.FoldedPath.empty())
    ExportOk = writeTextFile(Cli.FoldedPath, Report.folded()) && ExportOk;

  std::cout << Report.renderSummary();
  if (R1.Success && R2.Success)
    std::cout << "value: " << R1.RenderedValue << "\n";
  if (Cli.TimePhases) {
    std::cout << '\n';
    printPhaseTimes(R2);
  }

  if (!R1.Success || !R2.Success) {
    std::cerr << R1.diagnostics() << R2.diagnostics();
    return 1;
  }
  return ExportOk ? 0 : 1;
}

/// Runs \p Command on \p Source: the pipeline, then the exports and the
/// report the command prints. Returns the exit code.
int runCommand(const std::string &Command, const std::string &Source,
               const PipelineOptions &Options, const CliOutputs &Cli) {
  if (Command == "profile")
    return runProfile(Source, Options, Cli);

  PipelineResult R = runPipeline(Source, Options);
  if (Command == "disasm" && R.Success) {
    R.Code = compileToBytecode(*R.Ast, R.Optimized->Root, &R.Optimized->Plan,
                               *R.Diags);
    R.Success = R.Code.has_value();
  }
  // The pipeline itself writes the trace and the stats (even on failure:
  // a trace of a failed run is exactly what one wants for debugging
  // it); surface any export errors here.
  bool ExportOk = reportObsErrors(R);
  if (!Cli.ExplainJsonPath.empty()) {
    if (R.Explain)
      ExportOk = writeTextFile(Cli.ExplainJsonPath,
                               R.Explain->toJson(*R.SM, Command, R.Success)) &&
                 ExportOk;
    else {
      std::cerr << "eal: error: cannot write '" << Cli.ExplainJsonPath << "'\n";
      ExportOk = false;
    }
  }
  if (!Cli.DotPath.empty()) {
    if (R.Explain)
      ExportOk = writeTextFile(Cli.DotPath, R.Explain->toDot()) && ExportOk;
    else {
      std::cerr << "eal: error: cannot write '" << Cli.DotPath << "'\n";
      ExportOk = false;
    }
  }
  if (!Cli.LiveJsonPath.empty()) {
    if (R.Live)
      ExportOk =
          writeTextFile(Cli.LiveJsonPath,
                        R.Live->toJson(*R.Ast, *R.SM, Command, R.Success)) &&
          ExportOk;
    else {
      std::cerr << "eal: error: cannot write '" << Cli.LiveJsonPath << "'\n";
      ExportOk = false;
    }
  }
  if (!Cli.SpecJsonPath.empty()) {
    if (R.SpecPlan)
      ExportOk = writeTextFile(Cli.SpecJsonPath,
                               spec::specPlanToJson(*R.SpecPlan,
                                                    R.SpecRT.get(), *R.Ast,
                                                    *R.SM)) &&
                 ExportOk;
    else {
      std::cerr << "eal: error: cannot write '" << Cli.SpecJsonPath << "'\n";
      ExportOk = false;
    }
  }
  if (!Cli.CheckJsonPath.empty()) {
    std::ofstream Out(Cli.CheckJsonPath);
    if (Out && R.Check)
      Out << R.Check->toJson(*R.SM, Command, R.Success);
    if (!Out || !R.Check) {
      std::cerr << "eal: error: cannot write '" << Cli.CheckJsonPath << "'\n";
      ExportOk = false;
    }
  }

  if (!R.Success) {
    if (R.Check)
      std::cerr << R.Check->render(*R.SM);
    std::cerr << R.diagnostics();
    return 1;
  }

  if (Command == "analyze" || Command == "report")
    printAnalysis(R);
  if (Command == "disasm")
    std::cout << disassemble(*R.Code);
  if (Command == "optimize" || Command == "report") {
    if (Command == "report")
      std::cout << '\n';
    printOptimization(R);
  }
  if (Command == "run" || Command == "report") {
    if (Command == "report")
      std::cout << '\n';
    printRun(R);
  }
  if (Command == "explain" && R.Explain) {
    if (Cli.AtSpec.empty()) {
      std::cout << R.Explain->renderText(*R.SM);
    } else {
      LineColumn LC;
      if (!parseAt(Cli.AtSpec, LC)) {
        std::cerr << "eal: error: malformed --at '" << Cli.AtSpec
                  << "' (expected [FILE:]LINE:COL)\n";
        return 2;
      }
      auto Selected = R.Explain->chainsAt(*R.SM, LC);
      if (Selected.empty()) {
        std::cerr << "eal: error: no allocation site at '" << Cli.AtSpec
                  << "'\n";
        return 1;
      }
      explain::ExplainReport Sub;
      Sub.Recorder = R.Explain->Recorder;
      for (const explain::BlameChain *C : Selected)
        Sub.Chains.push_back(*C);
      std::cout << Sub.renderText(*R.SM);
    }
  }
  if (Command == "live" && R.Live)
    std::cout << R.Live->render(*R.Ast, *R.SM);
  if (R.SpecPlan && (Command == "spec" || R.SpecRT))
    std::cout << spec::renderSpecReport(*R.SpecPlan, R.SpecRT.get(), *R.Ast,
                                        *R.SM);
  if (R.Check) {
    if (Command != "check")
      std::cout << '\n';
    std::cout << R.Check->render(*R.SM);
  }
  if (R.LiveOracle) {
    std::cout << '\n' << R.LiveOracle->report().render(*R.SM);
    // The dynamic ground truth next to the static demands: when each
    // site's data was last read, in AllocSeq units.
    const auto &Last = R.LiveOracle->lastTouchBySite();
    if (R.Live && !Last.empty()) {
      std::cout << "last touch by site (alloc-seq units):\n";
      for (const live::SiteLive &S : R.Live->Sites) {
        auto It = Last.find(S.Site->id());
        if (It == Last.end())
          continue;
        LineColumn LC = R.SM->lineColumn(S.Site->loc());
        std::cout << "  site " << S.Site->id() << " at " << LC.Line << ':'
                  << LC.Column << ": seq " << It->second
                  << " (static demand " << S.Dem.str() << ")\n";
      }
    }
  }
  if (Cli.TimePhases) {
    std::cout << '\n';
    printPhaseTimes(R);
  }
  if (R.Check && (R.Check->count(check::FindingSeverity::Error) > 0 ||
                  R.Check->hasViolations()))
    return 1;
  if (R.LiveOracle && !R.LiveOracle->report().Violations.empty())
    return 1;
  return ExportOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage();
  std::string Command = argv[1];
  std::string Path = argv[2];
  if (Command == "timeline")
    return runTimeline(argc, argv);
  if (Command != "analyze" && Command != "optimize" && Command != "run" &&
      Command != "disasm" && Command != "report" && Command != "check" &&
      Command != "profile" && Command != "explain" && Command != "live" &&
      Command != "spec")
    return usage();

  PipelineOptions Options;
  Options.RunProgram = Command == "run" || Command == "report" ||
                       Command == "profile" || Command == "spec";
  Options.Spec.Enable = Command == "spec";
  Options.RunLint = Command == "check" || Command == "profile";
  Options.RunExplain = Command == "explain";
  Options.RunLive = Command == "live";
  Options.Obs.Command = Command;
  CliOutputs Cli;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--mono")
      Options.Mode = TypeInferenceMode::Monomorphic;
    else if (Arg == "--stdlib")
      Options.IncludeStdlib = true;
    else if (Arg == "--vm")
      Options.Engine = ExecutionEngine::Bytecode;
    else if (Arg == "--whole-object")
      Options.Optimize.Analysis = EscapeAnalysisMode::WholeObject;
    else if (Arg == "--no-reuse")
      Options.Optimize.EnableReuse = false;
    else if (Arg == "--no-stack")
      Options.Optimize.EnableStack = false;
    else if (Arg == "--no-region")
      Options.Optimize.EnableRegion = false;
    else if (Arg == "--validate")
      Options.Run.ValidateArenaFrees = true;
    else if (Arg == "--heap" && I + 1 < argc) {
      uint64_t Cells = 0;
      if (!parseCount("--heap", argv[++I], MaxHeapCells, Cells))
        return 2;
      Options.Run.HeapCapacity = Cells;
    } else if (Arg.rfind("--trace=", 0) == 0)
      Options.Obs.TracePath = Arg.substr(std::strlen("--trace="));
    else if (Arg.rfind("--stats-json=", 0) == 0)
      Options.Obs.StatsJsonPath = Arg.substr(std::strlen("--stats-json="));
    else if (Arg == "--time-phases")
      Cli.TimePhases = true;
    else if (Arg.rfind("--record=", 0) == 0)
      Options.Obs.RecordPath = Arg.substr(std::strlen("--record="));
    else if (Arg.rfind("--record-binary=", 0) == 0) {
      Options.Obs.RecordPath = Arg.substr(std::strlen("--record-binary="));
      Options.Obs.RecordBinary = true;
    } else if (Arg.rfind("--rec-dump=", 0) == 0)
      Options.Obs.RecDumpPath = Arg.substr(std::strlen("--rec-dump="));
    else if (Arg == "--check")
      Options.RunLint = true;
    else if (Arg == "--oracle")
      Options.RunOracle = true;
    else if (Arg == "--live")
      Options.RunLive = true;
    else if (Arg == "--live-oracle")
      Options.RunLiveOracle = true;
    else if (Arg == "--live-gc") {
      Options.LiveGcPrune = true;
      Options.RunLive = true;
    } else if (Arg.rfind("--live-json=", 0) == 0) {
      Cli.LiveJsonPath = Arg.substr(std::strlen("--live-json="));
      Options.RunLive = true;
    } else if (Arg.rfind("--check-json=", 0) == 0) {
      Cli.CheckJsonPath = Arg.substr(std::strlen("--check-json="));
      Options.RunLint = true;
    } else if (Arg.rfind("--profile-json=", 0) == 0 && Command == "profile")
      Cli.ProfileJsonPath = Arg.substr(std::strlen("--profile-json="));
    else if (Arg.rfind("--folded=", 0) == 0 && Command == "profile")
      Cli.FoldedPath = Arg.substr(std::strlen("--folded="));
    else if (Arg.rfind("--at=", 0) == 0 && Command == "explain")
      Cli.AtSpec = Arg.substr(std::strlen("--at="));
    else if (Arg.rfind("--explain-json=", 0) == 0 && Command != "profile") {
      Cli.ExplainJsonPath = Arg.substr(std::strlen("--explain-json="));
      Options.RunExplain = true;
    } else if (Arg.rfind("--dot=", 0) == 0 && Command != "profile") {
      Cli.DotPath = Arg.substr(std::strlen("--dot="));
      Options.RunExplain = true;
    } else if (Arg == "--spec")
      Options.Spec.Enable = true;
    else if (Arg.rfind("--spec-inject-deopt=", 0) == 0) {
      std::string Spec = Arg.substr(std::strlen("--spec-inject-deopt="));
      if (!parseInjectSpec(Spec, Options.Spec.Inject)) {
        std::cerr << "eal: error: malformed --spec-inject-deopt '" << Spec
                  << "' (expected SITE[:N] or all)\n";
        return 2;
      }
      Options.Spec.Enable = true;
    } else if (Arg.rfind("--spec-cold-max=", 0) == 0) {
      if (!parseCount("--spec-cold-max",
                      Arg.substr(std::strlen("--spec-cold-max=")), UINT64_MAX,
                      Options.Spec.ColdMaxEntries))
        return 2;
    } else if (Arg.rfind("--spec-hot-min=", 0) == 0) {
      if (!parseCount("--spec-hot-min",
                      Arg.substr(std::strlen("--spec-hot-min=")), UINT64_MAX,
                      Options.Spec.HotMinAllocs))
        return 2;
    } else if (Arg.rfind("--spec-json=", 0) == 0) {
      Cli.SpecJsonPath = Arg.substr(std::strlen("--spec-json="));
      Options.Spec.Enable = true;
    } else
      return usage();
  }

  std::string Source;
  if (!readSource(Path, Source))
    return 1;
  Options.SourceName = Path == "-" ? "<stdin>" : Path;

  // Printing and the disasm compile recurse as deep as the program, like
  // the pipeline, so the whole command runs on the pipeline's big stack.
  int Rc = 1;
  runOnLargeStack([&] { Rc = runCommand(Command, Source, Options, Cli); });
  return Rc;
}
