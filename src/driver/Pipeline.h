//===- Pipeline.h - Source-to-result driver ---------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call public API: nml source text in; parse, type inference,
/// escape analysis, sharing analysis, optimization, and (optionally)
/// execution out. Examples, tests, and benchmarks are all built on this.
///
/// Typical use:
/// \code
///   eal::PipelineOptions Options;
///   eal::PipelineResult R = eal::runPipeline(Source, Options);
///   if (!R.Success) { /* consult R.diagnostics() */ }
///   std::cout << R.RenderedValue << "\n" << R.Stats.str();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef EAL_DRIVER_PIPELINE_H
#define EAL_DRIVER_PIPELINE_H

#include "check/Linter.h"
#include "check/LiveOracle.h"
#include "check/Oracle.h"
#include "explain/Explain.h"
#include "live/LiveAnalyzer.h"
#include "obs/Recorder.h"
#include "opt/Optimizer.h"
#include "runtime/Interpreter.h"
#include "spec/SpecReport.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace eal {

/// Which engine executes the final program.
enum class ExecutionEngine {
  /// The recursive tree-walking interpreter (default).
  TreeWalker,
  /// The bytecode compiler + iterative stack VM (no C++-stack recursion).
  Bytecode,
};

/// Observability routing (docs/OBSERVABILITY.md), honored uniformly by
/// every pipeline entry regardless of which subcommand drives it. The
/// pipeline opens its outputs up front and closes or exports them on
/// the way out — including on early-failure paths, since a trace of a
/// failed run is exactly what one wants for debugging it. Export
/// failures land in PipelineResult::ObsExportErrors rather than
/// flipping Success (the run itself may have been fine).
struct ObservabilityOptions {
  /// Write the flight recorder's lite events (phases, GC cycles, heap
  /// growth, arena opens and frees, deopts, oracle refutations) here
  /// as a Chrome trace_event JSON file, as the run emits them. Tracing
  /// changes no work the run does. Empty disables tracing.
  std::string TracePath;
  /// Write runtime counters + the metrics registry as an eal-stats-v1
  /// JSON document here. Empty disables metrics.
  std::string StatsJsonPath;
  /// Command name embedded in exported documents ("run", "check", ...).
  std::string Command = "pipeline";
  /// Stream the flight-recorder event feed into this eal-rec-v1 file
  /// (docs/RECORDER.md): NDJSON lines by default, raw binary records
  /// when RecordBinary is set. Streaming enables the per-cell detail
  /// tier for the duration of the run. Empty disables streaming (the
  /// always-on flight buffers keep running either way).
  std::string RecordPath;
  bool RecordBinary = false;
  /// Arm the flight recorder to dump its retained event window here on
  /// the first failure trigger (oracle refutation, liveness refutation,
  /// spec deopt, failed run, SIGABRT). Empty leaves dumping disarmed.
  std::string RecDumpPath;
};

/// Pipeline configuration.
struct PipelineOptions {
  /// Type discipline (§3.1 monomorphic vs §5 polymorphic).
  TypeInferenceMode Mode = TypeInferenceMode::Polymorphic;
  /// Display name of the source buffer (diagnostics, exported reports).
  std::string SourceName = "<input>";
  /// Splice the standard prelude (src/driver/Stdlib.h) into the program.
  bool IncludeStdlib = false;
  /// Which optimizations to apply.
  OptimizerConfig Optimize;
  /// Whether to execute the final program.
  bool RunProgram = true;
  /// Which engine runs it.
  ExecutionEngine Engine = ExecutionEngine::TreeWalker;
  /// Engine knobs (heap size, fuel, arena validation, the profiler of
  /// docs/PROFILING.md, which also observes the run's cell events).
  Interpreter::Options Run;
  /// Run the whole pipeline on a 512 MB stack: every pass recurses as
  /// deep as its input nests (support/LargeStack.h).
  bool UseLargeStack = true;
  /// Run the static lints and, once optimization finishes, the
  /// per-allocation "why is this still on the GC heap" explanations.
  /// Findings land in PipelineResult::Check.
  bool RunLint = false;
  /// Record why-provenance through the whole pipeline and build blame
  /// chains for every allocation site (docs/EXPLAIN.md). The report
  /// lands in PipelineResult::Explain; RunLint alone also attaches the
  /// recorder so findings carry Blame arrays, but builds no chains.
  bool RunExplain = false;
  /// Cross-check every static escape claim against the concrete run
  /// (eal::check dynamic oracle) on the chosen engine, which reports the
  /// activations the oracle checks. Forces arena-free validation;
  /// implies the program is executed. A refuted claim aborts the run
  /// with an error.
  bool RunOracle = false;
  /// Run the backward heap-liveness analysis (src/live) over the final
  /// program: per-function demand summaries, per-site demands, and the
  /// EAL-D dead-data findings (appended to PipelineResult::Check). The
  /// report lands in PipelineResult::Live. Observation-only — the plan
  /// and the executed program are untouched, so enabling it cannot
  /// change a program's output.
  bool RunLive = false;
  /// Cross-check every EAL-D001 dead-site claim against the concrete
  /// run (check::LivenessOracle): a field read or result-reachability
  /// of a claimed-dead cell is a violation. Implies RunLive and program
  /// execution on the chosen engine (it needs only births and touches,
  /// which both engines report). Violations land in
  /// PipelineResult::LiveOracle — they do not abort the run; callers
  /// decide.
  bool RunLiveOracle = false;
  /// Arm the one liveness *consumer* that changes runtime behaviour:
  /// the GC consults the dead-site set during marking and skips the
  /// children of claimed-dead cells (Heap::setDeadSites). Requires
  /// RunLive; off by default so the analysis stays observation-only
  /// unless explicitly requested.
  bool LiveGcPrune = false;
  /// The speculative tier (docs/SPECULATION.md). When enabled and the
  /// program is executed, the pipeline first runs a profiling pre-run on
  /// the chosen engine (nml is deterministic with no input, so the
  /// pre-run *is* the real run), then plans guarded speculative
  /// directives for profile-cold branches and executes the merged plan
  /// with a spec::SpecRuntime attached. Requires execution; ignored for
  /// plan-only invocations.
  /// The planner's thresholds are the inherited SpecPlannerOptions.
  struct SpeculationOptions : spec::SpecPlannerOptions {
    bool Enable = false;
    /// Deterministic guard-failure injection (--spec-inject-deopt).
    spec::SpecInjection Inject;
  };
  SpeculationOptions Spec;
  /// Tracing, stats export and the flight recorder.
  ObservabilityOptions Obs;
};

/// Everything one pipeline run produces. Owns all contexts, so reports,
/// AST pointers, and the result value stay valid for its lifetime.
struct PipelineResult {
  bool Success = false;

  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<AstContext> Ast;
  std::unique_ptr<TypeContext> Types;

  /// The parsed (original) program.
  const Expr *ParsedRoot = nullptr;
  /// Types of the original program.
  std::optional<TypedProgram> Typed;
  /// The why-provenance graph (present iff RunLint or RunExplain was
  /// set; the analyses recorded into it during optimization). Declared
  /// before Optimized, whose final analyzer records into it.
  std::unique_ptr<explain::ProvenanceRecorder> Prov;
  /// Analysis + transformation output (valid once parsing/typing
  /// succeeded).
  std::optional<OptimizedProgram> Optimized;

  /// The speculative plan (present iff Spec.Enable and the profiling
  /// pre-run succeeded; may hold zero speculations). Declared before
  /// the engines: they hold pointers into Merged, so it must outlive
  /// them (members destroy in reverse order).
  std::optional<spec::SpecPlan> SpecPlan;
  /// The speculative runtime attached to the executing engine (present
  /// iff SpecPlan has at least one speculation).
  std::unique_ptr<spec::SpecRuntime> SpecRT;

  /// The engine (kept alive so Value remains valid) and its result.
  std::unique_ptr<Interpreter> Interp;
  std::optional<Chunk> Code;    ///< bytecode (Bytecode engine only)
  std::unique_ptr<Vm> TheVm;    ///< the VM (Bytecode engine only)
  std::optional<RtValue> Value;
  std::string RenderedValue;
  RuntimeStats Stats;

  /// Lint findings, the oracle cross-check report and the EAL-D
  /// dead-data findings (present iff RunLint, RunOracle, RunLive or
  /// RunLiveOracle was set).
  std::optional<check::CheckReport> Check;
  /// Blame chains for every allocation site of the final program
  /// (present iff RunExplain was set; references *Prov).
  std::optional<explain::ExplainReport> Explain;
  /// The escape oracle (kept so tests can inspect it; its report is also
  /// copied into Check->Oracle).
  std::unique_ptr<check::EscapeOracle> Oracle;
  /// The liveness analysis report (present iff RunLive / RunLiveOracle
  /// was set).
  std::optional<live::LiveReport> Live;
  /// The dynamic liveness oracle (present iff RunLiveOracle was set;
  /// kept alive so callers can read its report and last-touch map).
  std::unique_ptr<check::LivenessOracle> LiveOracle;
  /// Every consumer of the measured run's cell events (caller observer,
  /// oracles, profiler, recorder detail tier) on one channel.
  std::unique_ptr<ObserverFanOut> Observers;
  /// The dead-site set handed to the heap under LiveGcPrune (the heap
  /// borrows it, so it must outlive the engine).
  std::unique_ptr<std::unordered_set<uint32_t>> LiveDeadSites;

  /// Wall time of each pipeline phase in the order the phases end, as
  /// {name, µs}. Two phases nest others and overlap them: "escape",
  /// "sharing", "retype", "final-escape" and "plan" come from inside
  /// "optimize", and "compile" (VM only), "heap-init" and "run" from
  /// inside "execute". The top-level entries sum to nearly the whole
  /// runPipeline wall time.
  obs::PhaseTimer::PhaseTimes PhaseMicros;

  /// Failures of the ObservabilityOptions exports ("cannot write
  /// 'x.json'"); does not affect Success.
  std::vector<std::string> ObsExportErrors;

  /// Rendered diagnostics (empty when clean).
  std::string diagnostics() const {
    return Diags && SM ? Diags->render(*SM) : std::string();
  }
};

/// Runs the pipeline over \p Source.
PipelineResult runPipeline(const std::string &Source,
                           const PipelineOptions &Options = PipelineOptions());

} // namespace eal

#endif // EAL_DRIVER_PIPELINE_H
