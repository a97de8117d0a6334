//===- Pipeline.cpp -------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "check/LiveLint.h"
#include "obs/Recorder.h"
#include "driver/Stdlib.h"
#include "lang/AstUtils.h"
#include "lang/Parser.h"
#include "prof/Profiler.h"
#include "runtime/ValuePrinter.h"
#include "spec/SpecPlanner.h"
#include "support/LargeStack.h"
#include "support/Metrics.h"

#include <fstream>

using namespace eal;

namespace {

/// The eal-stats-v1 document (its shape is specified in
/// docs/OBSERVABILITY.md).
bool writeStatsJson(const std::string &Path, const std::string &Command,
                    const PipelineResult &R) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n"
      << "  \"schema\": \"eal-stats-v1\",\n"
      << "  \"command\": " << obs::jsonQuote(Command) << ",\n"
      << "  \"success\": " << (R.Success ? "true" : "false") << ",\n"
      << "  \"value\": " << obs::jsonQuote(R.RenderedValue) << ",\n"
      << "  \"phases_us\": {";
  for (size_t I = 0; I != R.PhaseMicros.size(); ++I)
    Out << (I ? ", " : "") << obs::jsonQuote(R.PhaseMicros[I].first) << ": "
        << R.PhaseMicros[I].second;
  Out << "},\n"
      << "  \"counters\": " << R.Stats.toJson(2) << ",\n"
      << "  \"metrics\": " << obs::globalMetrics().toJson(2) << "\n"
      << "}\n";
  return static_cast<bool>(Out);
}

void runPipelineImpl(const std::string &Source,
                     const PipelineOptions &Options, PipelineResult &R) {
  R.SM = std::make_unique<SourceManager>();
  R.Diags = std::make_unique<DiagnosticEngine>();
  R.Ast = std::make_unique<AstContext>();
  R.Types = std::make_unique<TypeContext>();

  R.SM->setBuffer(Options.IncludeStdlib ? withStdlib(Source) : Source,
                  Options.SourceName);

  {
    obs::PhaseTimer T(&R.PhaseMicros, "parse");
    Parser P(R.SM->buffer(), *R.Ast, *R.Diags);
    R.ParsedRoot = P.parseProgram();
  }
  if (!R.ParsedRoot)
    return;

  // The liveness oracle checks the analysis's claims, so it implies the
  // analysis.
  const bool RunLive = Options.RunLive || Options.RunLiveOracle;

  if (Options.RunLint || Options.RunOracle || RunLive)
    R.Check.emplace();
  if (Options.RunLint) {
    obs::PhaseTimer T(&R.PhaseMicros, "lint");
    check::LintOptions LO;
    if (Options.IncludeStdlib)
      for (std::string_view Name : stdlibBindingNames())
        LO.ExemptTopLevel.emplace_back(Name);
    check::lintSource(*R.Ast, R.ParsedRoot, LO, *R.Check);
  }

  {
    obs::PhaseTimer T(&R.PhaseMicros, "type-inference");
    TypeInference TI(*R.Ast, *R.Types, *R.Diags, Options.Mode);
    R.Typed = TI.run(R.ParsedRoot);
  }
  if (!R.Typed)
    return;

  OptimizerConfig OptConfig = Options.Optimize;
  OptConfig.Mode = Options.Mode;
  if (Options.RunLint || Options.RunExplain || RunLive) {
    // One recorder spans the whole run: base/final escape analysis, the
    // sharing analysis, the planner, and the liveness analysis all
    // write into it, and findings plus blame chains index into the one
    // graph.
    R.Prov = std::make_unique<explain::ProvenanceRecorder>();
    OptConfig.Explain = R.Prov.get();
  }
  {
    obs::PhaseTimer T(&R.PhaseMicros, "optimize");
    R.Optimized = optimizeProgram(*R.Ast, *R.Types, *R.Typed, *R.Diags,
                                  OptConfig, &R.PhaseMicros);
  }
  if (!R.Optimized)
    return;

  // One site classification per run: the EAL-O explanations, the blame
  // chains, and the EAL-D storage test (D004) grade the final program
  // with the planner's own analyzer and verdicts, so they can never
  // disagree with the plan.
  const TypedProgram &FinalTyped = *R.Optimized->Typed;
  EscapeAnalyzer &FinalAnalyzer = *R.Optimized->FinalAnalyzer;
  std::vector<explain::SiteInfo> ClassifiedSites;
  bool HaveSites = false;
  auto classifySitesOnce = [&]() -> const std::vector<explain::SiteInfo> & {
    if (!HaveSites) {
      ClassifiedSites = explain::classifySites(
          *R.Ast, FinalTyped, FinalAnalyzer, R.Optimized->Plan);
      HaveSites = true;
    }
    return ClassifiedSites;
  };

  if (Options.RunLint || Options.RunExplain) {
    obs::PhaseTimer T(&R.PhaseMicros, "explain");
    const std::vector<explain::SiteInfo> &Sites = classifySitesOnce();
    if (Options.RunLint)
      check::explainBlockedAllocations(*R.Ast, FinalTyped, Sites,
                                       R.Optimized->Reuse,
                                       R.Optimized->FinalEscape,
                                       R.Prov.get(), *R.Check);
    if (Options.RunExplain)
      R.Explain = explain::buildExplainReport(*R.Ast, FinalTyped,
                                              Sites, *R.Prov);
  }

  if (RunLive) {
    // Backward heap-liveness over the same final program the engines
    // execute, so site ids line up with the runtime's ConsCell::SiteId
    // tags. Strictly observational: nothing downstream consults the
    // report unless LiveGcPrune arms the GC consumer.
    obs::PhaseTimer T(&R.PhaseMicros, "liveness");
    live::LiveAnalyzer LA(*R.Ast, R.Optimized->Root, &FinalTyped);
    if (R.Prov)
      LA.attachProvenance(R.Prov.get());
    R.Live = LA.run();
    check::LiveLintOptions LLO;
    if (Options.IncludeStdlib)
      for (std::string_view Name : stdlibBindingNames())
        LLO.ExemptContexts.emplace_back(Name);
    check::lintLiveness(*R.Ast, *R.Live, classifySitesOnce(),
                        &FinalTyped, R.Prov.get(), LLO, *R.Check);
  }
  if (R.Prov && obs::metricsEnabled())
    R.Prov->exportTo(obs::globalMetrics());

  if (!Options.RunProgram && !Options.RunOracle && !Options.RunLiveOracle) {
    R.Success = !R.Diags->hasErrors();
    return;
  }

  // The one place an engine is built and run, in R's slots: the spec
  // pre-run and the measured run both execute on the engine asked for.
  // The VM's chunk has a guard.spec at each branch Guards maps. Only the
  // measured run (non-null Phases) times its phases and fills R.Stats.
  // The dead-site set and the spec runtime exist only after the pre-run.
  using GuardMap = std::unordered_map<uint32_t, uint32_t>;
  const bool OnVm = Options.Engine == ExecutionEngine::Bytecode;
  auto Execute = [&](const AllocationPlan *Plan, const GuardMap *Guards,
                     DiagnosticEngine &Diags, const Interpreter::Options &Opts,
                     obs::PhaseTimer::PhaseTimes *Phases)
      -> std::optional<RtValue> {
    std::optional<obs::PhaseTimer> T;
    if (OnVm) {
      if (Phases)
        T.emplace(Phases, "compile");
      R.Code = compileToBytecode(*R.Ast, R.Optimized->Root, Plan, Diags,
                                 Guards);
      if (!R.Code)
        return std::nullopt;
    }
    if (Phases)
      T.emplace(Phases, "heap-init");
    if (OnVm)
      R.TheVm = std::make_unique<Vm>(*R.Code, Diags, Opts);
    else
      R.Interp = std::make_unique<Interpreter>(*R.Ast, FinalTyped, Plan,
                                               Diags, Opts);
    Heap &TheHeap = OnVm ? R.TheVm->heap() : R.Interp->heap();
    TheHeap.setDeadSites(R.LiveDeadSites.get());
    if (R.SpecRT)
      R.SpecRT->setHeap(&TheHeap);
    if (!Phases)
      return OnVm ? R.TheVm->run() : R.Interp->run();
    T.emplace(Phases, "run");
    std::optional<RtValue> Value = OnVm ? R.TheVm->run() : R.Interp->run();
    R.Stats = OnVm ? R.TheVm->stats() : R.Interp->stats();
    return Value;
  };

  Interpreter::Options RunOpts = Options.Run;

  if (Options.Spec.Enable) {
    // Profiling pre-run. nml is deterministic and takes no input, so this
    // run's branch counts and per-site allocation counts are exact for
    // the run below — the price of the tier is running the program
    // twice. Scratch diagnostics: a pre-run failure (fuel, heap) just
    // disables speculation; the real run will surface the error itself.
    spec::BranchProfile Branches;
    prof::Profiler PreProfile;
    bool PreRan = false;
    {
      obs::PhaseTimer T(&R.PhaseMicros, "spec-profile");
      DiagnosticEngine PreDiags;
      // Only the planner's profiler observes it: the caller's consumers
      // and any recording see the measured run alone.
      Interpreter::Options PreOpts = Options.Run;
      PreOpts.Observer = &PreProfile;
      PreOpts.Profiler = nullptr;
      PreOpts.Spec = &Branches;
      // The tree-walker reports every branch it enters; on the VM, a
      // guard.spec at the top of every branch reports it the same way.
      GuardMap EveryBranch;
      forEachExpr(R.Optimized->Root, [&](const Expr *E) {
        if (const auto *If = dyn_cast<IfExpr>(E))
          for (const Expr *Branch : {If->thenExpr(), If->elseExpr()})
            EveryBranch.emplace(Branch->id(), EveryBranch.size());
      });
      PreRan = Execute(&R.Optimized->Plan, &EveryBranch, PreDiags, PreOpts,
                       nullptr)
                   .has_value();
      // Its engine refers to PreDiags and the profiles: release it.
      R.TheVm.reset();
      R.Code.reset();
      R.Interp.reset();
    }
    if (PreRan) {
      obs::PhaseTimer T(&R.PhaseMicros, "spec-plan");
      R.SpecPlan = spec::planSpeculation(*R.Ast, R.Optimized->Root,
                                         R.Optimized->Plan, Branches,
                                         PreProfile, OptConfig, Options.Spec);
      if (R.SpecPlan->anySpeculation()) {
        R.SpecRT = std::make_unique<spec::SpecRuntime>(*R.SpecPlan,
                                                       Options.Spec.Inject);
        RunOpts.Spec = R.SpecRT.get();
      }
    }
  }
  // The plan the engines execute: merged (conservative + guarded
  // speculative directives) when the spec tier planned anything.
  const AllocationPlan *ExecPlan =
      R.SpecPlan ? &R.SpecPlan->Merged : &R.Optimized->Plan;

  if (Options.RunOracle) {
    obs::PhaseTimer T(&R.PhaseMicros, "claims");
    // A sound plan must also survive cell-by-cell arena-free validation.
    RunOpts.ValidateArenaFrees = true;
    R.Oracle = std::make_unique<check::EscapeOracle>(
        *R.Ast, check::buildClaimTable(*R.Ast, FinalTyped, FinalAnalyzer));
  }
  if (Options.RunLiveOracle) {
    obs::PhaseTimer T(&R.PhaseMicros, "live-claims");
    check::LiveClaims Claims;
    Claims.DeadSites = R.Live->deadSites();
    for (const live::SiteLive &S : R.Live->Sites)
      Claims.SiteLocs.emplace(S.Site->id(), S.Site->loc());
    R.LiveOracle = std::make_unique<check::LivenessOracle>(std::move(Claims));
  }
  // One channel for every consumer of the measured run's cell events.
  // The recorder's detail tier rides along only while a stream is open.
  R.Observers = std::make_unique<ObserverFanOut>();
  R.Observers->add(RunOpts.Observer);
  R.Observers->add(R.Oracle.get());
  R.Observers->add(R.LiveOracle.get());
  R.Observers->add(RunOpts.Profiler);
  if (obs::rec::on() && obs::rec::streaming())
    R.Observers->add(&cellRecorder());
  RunOpts.Observer = R.Observers->get();
  if (Options.LiveGcPrune && R.Live)
    R.LiveDeadSites = std::make_unique<std::unordered_set<uint32_t>>(
        R.Live->deadSites());

  // "execute" nests compile (VM only), heap-init and run, the way the
  // analysis layers nest inside "optimize".
  {
    obs::PhaseTimer T(&R.PhaseMicros, "execute");
    R.Value = Execute(ExecPlan,
                      R.SpecRT ? &R.SpecPlan->GuardsByBranch : nullptr,
                      *R.Diags, RunOpts, &R.PhaseMicros);
  }
  if (obs::metricsEnabled())
    R.Stats.exportTo(obs::globalMetrics());
  if (R.SpecRT && obs::metricsEnabled())
    R.SpecRT->exportTo(obs::globalMetrics());
  if (R.Oracle) {
    R.Oracle->finalize(R.Value ? &*R.Value : nullptr);
    R.Check->Oracle = R.Oracle->report();
    if (obs::metricsEnabled())
      R.Oracle->report().exportTo(obs::globalMetrics());
  }
  if (R.LiveOracle)
    R.LiveOracle->finalize(R.Value ? &*R.Value : nullptr);
  if (!R.Value)
    return;
  R.RenderedValue = renderValue(*R.Value);
  R.Success = !R.Diags->hasErrors();
}

} // namespace

PipelineResult eal::runPipeline(const std::string &Source,
                                const PipelineOptions &Options) {
  const ObservabilityOptions &Obs = Options.Obs;
  if (!Obs.StatsJsonPath.empty())
    obs::enableMetrics();

  PipelineResult R;

  // Flight-recorder wiring (docs/RECORDER.md). Arm the crash dump
  // before anything can fail, then open the stream and the Chrome
  // trace: both hold exactly this run's events, and startStream clears
  // the flight ring, so a dump taken during the stream holds this run's
  // events alone.
  if (!Obs.RecDumpPath.empty())
    obs::rec::setDumpPath(Obs.RecDumpPath, Obs.Command);
  bool Streaming = false;
  if (!Obs.RecordPath.empty()) {
    obs::rec::StreamOptions SO;
    SO.Path = Obs.RecordPath;
    SO.Binary = Obs.RecordBinary;
    SO.Command = Obs.Command;
    std::string Err;
    if (obs::rec::startStream(SO, &Err))
      Streaming = true;
    else
      R.ObsExportErrors.push_back(Err);
  }
  const bool Tracing =
      !Obs.TracePath.empty() && obs::rec::startTrace(Obs.TracePath);
  if (!Obs.TracePath.empty() && !Tracing)
    R.ObsExportErrors.push_back("cannot write '" + Obs.TracePath + "'");
  if (obs::rec::on())
    obs::rec::emit(obs::rec::RecKind::RunBegin,
                   obs::rec::internName(Obs.Command),
                   obs::rec::internName(Options.Engine ==
                                                ExecutionEngine::Bytecode
                                            ? "bytecode"
                                            : "tree-walker"));

  if (Options.UseLargeStack)
    runOnLargeStack([&] { runPipelineImpl(Source, Options, R); });
  else
    runPipelineImpl(Source, Options, R);

  obs::rec::emit(obs::rec::RecKind::RunEnd, R.Success ? 1 : 0);
  if (obs::rec::on())
    R.Stats.forEachField([](const char *Key, const char *, uint64_t V) {
      obs::rec::finalCounter(Key, V);
    });

  // Exports happen even on failure: a trace of a failed run is exactly
  // what one wants for debugging it. Every phase has ended by now, so
  // the trace's "B"/"E" pairs balance.
  if (Tracing && !obs::rec::stopTrace())
    R.ObsExportErrors.push_back("cannot write '" + Obs.TracePath + "'");
  if (!Obs.StatsJsonPath.empty() &&
      !writeStatsJson(Obs.StatsJsonPath, Obs.Command, R))
    R.ObsExportErrors.push_back("cannot write '" + Obs.StatsJsonPath + "'");

  // A failed pipeline is itself a dump trigger (after the final
  // counters so they reach the dump footer); stop the stream last so
  // its footer sees everything, then disarm.
  if (!R.Success)
    obs::rec::dumpNow("run-failed");
  if (Streaming) {
    std::string Err;
    if (!obs::rec::stopStream(&Err))
      R.ObsExportErrors.push_back(Err);
  }
  if (!Obs.RecDumpPath.empty())
    obs::rec::clearDumpPath();
  return R;
}
