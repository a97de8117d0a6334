//===- RecorderTest.cpp - flight recorder + timeline tests ----------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The flight recorder end to end (docs/RECORDER.md): streaming a run
// into an eal-rec-v1 file and replaying it with Timeline, the forced
// failure dump whose tail names the refutation, and the differential
// guarantees — recording a run changes nothing about the run, and the
// replayed totals equal the run's own RuntimeStats, across generated
// programs, seeds, engines, and both file formats.
//
// These tests require the recorder compiled in; tests/CMakeLists.txt
// only builds them under -DEAL_OBS_RECORDER=ON (the default).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Recorder.h"
#include "obs/Timeline.h"
#include "property/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

using namespace eal;
using namespace eal::obs;
using namespace eal::test;

namespace {

// A little list-heavy program: heap, stack, and region classes plus a
// DCONS reuse all show up, so timelines have something to reconcile.
const char *const Workload =
    "letrec\n"
    "  iota n = if n = 0 then nil else cons n (iota (n - 1));\n"
    "  sum l = if (null l) then 0 else (car l) + (sum (cdr l));\n"
    "  rev l acc = if (null l) then acc\n"
    "              else rev (cdr l) (cons (car l) acc)\n"
    "in (sum (rev (iota 200) nil)) + (sum (iota 100))\n";

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

PipelineResult recordedRun(const std::string &Source, const std::string &Rec,
                           bool Binary, ExecutionEngine Engine) {
  PipelineOptions Options;
  Options.Engine = Engine;
  Options.Obs.RecordPath = Rec;
  Options.Obs.RecordBinary = Binary;
  Options.Obs.Command = "test";
  return runPipeline(Source, Options);
}

//===----------------------------------------------------------------------===//
// Stream round trip
//===----------------------------------------------------------------------===//

class StreamRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(StreamRoundTrip, TimelineReconcilesWithRuntimeStats) {
  const bool Binary = GetParam();
  std::string Path = tempPath(Binary ? "roundtrip.bin.rec" : "roundtrip.rec");
  PipelineResult R = recordedRun(Workload, Path, Binary,
                                 ExecutionEngine::TreeWalker);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  ASSERT_TRUE(R.ObsExportErrors.empty()) << R.ObsExportErrors.front();

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Mode, "stream");
  EXPECT_EQ(T.Format, Binary ? "binary" : "ndjson");
  EXPECT_EQ(T.Command, "test");
  EXPECT_TRUE(T.Detail);
  EXPECT_EQ(T.Dropped, 0u) << "streaming mode must be lossless";
  EXPECT_FALSE(T.Counters.empty()) << "footer must carry RuntimeStats";

  std::string Why;
  EXPECT_TRUE(T.reconciles(&Why)) << Why;

  // Not just vacuously: the replay saw the run's actual volume.
  uint64_t Births = T.BirthsByClass[rec::TlHeap] +
                    T.BirthsByClass[rec::TlStack] +
                    T.BirthsByClass[rec::TlRegion];
  EXPECT_EQ(Births, R.Stats.totalCellsAllocated());
  EXPECT_EQ(T.GcRuns, R.Stats.GcRuns);
  // The pipeline's phases and the optimizer's layers inside "optimize"
  // are both bands.
  std::set<std::string> Bands;
  for (const rec::PhaseBand &B : T.Phases)
    Bands.insert(B.Name);
  EXPECT_TRUE(Bands.count("optimize"));
  EXPECT_TRUE(Bands.count("final-escape"));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, StreamRoundTrip, ::testing::Bool());

// --spec runs the program once more, on the tree-walker, before the
// measured run. A recording holds the measured run alone: no cell event
// of the pre-run, and a replay that skips its heap events, so the
// timeline reconciles on either engine.
TEST(SpecRecording, HoldsTheMeasuredRunOnly) {
  for (ExecutionEngine Engine :
       {ExecutionEngine::TreeWalker, ExecutionEngine::Bytecode}) {
    std::string Path = tempPath("spec.rec");
    PipelineOptions Options;
    Options.Engine = Engine;
    Options.Spec.Enable = true;
    Options.Run.HeapCapacity = 64; // both runs collect
    Options.Obs.RecordPath = Path;
    PipelineResult R = runPipeline(Workload, Options);
    ASSERT_TRUE(R.Success) << R.diagnostics();
    ASSERT_GT(R.Stats.GcRuns, 0u);

    rec::Timeline T;
    std::string Err;
    ASSERT_TRUE(T.load(Path, &Err)) << Err;
    uint64_t Births = T.BirthsByClass[rec::TlHeap] +
                      T.BirthsByClass[rec::TlStack] +
                      T.BirthsByClass[rec::TlRegion];
    EXPECT_EQ(Births, R.Stats.totalCellsAllocated());
    EXPECT_EQ(T.GcRuns, R.Stats.GcRuns);
    std::string Why;
    EXPECT_TRUE(T.reconciles(&Why)) << Why;
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Forced-failure dumps
//===----------------------------------------------------------------------===//

TEST(RecorderDump, TailNamesTheRefutedSite) {
  std::string Path = tempPath("refuted.rec");
  rec::setDumpPath(Path, "test");
  const uint32_t Site = 1185;
  rec::emit(rec::RecKind::OracleRefuted, Site,
            rec::internName("escape-claim"));
  ASSERT_TRUE(rec::dumpNow("oracle-refuted"));
  EXPECT_EQ(rec::lastDumpTrigger(), "oracle-refuted");
  // First trigger wins; a second failure must not clobber the evidence.
  EXPECT_FALSE(rec::dumpNow("spec-deopt"));
  rec::clearDumpPath();

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Mode, "flight");
  EXPECT_EQ(T.Trigger, "oracle-refuted");

  // The tail of the dump names the refutation: the last two markers are
  // the refuted site and the dump trigger itself.
  ASSERT_GE(T.Markers.size(), 2u);
  const rec::Marker &Refuted = T.Markers[T.Markers.size() - 2];
  EXPECT_EQ(Refuted.Kind, rec::RecKind::OracleRefuted);
  EXPECT_EQ(Refuted.A, Site);
  EXPECT_EQ(Refuted.Label, "escape-claim");
  const rec::Marker &Trigger = T.Markers.back();
  EXPECT_EQ(Trigger.Kind, rec::RecKind::DumpTrigger);
  EXPECT_EQ(Trigger.Label, "oracle-refuted");
  std::remove(Path.c_str());
}

TEST(RecorderDump, FailedPipelineRunDumps) {
  std::string Path = tempPath("run-failed.rec");
  PipelineOptions Options;
  Options.Obs.RecDumpPath = Path;
  Options.Obs.Command = "test";
  PipelineResult R = runPipeline("let x = in", Options); // parse error
  EXPECT_FALSE(R.Success);

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Mode, "flight");
  EXPECT_EQ(T.Trigger, "run-failed");
  ASSERT_FALSE(T.Markers.empty());
  EXPECT_EQ(T.Markers.back().Kind, rec::RecKind::DumpTrigger);
  EXPECT_EQ(T.Markers.back().Label, "run-failed");
  std::remove(Path.c_str());
}

TEST(RecorderDump, CleanRunLeavesNoDump) {
  std::string Path = tempPath("clean.rec");
  PipelineOptions Options;
  Options.Obs.RecDumpPath = Path;
  PipelineResult R = runPipeline("1 + 1", Options);
  ASSERT_TRUE(R.Success) << R.diagnostics();
  std::ifstream In(Path);
  EXPECT_FALSE(In.good()) << "a successful run must not write a dump";
}

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

TEST(RecorderIntern, ReservedIdsAndStability) {
  EXPECT_EQ(rec::lookupName(0), "<none>");
  EXPECT_EQ(rec::lookupName(1), "<overflow>");
  uint16_t Id = rec::internName("recorder-test-name");
  EXPECT_GT(Id, 1u);
  EXPECT_EQ(rec::internName("recorder-test-name"), Id); // stable
  EXPECT_EQ(rec::lookupName(Id), "recorder-test-name");
}

// The 16-bit table overflow path lives in its own binary
// (InternOverflowTest.cpp): flooding the process-global interner would
// poison every later test in this one.

// Every runPipeline reports each RuntimeStats field as a final counter.
// The table is keyed, so a long-lived process that runs the pipeline
// over and over keeps one entry per field instead of growing per run.
TEST(RecorderFinalCounters, TableStaysFlatOverManyRuns) {
  size_t Fields = 0;
  RuntimeStats().forEachField(
      [&Fields](const char *, const char *, uint64_t) { ++Fields; });
  for (int I = 0; I != 10000; ++I)
    ASSERT_TRUE(runPipeline("1").Success);
  EXPECT_EQ(rec::finalCounterCount(), Fields);
}

//===----------------------------------------------------------------------===//
// Differential: recording must not change the run
//===----------------------------------------------------------------------===//

class RecorderDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RecorderDifferential, RecordedRunMatchesPlainRunAndReconciles) {
  const uint32_t Seed = GetParam();
  ProgramGenerator Gen(Seed);
  GenProgram Prog = Gen.generate(3);
  // Sweep both engines and both formats across the seed range.
  const ExecutionEngine Engine = Seed % 2 ? ExecutionEngine::TreeWalker
                                          : ExecutionEngine::Bytecode;
  const bool Binary = (Seed / 2) % 2;

  PipelineOptions Plain;
  Plain.Mode = TypeInferenceMode::Monomorphic;
  Plain.Engine = Engine;
  PipelineResult Base = runPipeline(Prog.Source, Plain);
  ASSERT_TRUE(Base.Success) << "seed " << Seed << ":\n"
                            << Prog.Source << Base.diagnostics();

  std::string Path = tempPath(("diff-" + std::to_string(Seed) + ".rec").c_str());
  PipelineOptions Recorded = Plain;
  Recorded.Obs.RecordPath = Path;
  Recorded.Obs.RecordBinary = Binary;
  PipelineResult R = runPipeline(Prog.Source, Recorded);
  ASSERT_TRUE(R.Success) << "seed " << Seed << ":\n" << Prog.Source;
  ASSERT_TRUE(R.ObsExportErrors.empty()) << R.ObsExportErrors.front();

  // Recording is observation-only: identical value, identical counters.
  EXPECT_EQ(R.RenderedValue, Base.RenderedValue) << "seed " << Seed;
  EXPECT_EQ(R.Stats.toJson(), Base.Stats.toJson()) << "seed " << Seed;

  // And the recording replays to exactly those counters.
  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << "seed " << Seed << ": " << Err;
  std::string Why;
  EXPECT_TRUE(T.reconciles(&Why)) << "seed " << Seed << ": " << Why;
  EXPECT_FALSE(T.Counters.empty());
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecorderDifferential,
                         ::testing::Range(1u, 257u));

} // namespace
