//===- RecorderTest.cpp - flight recorder + timeline tests ----------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// The flight recorder end to end (docs/RECORDER.md): streaming a run
// into an eal-rec-v1 file and replaying it with Timeline, the flight
// ring's order, wrap and non-consuming dumps, the stream's losslessness
// past the ring (from one thread or several taking turns), the SIGABRT
// dump, the forced failure dump whose tail names the refutation, and
// the differential guarantees — recording a run changes nothing about
// the run, and the replayed totals equal the run's own RuntimeStats,
// across generated programs, seeds, engines, and both file formats.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Recorder.h"
#include "obs/Timeline.h"
#include "property/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

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

//===----------------------------------------------------------------------===//
// The flight ring and the stream
//===----------------------------------------------------------------------===//

/// The flight ring's capacity (Recorder.cpp): a dump holds at most this
/// many events before its trigger mark.
constexpr uint64_t RingCapacity = 8192;

/// The events of the recording at \p Path in file order, either format.
std::vector<rec::RecEvent> rawEvents(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Line;
  std::getline(In, Line); // header
  std::vector<rec::RecEvent> Out;
  rec::RecEvent Ev;
  if (Line.find("\"format\":\"binary\"") != std::string::npos) {
    while (In.read(reinterpret_cast<char *>(&Ev), sizeof(Ev)) &&
           Ev.Kind != 0xFFFF)
      Out.push_back(Ev);
    return Out;
  }
  while (std::getline(In, Line) &&
         std::sscanf(Line.c_str(),
                     "{\"t\":%" SCNu64 ",\"tid\":%" SCNu16 ",\"k\":%" SCNu16
                     ",\"a\":%" SCNu64 ",\"b\":%" SCNu64 ",\"c\":%" SCNu32 "}",
                     &Ev.TimeUs, &Ev.Tid, &Ev.Kind, &Ev.A, &Ev.B,
                     &Ev.C) == 6)
    Out.push_back(Ev);
  return Out;
}

std::string startTestStream(const char *Name, bool Binary) {
  rec::StreamOptions Opts;
  Opts.Path = tempPath(Name);
  Opts.Binary = Binary;
  Opts.Command = "test";
  std::string Err;
  EXPECT_TRUE(rec::startStream(Opts, &Err)) << Err;
  return Opts.Path;
}

void stopTestStream() {
  std::string Err;
  EXPECT_TRUE(rec::stopStream(&Err)) << Err;
}

/// Emits CellTouch events with A = First, First + 1, ... (N of them).
void emitTouches(uint64_t First, uint64_t N) {
  for (uint64_t I = First; I != First + N; ++I)
    rec::emit(rec::RecKind::CellTouch, I, /*SiteId=*/7);
}

/// Counts the events of \p Events whose A does not run First, First+1,
/// ... in order.
size_t outOfSequence(const std::vector<rec::RecEvent> &Events, size_t Count,
                     uint64_t First) {
  size_t Bad = 0;
  for (size_t I = 0; I != Count; ++I)
    Bad += Events[I].A != First + I;
  return Bad;
}

TEST(RecorderStream, LosesNoEventPastRingCapacity) {
  for (bool Binary : {false, true}) {
    std::string Path = startTestStream("lossless.rec", Binary);
    const uint64_t N = 3 * RingCapacity + 17;
    for (uint64_t Seq = 1; Seq <= N; ++Seq)
      rec::emit(rec::RecKind::CellBirth, Seq, /*SiteId=*/7, rec::TlHeap);
    stopTestStream();

    rec::Timeline T;
    std::string Err;
    ASSERT_TRUE(T.load(Path, &Err)) << Err;
    EXPECT_EQ(T.Dropped, 0u);
    EXPECT_EQ(T.BirthsByClass[rec::TlHeap], N);
    // Every AllocSeq arrived, once, in emission order.
    std::vector<rec::RecEvent> Events = rawEvents(Path);
    ASSERT_EQ(Events.size(), N) << "binary " << Binary;
    EXPECT_EQ(outOfSequence(Events, N, 1), 0u) << "binary " << Binary;
    std::remove(Path.c_str());
  }
}

TEST(RecorderStream, EveryFieldSurvivesABinaryRoundTrip) {
  struct Sent {
    rec::RecKind Kind;
    uint64_t A, B;
    uint32_t C;
  };
  const Sent Events[] = {
      {rec::RecKind::SpecDeopt, ~0ULL, 0xfeedfacecafebeefULL, 0xdeadbeef},
      {rec::RecKind::CellDcons, 0, 1, 0},
      {rec::RecKind::GcEnd, 0x0123456789abcdefULL, 42, ~0U},
  };
  std::string Path = startTestStream("fields.bin.rec", /*Binary=*/true);
  const uint64_t Before = static_cast<uint64_t>(nowMicros());
  for (const Sent &E : Events)
    rec::emit(E.Kind, E.A, E.B, E.C);
  stopTestStream();

  std::vector<rec::RecEvent> Read = rawEvents(Path);
  ASSERT_EQ(Read.size(), std::size(Events));
  uint64_t Last = Before;
  for (size_t I = 0; I != Read.size(); ++I) {
    EXPECT_EQ(Read[I].Kind, static_cast<uint16_t>(Events[I].Kind));
    EXPECT_EQ(Read[I].A, Events[I].A);
    EXPECT_EQ(Read[I].B, Events[I].B);
    EXPECT_EQ(Read[I].C, Events[I].C);
    EXPECT_EQ(Read[I].Tid, 0u);
    EXPECT_GE(Read[I].TimeUs, Last) << "events are stamped in order";
    Last = Read[I].TimeUs;
  }
  std::remove(Path.c_str());
}

TEST(RecorderFlight, WrapKeepsNewestAndDumpCountsTheRest) {
  // An empty stream clears the ring, whatever ran before in this process.
  std::string StreamPath = startTestStream("clear.rec", /*Binary=*/false);
  stopTestStream();
  std::remove(StreamPath.c_str());

  const uint64_t N = 3 * RingCapacity + 5;
  emitTouches(0, N);
  std::string Path = tempPath("wrap.rec");
  rec::setDumpPath(Path, "test");
  ASSERT_TRUE(rec::dumpNow("wrap"));
  rec::clearDumpPath();

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Dropped, N - RingCapacity);
  std::vector<rec::RecEvent> Events = rawEvents(Path);
  ASSERT_EQ(Events.size(), RingCapacity + 1); // + the trigger mark
  EXPECT_EQ(outOfSequence(Events, RingCapacity, N - RingCapacity), 0u);
  EXPECT_EQ(Events.back().Kind,
            static_cast<uint16_t>(rec::RecKind::DumpTrigger));
  std::remove(Path.c_str());
}

TEST(RecorderDump, DumpDuringStreamHoldsTheNewestEvents) {
  std::string StreamPath =
      startTestStream("mid-stream.rec", /*Binary=*/false);
  std::string DumpPath = tempPath("mid-stream-dump.rec");
  rec::setDumpPath(DumpPath, "test");
  const uint64_t N = 2 * RingCapacity + 3, More = 10;
  emitTouches(0, N);
  ASSERT_TRUE(rec::dumpNow("mid-stream"));
  emitTouches(N, More);
  stopTestStream();
  rec::clearDumpPath();

  // The dump holds the newest ring-full at the trigger...
  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(DumpPath, &Err)) << Err;
  EXPECT_EQ(T.Trigger, "mid-stream");
  EXPECT_EQ(T.Dropped, N - RingCapacity);
  std::vector<rec::RecEvent> Dumped = rawEvents(DumpPath);
  ASSERT_EQ(Dumped.size(), RingCapacity + 1);
  EXPECT_EQ(outOfSequence(Dumped, RingCapacity, N - RingCapacity), 0u);
  // ...and the stream still holds every event, the ones after it too.
  std::vector<rec::RecEvent> Streamed = rawEvents(StreamPath);
  ASSERT_EQ(Streamed.size(), N + More);
  EXPECT_EQ(outOfSequence(Streamed, N + More, 0), 0u);
  std::remove(DumpPath.c_str());
  std::remove(StreamPath.c_str());
}

// The flight ring's own contracts, under the names they had while the
// ring was a class of its own: events come out oldest first, and a
// dump reads the ring without consuming it.

TEST(EventRingTest, PushPopFifoOrder) {
  std::string StreamPath = startTestStream("fifo-clear.rec", /*Binary=*/false);
  stopTestStream();
  std::remove(StreamPath.c_str());

  emitTouches(0, 5);
  std::string Path = tempPath("fifo.rec");
  rec::setDumpPath(Path, "test");
  ASSERT_TRUE(rec::dumpNow("fifo"));
  rec::clearDumpPath();

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Dropped, 0u);
  std::vector<rec::RecEvent> Events = rawEvents(Path);
  ASSERT_EQ(Events.size(), 5u + 1); // + the trigger mark
  EXPECT_EQ(outOfSequence(Events, 5, 0), 0u);
  std::remove(Path.c_str());
}

TEST(EventRingTest, SnapshotDoesNotConsume) {
  std::string StreamPath = startTestStream("snap-clear.rec", /*Binary=*/false);
  stopTestStream();
  std::remove(StreamPath.c_str());

  emitTouches(0, 3);
  std::string First = tempPath("snap-first.rec");
  rec::setDumpPath(First, "test");
  ASSERT_TRUE(rec::dumpNow("first"));
  // Re-arming takes a second snapshot of the same ring, two events on.
  emitTouches(3, 2);
  std::string Second = tempPath("snap-second.rec");
  rec::setDumpPath(Second, "test");
  ASSERT_TRUE(rec::dumpNow("second"));
  rec::clearDumpPath();

  std::vector<rec::RecEvent> Before = rawEvents(First);
  ASSERT_EQ(Before.size(), 3u + 1);
  EXPECT_EQ(outOfSequence(Before, 3, 0), 0u);
  // The first dump took nothing out: the second holds those 3 as well.
  std::vector<rec::RecEvent> After = rawEvents(Second);
  ASSERT_EQ(After.size(), 5u + 1);
  EXPECT_EQ(outOfSequence(After, 5, 0), 0u);
  std::remove(First.c_str());
  std::remove(Second.c_str());
}

// The recorder keeps no per-thread state: whichever thread feeds it
// writes into the one ring and the one stream, so producers that take
// turns, on threads that have exited by the end, lose nothing.
TEST(RecorderStress, StreamingIsLosslessAcrossFourProducerThreads) {
  const unsigned NumThreads = 4;
  const uint64_t PerThread = RingCapacity + 100;
  std::string Path = startTestStream("turns.rec", /*Binary=*/true);
  for (unsigned T = 0; T != NumThreads; ++T)
    std::thread([T, PerThread] {
      for (uint64_t I = 0; I != PerThread; ++I)
        rec::emit(rec::RecKind::CellBirth, T * PerThread + I, /*SiteId=*/T,
                  rec::TlHeap);
    }).join();
  stopTestStream();

  rec::Timeline Tl;
  std::string Err;
  ASSERT_TRUE(Tl.load(Path, &Err)) << Err;
  EXPECT_EQ(Tl.Dropped, 0u) << "a stream is lossless";
  EXPECT_EQ(Tl.BirthsByClass[rec::TlHeap], NumThreads * PerThread);
  std::vector<rec::RecEvent> Events = rawEvents(Path);
  ASSERT_EQ(Events.size(), NumThreads * PerThread);
  EXPECT_EQ(outOfSequence(Events, Events.size(), 0), 0u);
  std::remove(Path.c_str());
}

// With one producer, the only dump that can run while events are still
// being emitted is the SIGABRT hook's: an abort raised in the middle of
// a run dumps the ring from the signal handler before the process dies.
TEST(RecorderStress, FlightDumpRunsConcurrentlyWithProducers) {
  const uint64_t N = RingCapacity + 40;
  std::string Path = tempPath("abort-dump.rec");
  std::remove(Path.c_str());
  EXPECT_DEATH(
      {
        rec::setDumpPath(Path, "test");
        for (uint64_t I = 0; I != 2 * N; ++I) {
          if (I == N)
            std::abort();
          rec::emit(rec::RecKind::CellTouch, I, /*SiteId=*/7);
        }
      },
      "");

  rec::Timeline T;
  std::string Err;
  ASSERT_TRUE(T.load(Path, &Err)) << Err;
  EXPECT_EQ(T.Mode, "flight");
  EXPECT_EQ(T.Trigger, "sigabrt");
  // The newest ring-full before the abort, then the trigger mark.
  std::vector<rec::RecEvent> Events = rawEvents(Path);
  ASSERT_EQ(Events.size(), RingCapacity + 1);
  EXPECT_EQ(outOfSequence(Events, RingCapacity, N - RingCapacity), 0u);
  EXPECT_EQ(Events.back().Kind,
            static_cast<uint16_t>(rec::RecKind::DumpTrigger));
  std::remove(Path.c_str());
}

// --spec runs the program once more, on the engine asked for, before
// the measured run. A recording holds the measured run alone: no cell event
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
