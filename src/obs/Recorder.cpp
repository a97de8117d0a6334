//===- Recorder.cpp - Flight ring, stream and dump writers ----------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Layout of this file:
//   - the recorder state, the flight ring among it: the newest events,
//     overwritten oldest first;
//   - the eal-rec-v1 writer (NDJSON and binary, docs/RECORDER.md);
//   - the Chrome trace writer (--trace=FILE), one trace_event object
//     per lite event;
//   - emit, which stores into the ring and writes the event to the
//     stream file and the Chrome trace that are open;
//   - the string interner feeding 16-bit name ids into events;
//   - the stream (--record=FILE) and the crash-dump path
//     (setDumpPath/dumpNow + SIGABRT hook);
//   - PhaseTimer, whose phases become the timeline's bands.
//
// Every producer runs on the thread that runs the pipeline, so the
// recorder takes no lock, and the stream and the trace are in emission
// (= time) order.
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"

#include "support/Metrics.h"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <vector>

using namespace eal;
using namespace eal::obs;
using namespace eal::obs::rec;

std::atomic<bool> rec::detail::LiteOn{true};

const char *rec::kindName(RecKind K) {
  static const char *const Names[] = {
      "none",        "run.begin",  "run.end",      "phase.begin",
      "phase.end",   "gc.begin",   "gc.end",       "heap.grow",
      "arena.open",  "arena.free", "cell.birth",   "cell.death",
      "cell.dcons",  "cell.touch", "cell.migrate", "spec.deopt",
      "oracle.refuted", "live.refuted", "dump.trigger",
  };
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                    static_cast<size_t>(RecKind::NumKinds),
                "kind name table out of sync");
  size_t I = static_cast<size_t>(K);
  return I < static_cast<size_t>(RecKind::NumKinds) ? Names[I] : "invalid";
}

namespace {

/// Flight-ring capacity: a dump holds at most this many events.
constexpr uint64_t FlightCapacity = 8192;
static_assert((FlightCapacity & (FlightCapacity - 1)) == 0,
              "the ring index masks by capacity");
constexpr uint16_t SentinelKind = 0xFFFF;

struct RecState {
  /// The flight ring. Emitted counts the events stored since the ring
  /// was last cleared; the ring holds the newest min(Emitted,
  /// FlightCapacity) of them and has overwritten the rest.
  RecEvent Flight[FlightCapacity];
  uint64_t Emitted = 0;

  // Interner (ids 0/1 reserved, see Recorder.h).
  std::vector<std::string> Names{"<none>", "<overflow>"};
  std::unordered_map<std::string, uint16_t> NameIds;

  // Final counters for the footer, keyed: a repeated key overwrites its
  // value in place, so the table holds one entry per key in
  // first-insertion order however many runs report.
  std::vector<std::pair<std::string, uint64_t>> Counters;

  // Stream (--record=FILE): every event is also written here as it is
  // emitted.
  bool Streaming = false;
  bool Binary = false;
  std::ofstream Out;

  // Chrome trace (--trace=FILE): every lite event is also written here
  // as it is emitted. TraceEmpty: no element written yet, so the next
  // one takes no leading comma.
  bool Tracing = false;
  bool TraceEmpty = true;
  std::ofstream TraceOut;

  // Crash dump. Armed is the first-trigger-wins latch: the first
  // dumpNow() disarms it.
  std::atomic<bool> Armed{false};
  std::string DumpPath;
  std::string DumpTriggerName;
  std::string DumpCommand = "run";
  bool AbortHooked = false;
};

/// Leaked on purpose: the SIGABRT hook may dump after static
/// destructors have run.
RecState &state() {
  static RecState *S = new RecState;
  return *S;
}

//===----------------------------------------------------------------------===//
// eal-rec-v1 writer
//===----------------------------------------------------------------------===//

/// \p Stream selects mode "stream" (which carries the per-cell detail
/// tier) over "flight" (a dump of the lite ring).
void writeHeader(std::ostream &OS, bool Stream, bool Binary,
                 const std::string &Command) {
  OS << "{\"schema\":\"eal-rec-v1\",\"format\":\""
     << (Binary ? "binary" : "ndjson") << "\",\"mode\":\""
     << (Stream ? "stream" : "flight")
     << "\",\"command\":" << jsonQuote(Command)
     << ",\"detail\":" << (Stream ? "true" : "false")
     << ",\"epoch_us\":" << nowMicros() << ",\"kinds\":[";
  for (size_t I = 0; I != static_cast<size_t>(RecKind::NumKinds); ++I) {
    if (I)
      OS << ',';
    OS << jsonQuote(kindName(static_cast<RecKind>(I)));
  }
  OS << "]}\n";
}

/// One event: an NDJSON line, or the struct verbatim when \p Binary.
/// Streams call this once per emitted event, on the emitting thread.
void writeEvent(std::ostream &OS, const RecEvent &Ev, bool Binary) {
  if (Binary) {
    OS.write(reinterpret_cast<const char *>(&Ev), sizeof(RecEvent));
    return;
  }
  // At most 112 bytes. Each number is written below Buf + 128, so the
  // key after it fits.
  char Buf[160];
  char *P = Buf;
  auto Field = [&](std::string_view Key, uint64_t V) {
    P = std::copy(Key.begin(), Key.end(), P);
    P = std::to_chars(P, Buf + 128, V).ptr;
  };
  Field("{\"t\":", Ev.TimeUs);
  Field(",\"tid\":", Ev.Tid);
  Field(",\"k\":", Ev.Kind);
  Field(",\"a\":", Ev.A);
  Field(",\"b\":", Ev.B);
  Field(",\"c\":", Ev.C);
  *P++ = '}';
  *P++ = '\n';
  OS.write(Buf, P - Buf);
}

void writeFooter(std::ostream &OS, const RecState &S, uint64_t Dropped,
                 std::string_view Trigger) {
  OS << "{\"footer\":true,\"names\":[";
  for (size_t I = 0; I != S.Names.size(); ++I) {
    if (I)
      OS << ',';
    OS << jsonQuote(S.Names[I]);
  }
  OS << "],\"counters\":{";
  for (size_t I = 0; I != S.Counters.size(); ++I) {
    if (I)
      OS << ',';
    OS << jsonQuote(S.Counters[I].first) << ':' << S.Counters[I].second;
  }
  OS << "},\"dropped\":" << Dropped << ",\"trigger\":" << jsonQuote(Trigger)
     << "}\n";
}

//===----------------------------------------------------------------------===//
// Chrome trace writer
//===----------------------------------------------------------------------===//

/// The trace args of one kind: the names of its payload words A, B, C
/// (RecEvent.h; null ends the list) and, as bits 0 (A) and 1 (B), the
/// words that hold an interned name.
struct TraceArgs {
  const char *Key[3] = {nullptr, nullptr, nullptr};
  unsigned Interned = 0;
};

const TraceArgs TraceArgTable[] = {
    {},                                            // none
    {{"command", "engine"}, 3},                    // run.begin
    {{"success"}},                                 // run.end
    {},                                            // phase.begin: the name
    {},                                            // phase.end: the name
    {{"live", "capacity"}},                        // gc.begin
    {{"marked", "swept", "live"}},                 // gc.end
    {{"capacity"}},                                // heap.grow
    {{"handle"}},                                  // arena.open
    {{"stack_cells", "region_cells", "handle"}},   // arena.free
    {}, {}, {}, {}, {},                            // cell.*: not written
    {{"cause", "migrated", "site"}, 1},            // spec.deopt
    {{"site", "violation"}, 2},                    // oracle.refuted
    {{"site", "violation"}, 2},                    // live.refuted
    {},                                            // dump.trigger: dumps only
};
static_assert(std::size(TraceArgTable) ==
                  static_cast<size_t>(RecKind::NumKinds),
              "trace arg table out of sync");

/// One trace_event object. Phases and GC cycles are "B"/"E" pairs named
/// by the phase and "gc"; every other kind is a thread-scoped instant
/// named by its kind. The category is the kind's family ("phase",
/// "gc", "arena", ...).
void writeChromeEvent(RecState &S, const RecEvent &Ev) {
  const auto K = static_cast<RecKind>(Ev.Kind);
  if (K >= RecKind::CellBirth && K <= RecKind::CellMigrate)
    return; // the per-cell detail tier has no trace view
  const std::string_view Kind = kindName(K);
  std::string Name(Kind);
  char Ph = 'i';
  if (K == RecKind::PhaseBegin || K == RecKind::PhaseEnd) {
    Name = lookupName(static_cast<uint16_t>(Ev.A));
    Ph = K == RecKind::PhaseBegin ? 'B' : 'E';
  } else if (K == RecKind::GcBegin || K == RecKind::GcEnd) {
    Name = "gc";
    Ph = K == RecKind::GcBegin ? 'B' : 'E';
  }
  std::ostream &OS = S.TraceOut;
  OS << (S.TraceEmpty ? "" : ",\n") << "{\"name\":" << jsonQuote(Name)
     << ",\"cat\":" << jsonQuote(Kind.substr(0, Kind.find('.')))
     << ",\"ph\":\"" << Ph << (Ph == 'i' ? "\",\"s\":\"t" : "")
     << "\",\"ts\":" << Ev.TimeUs << ",\"pid\":1,\"tid\":" << Ev.Tid;
  const TraceArgs &Args = TraceArgTable[Ev.Kind];
  const uint64_t Words[] = {Ev.A, Ev.B, Ev.C};
  for (unsigned I = 0; I != 3 && Args.Key[I]; ++I) {
    OS << (I ? ",\"" : ",\"args\":{\"") << Args.Key[I] << "\":";
    if (Args.Interned >> I & 1)
      OS << jsonQuote(lookupName(static_cast<uint16_t>(Words[I])));
    else
      OS << Words[I];
  }
  OS << (Args.Key[0] ? "}}" : "}");
  S.TraceEmpty = false;
}

} // namespace

void rec::detail::emitSlow(RecKind K, uint64_t A, uint64_t B, uint32_t C) {
  RecState &S = state();
  RecEvent &Ev = S.Flight[S.Emitted++ & (FlightCapacity - 1)];
  Ev.TimeUs = static_cast<uint64_t>(nowMicros());
  Ev.A = A;
  Ev.B = B;
  Ev.C = C;
  Ev.Kind = static_cast<uint16_t>(K);
  Ev.Tid = 0;
  if (S.Streaming)
    writeEvent(S.Out, Ev, S.Binary);
  if (S.Tracing)
    writeChromeEvent(S, Ev);
}

//===----------------------------------------------------------------------===//
// Interner
//===----------------------------------------------------------------------===//

uint16_t rec::internName(std::string_view Name) {
  RecState &S = state();
  auto It = S.NameIds.find(std::string(Name));
  if (It != S.NameIds.end())
    return It->second;
  if (S.Names.size() > 0xFFFE)
    return 1; // "<overflow>"
  uint16_t Id = static_cast<uint16_t>(S.Names.size());
  S.Names.emplace_back(Name);
  S.NameIds.emplace(S.Names.back(), Id);
  return Id;
}

std::string rec::lookupName(uint16_t Id) {
  const RecState &S = state();
  return Id < S.Names.size() ? S.Names[Id] : std::string("<unknown>");
}

size_t rec::internedNameCount() { return state().Names.size(); }

size_t rec::finalCounterCount() { return state().Counters.size(); }

void rec::setLiteEnabled(bool On) {
  detail::LiteOn.store(On, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Stream
//===----------------------------------------------------------------------===//

bool rec::startStream(const StreamOptions &Opts, std::string *Err) {
  RecState &S = state();
  if (S.Streaming) {
    if (Err)
      *Err = "recorder: already streaming";
    return false;
  }
  S.Out.open(Opts.Path, Opts.Binary
                            ? (std::ios::out | std::ios::trunc |
                               std::ios::binary)
                            : (std::ios::out | std::ios::trunc));
  if (!S.Out) {
    if (Err)
      *Err = "recorder: cannot open " + Opts.Path;
    return false;
  }
  // A stream is a fresh recording: clear the flight history left over
  // from earlier (unrecorded) runs in this process, so a dump taken
  // during the stream holds this run's events alone.
  S.Emitted = 0;
  S.Binary = Opts.Binary;
  S.Counters.clear();
  writeHeader(S.Out, /*Stream=*/true, S.Binary, Opts.Command);
  S.Streaming = true;
  return true;
}

bool rec::stopStream(std::string *Err) {
  RecState &S = state();
  if (!S.Streaming)
    return true;
  S.Streaming = false;
  if (S.Binary) {
    RecEvent Sentinel;
    Sentinel.Kind = SentinelKind;
    writeEvent(S.Out, Sentinel, /*Binary=*/true);
  }
  // Every event reached the file as it was emitted: a stream drops none.
  writeFooter(S.Out, S, /*Dropped=*/0, "");
  S.Out.close();
  if (!S.Out) {
    if (Err)
      *Err = "recorder: write failed closing stream";
    return false;
  }
  return true;
}

bool rec::streaming() { return state().Streaming; }

//===----------------------------------------------------------------------===//
// Chrome trace
//===----------------------------------------------------------------------===//

bool rec::startTrace(const std::string &Path) {
  RecState &S = state();
  if (S.Tracing)
    return false;
  S.TraceOut.open(Path, std::ios::out | std::ios::trunc);
  if (!S.TraceOut)
    return false;
  S.TraceOut << "[\n";
  S.Tracing = true;
  S.TraceEmpty = true;
  return true;
}

bool rec::stopTrace() {
  RecState &S = state();
  if (!S.Tracing)
    return true;
  S.Tracing = false;
  S.TraceOut << "\n]\n";
  S.TraceOut.close();
  return static_cast<bool>(S.TraceOut);
}

//===----------------------------------------------------------------------===//
// Crash dumps
//===----------------------------------------------------------------------===//

namespace {

extern "C" void recAbortHandler(int) {
  // Best effort: ofstream is not async-signal-safe; this trades strict
  // safety for forensics on what is already a fatal path. The latch
  // keeps an abort raised inside a dump from dumping again.
  rec::dumpNow("sigabrt");
  std::signal(SIGABRT, SIG_DFL);
}

} // namespace

void rec::setDumpPath(std::string Path, std::string Command) {
  RecState &S = state();
  S.DumpPath = std::move(Path);
  S.DumpCommand = std::move(Command);
  S.DumpTriggerName.clear();
  S.Counters.clear();
  S.Armed.store(!S.DumpPath.empty());
  if (!S.DumpPath.empty() && !S.AbortHooked) {
    std::signal(SIGABRT, recAbortHandler);
    S.AbortHooked = true;
  }
}

void rec::clearDumpPath() {
  RecState &S = state();
  S.Armed.store(false);
  S.DumpPath.clear();
  if (S.AbortHooked) {
    std::signal(SIGABRT, SIG_DFL);
    S.AbortHooked = false;
  }
}

bool rec::dumpNow(std::string_view Trigger) {
  RecState &S = state();
  if (!S.Armed.exchange(false))
    return false;

  RecEvent Mark;
  Mark.TimeUs = static_cast<uint64_t>(nowMicros());
  Mark.Kind = static_cast<uint16_t>(RecKind::DumpTrigger);
  Mark.A = internName(Trigger);

  std::ofstream OS(S.DumpPath, std::ios::out | std::ios::trunc);
  if (!OS)
    return false;
  writeHeader(OS, /*Stream=*/false, /*Binary=*/false, S.DumpCommand);
  uint64_t Held = std::min(S.Emitted, FlightCapacity);
  for (uint64_t I = S.Emitted - Held; I != S.Emitted; ++I)
    writeEvent(OS, S.Flight[I & (FlightCapacity - 1)], /*Binary=*/false);
  writeEvent(OS, Mark, /*Binary=*/false);
  writeFooter(OS, S, S.Emitted - Held, Trigger);
  OS.close();
  S.DumpTriggerName.assign(Trigger.data(), Trigger.size());
  return static_cast<bool>(OS);
}

std::string rec::lastDumpTrigger() { return state().DumpTriggerName; }

void rec::finalCounter(std::string_view Key, uint64_t Value) {
  RecState &S = state();
  for (auto &[Name, Old] : S.Counters)
    if (Name == Key) {
      Old = Value;
      return;
    }
  S.Counters.emplace_back(std::string(Key), Value);
}

//===----------------------------------------------------------------------===//
// PhaseTimer
//===----------------------------------------------------------------------===//

obs::PhaseTimer::PhaseTimer(PhaseTimes *Out, const char *Name)
    : Out(Out), Name(Name), StartUs(nowMicros()) {
  if (rec::on()) {
    NameId = internName(Name);
    emit(RecKind::PhaseBegin, NameId);
  }
}

obs::PhaseTimer::~PhaseTimer() {
  int64_t Micros = nowMicros() - StartUs;
  if (NameId)
    emit(RecKind::PhaseEnd, NameId);
  if (Out)
    Out->emplace_back(Name, Micros);
  if (metricsEnabled()) {
    MetricsRegistry &Reg = globalMetrics();
    Reg.counter(std::string("phase.") + Name + ".micros")
        .add(static_cast<uint64_t>(Micros));
    Reg.counter(std::string("phase.") + Name + ".runs").add(1);
  }
}
