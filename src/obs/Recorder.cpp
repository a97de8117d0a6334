//===- Recorder.cpp - Ring pool, drain thread, eal-rec-v1 writer ----------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Layout of this file:
//   - the ring pool: one EventRing per concurrently-emitting thread,
//     acquired on first emit and released (for reuse) at thread exit so
//     256 sequential short-lived threads share one ring;
//   - the string interner feeding 16-bit name ids into events;
//   - the eal-rec-v1 writer (NDJSON and binary, docs/RECORDER.md);
//   - the streaming drain thread (--record=FILE);
//   - the crash-dump path (setDumpPath/dumpNow + SIGABRT hook);
//   - PhaseTimer, whose phases become the timeline's bands.
//
// Lock order: DumpM before M before RecentM. The emit fast path takes
// no lock at all (thread-local ring handle + lock-free push).
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"

#include "obs/EventRing.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
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

/// A pooled ring: Tid is the ring's identity in recordings (stable
/// across producer-thread reuse), InUse is the pool claim flag.
struct ThreadRing {
  EventRing Ring;
  uint16_t Tid = 0;
  std::atomic<bool> InUse{false};
};

constexpr size_t RecentWindow = EventRing::DefaultCapacity;
constexpr uint16_t SentinelKind = 0xFFFF;

struct RecState {
  /// Guards the ring registry, interner, counters, and stream
  /// start/stop. Never taken on the emit path.
  std::mutex M;
  std::vector<std::unique_ptr<ThreadRing>> Rings;

  // Interner (ids 0/1 reserved, see Recorder.h).
  std::vector<std::string> Names{"<none>", "<overflow>"};
  std::unordered_map<std::string, uint16_t> NameIds;

  // Final counters for the footer, keyed: a repeated key overwrites its
  // value in place, so the table holds one entry per key in
  // first-insertion order however many runs report.
  std::vector<std::pair<std::string, uint64_t>> Counters;

  // Streaming drain.
  std::atomic<bool> StreamingOn{false};
  std::atomic<bool> DrainStop{false};
  std::thread Drain;
  std::ofstream Out;
  bool Binary = false;
  std::string StreamCommand;
  /// Ring drop counters are cumulative for the life of the process;
  /// the stream footer reports drops during *this* stream, so start
  /// snapshots the total and stop subtracts it.
  uint64_t StreamDroppedBase = 0;

  /// Tail window of already-drained events, so a dump fired while
  /// streaming still has history (the rings have been emptied).
  std::mutex RecentM;
  std::deque<RecEvent> Recent;

  // Crash dump.
  std::mutex DumpM;
  std::string DumpPath;
  std::string DumpTriggerName;
  std::string DumpCommand = "run";
  std::atomic<bool> DumpArmed{false};
  std::atomic<bool> DumpedFlag{false};
  bool AbortHooked = false;
};

/// Leaked on purpose: producer threads release their ring from a
/// thread_local destructor, which can run after static destructors.
RecState &state() {
  static RecState *S = new RecState;
  return *S;
}

//===----------------------------------------------------------------------===//
// Ring pool
//===----------------------------------------------------------------------===//

struct RingHandle {
  ThreadRing *TR = nullptr;
  ~RingHandle() {
    if (TR)
      TR->InUse.store(false, std::memory_order_release);
  }
};

thread_local RingHandle TlsRing;

ThreadRing *myRing() {
  if (TlsRing.TR)
    return TlsRing.TR;
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  for (auto &R : S.Rings) {
    bool Free = false;
    if (R->InUse.compare_exchange_strong(Free, true,
                                         std::memory_order_acq_rel)) {
      TlsRing.TR = R.get();
      return TlsRing.TR;
    }
  }
  if (S.Rings.size() > 0xFFFF)
    return nullptr; // ring-id space exhausted; drop this thread's events
  S.Rings.push_back(std::make_unique<ThreadRing>());
  ThreadRing *TR = S.Rings.back().get();
  TR->Tid = static_cast<uint16_t>(S.Rings.size() - 1);
  TR->InUse.store(true, std::memory_order_release);
  TlsRing.TR = TR;
  return TR;
}

/// Raw ring pointers, for iteration without holding M (the registry
/// only grows; ThreadRing addresses are stable).
std::vector<ThreadRing *> ringPointers(RecState &S) {
  std::lock_guard<std::mutex> Lock(S.M);
  std::vector<ThreadRing *> Out;
  Out.reserve(S.Rings.size());
  for (auto &R : S.Rings)
    Out.push_back(R.get());
  return Out;
}

} // namespace

void rec::detail::emitSlow(RecKind K, uint64_t A, uint64_t B, uint32_t C) {
  ThreadRing *TR = myRing();
  if (!TR)
    return;
  RecEvent Ev;
  Ev.TimeUs = static_cast<uint64_t>(nowMicros());
  Ev.A = A;
  Ev.B = B;
  Ev.C = C;
  Ev.Kind = static_cast<uint16_t>(K);
  Ev.Tid = TR->Tid;
  RecState &S = state();
  // While a stream is live, never lose an event: wait for the drain.
  // The flag is re-read every iteration so a producer stuck on a full
  // ring falls back to flight overwrite the moment the stream stops.
  for (;;) {
    if (!S.StreamingOn.load(std::memory_order_acquire)) {
      TR->Ring.pushOverwrite(Ev);
      return;
    }
    if (TR->Ring.tryPush(Ev))
      return;
    std::this_thread::yield();
  }
}

//===----------------------------------------------------------------------===//
// Interner
//===----------------------------------------------------------------------===//

namespace {

uint16_t internLocked(RecState &S, std::string_view Name) {
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

} // namespace

uint16_t rec::internName(std::string_view Name) {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return internLocked(S, Name);
}

std::string rec::lookupName(uint16_t Id) {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return Id < S.Names.size() ? S.Names[Id] : std::string("<unknown>");
}

size_t rec::internedNameCount() {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Names.size();
}

size_t rec::finalCounterCount() {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Counters.size();
}

void rec::setLiteEnabled(bool On) {
  detail::LiteOn.store(On, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// eal-rec-v1 writer
//===----------------------------------------------------------------------===//

namespace {

/// \p Stream selects mode "stream" (which carries the per-cell detail
/// tier) over "flight" (a dump of the lite rings).
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

void writeEventNdjson(std::ostream &OS, const RecEvent &Ev) {
  OS << "{\"t\":" << Ev.TimeUs << ",\"tid\":" << Ev.Tid << ",\"k\":" << Ev.Kind
     << ",\"a\":" << Ev.A << ",\"b\":" << Ev.B << ",\"c\":" << Ev.C << "}\n";
}

void writeEventBinary(std::ostream &OS, const RecEvent &Ev) {
  OS.write(reinterpret_cast<const char *>(&Ev), sizeof(RecEvent));
}

/// Caller holds S.M (the footer snapshots the interner and counters).
void writeFooterLocked(std::ostream &OS, RecState &S, uint64_t Dropped,
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

uint64_t totalDropped(const std::vector<ThreadRing *> &Rings) {
  uint64_t N = 0;
  for (ThreadRing *R : Rings)
    N += R->Ring.dropped();
  return N;
}

//===----------------------------------------------------------------------===//
// Streaming drain
//===----------------------------------------------------------------------===//

/// Pops everything currently in the rings, writes it (time-sorted
/// within the batch), and appends it to the Recent window. Returns the
/// batch size.
size_t drainOnce(RecState &S, std::vector<RecEvent> &Batch) {
  Batch.clear();
  RecEvent Ev;
  for (ThreadRing *R : ringPointers(S))
    while (R->Ring.pop(Ev))
      Batch.push_back(Ev);
  if (Batch.empty())
    return 0;
  std::stable_sort(Batch.begin(), Batch.end(),
                   [](const RecEvent &A, const RecEvent &B) {
                     return A.TimeUs < B.TimeUs;
                   });
  for (const RecEvent &E : Batch)
    S.Binary ? writeEventBinary(S.Out, E) : writeEventNdjson(S.Out, E);
  S.Out.flush(); // live consumers tail this file
  {
    std::lock_guard<std::mutex> Lock(S.RecentM);
    S.Recent.insert(S.Recent.end(), Batch.begin(), Batch.end());
    while (S.Recent.size() > RecentWindow)
      S.Recent.pop_front();
  }
  return Batch.size();
}

void drainLoop(RecState &S) {
  std::vector<RecEvent> Batch;
  Batch.reserve(1024);
  for (;;) {
    if (drainOnce(S, Batch) != 0)
      continue;
    if (S.DrainStop.load(std::memory_order_acquire)) {
      // One more sweep wins the race against producers that pushed
      // between our last pass and the stop flag.
      if (drainOnce(S, Batch) == 0)
        return;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

} // namespace

bool rec::startStream(const StreamOptions &Opts, std::string *Err) {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.StreamingOn.load(std::memory_order_acquire)) {
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
  // A stream is a fresh recording: discard flight history left over
  // from earlier (unrecorded) runs in this process, so the file holds
  // exactly this run's events and timelines reconcile exactly.
  RecEvent Scratch;
  for (auto &R : S.Rings)
    while (R->Ring.pop(Scratch))
      ;
  {
    std::lock_guard<std::mutex> RLock(S.RecentM);
    S.Recent.clear();
  }
  S.Binary = Opts.Binary;
  S.StreamCommand = Opts.Command;
  S.StreamDroppedBase = 0;
  for (auto &R : S.Rings)
    S.StreamDroppedBase += R->Ring.dropped();
  S.Counters.clear();
  writeHeader(S.Out, /*Stream=*/true, S.Binary, S.StreamCommand);
  S.DrainStop.store(false, std::memory_order_release);
  S.StreamingOn.store(true, std::memory_order_release);
  S.Drain = std::thread([&S] { drainLoop(S); });
  return true;
}

bool rec::stopStream(std::string *Err) {
  RecState &S = state();
  if (!S.StreamingOn.load(std::memory_order_acquire))
    return true;
  S.DrainStop.store(true, std::memory_order_release);
  if (S.Drain.joinable())
    S.Drain.join();
  S.StreamingOn.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Binary) {
    RecEvent Sentinel;
    Sentinel.Kind = SentinelKind;
    writeEventBinary(S.Out, Sentinel);
  }
  std::vector<ThreadRing *> Rings;
  Rings.reserve(S.Rings.size());
  for (auto &R : S.Rings)
    Rings.push_back(R.get());
  writeFooterLocked(S.Out, S, totalDropped(Rings) - S.StreamDroppedBase, "");
  S.Out.close();
  if (!S.Out) {
    if (Err)
      *Err = "recorder: write failed closing stream";
    return false;
  }
  return true;
}

bool rec::streaming() {
  return state().StreamingOn.load(std::memory_order_acquire);
}

//===----------------------------------------------------------------------===//
// Crash dumps
//===----------------------------------------------------------------------===//

namespace {

extern "C" void recAbortHandler(int) {
  // Best effort: every lock on this path is try_lock, so a signal that
  // lands while a recorder lock is held skips the dump rather than
  // deadlocking. (ofstream is not async-signal-safe either; this trades
  // strict safety for forensics on what is already a fatal path.)
  rec::dumpNow("sigabrt");
  std::signal(SIGABRT, SIG_DFL);
}

} // namespace

void rec::setDumpPath(std::string Path, std::string Command) {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.DumpPath = std::move(Path);
  S.DumpCommand = std::move(Command);
  S.DumpTriggerName.clear();
  S.Counters.clear();
  S.DumpedFlag.store(false, std::memory_order_release);
  S.DumpArmed.store(!S.DumpPath.empty(), std::memory_order_release);
  if (S.DumpArmed.load(std::memory_order_relaxed) && !S.AbortHooked) {
    std::signal(SIGABRT, recAbortHandler);
    S.AbortHooked = true;
  }
}

void rec::clearDumpPath() {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.DumpArmed.store(false, std::memory_order_release);
  S.DumpPath.clear();
  if (S.AbortHooked) {
    std::signal(SIGABRT, SIG_DFL);
    S.AbortHooked = false;
  }
}

bool rec::dumpNow(std::string_view Trigger) {
  RecState &S = state();
  if (!S.DumpArmed.load(std::memory_order_acquire) ||
      S.DumpedFlag.load(std::memory_order_acquire))
    return false;
  std::unique_lock<std::mutex> DumpLock(S.DumpM, std::try_to_lock);
  if (!DumpLock.owns_lock())
    return false;
  std::unique_lock<std::mutex> Lock(S.M, std::try_to_lock);
  if (!Lock.owns_lock())
    return false;
  if (S.DumpedFlag.load(std::memory_order_relaxed) || S.DumpPath.empty())
    return false;

  // Collect: the Recent window (events the drain already consumed)
  // plus whatever is still sitting in the rings.
  std::vector<RecEvent> Events;
  if (S.StreamingOn.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> RLock(S.RecentM);
    Events.assign(S.Recent.begin(), S.Recent.end());
  }
  for (auto &R : S.Rings)
    R->Ring.snapshot(Events);
  std::stable_sort(Events.begin(), Events.end(),
                   [](const RecEvent &A, const RecEvent &B) {
                     return A.TimeUs < B.TimeUs;
                   });
  // The drain may have moved an event ring->Recent between the two
  // collection passes above; drop exact duplicates.
  Events.erase(std::unique(Events.begin(), Events.end(),
                           [](const RecEvent &A, const RecEvent &B) {
                             return A.TimeUs == B.TimeUs && A.Tid == B.Tid &&
                                    A.Kind == B.Kind && A.A == B.A &&
                                    A.B == B.B && A.C == B.C;
                           }),
               Events.end());

  RecEvent Mark;
  Mark.TimeUs = static_cast<uint64_t>(nowMicros());
  Mark.Kind = static_cast<uint16_t>(RecKind::DumpTrigger);
  Mark.A = internLocked(S, Trigger);
  Events.push_back(Mark);

  std::ofstream OS(S.DumpPath, std::ios::out | std::ios::trunc);
  if (!OS)
    return false;
  writeHeader(OS, /*Stream=*/false, /*Binary=*/false, S.DumpCommand);
  for (const RecEvent &E : Events)
    writeEventNdjson(OS, E);
  std::vector<ThreadRing *> Rings;
  Rings.reserve(S.Rings.size());
  for (auto &R : S.Rings)
    Rings.push_back(R.get());
  writeFooterLocked(OS, S, totalDropped(Rings), Trigger);
  OS.close();
  S.DumpTriggerName.assign(Trigger.data(), Trigger.size());
  S.DumpedFlag.store(true, std::memory_order_release);
  return static_cast<bool>(OS);
}

std::string rec::lastDumpTrigger() {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.DumpTriggerName;
}

void rec::finalCounter(std::string_view Key, uint64_t Value) {
  RecState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
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

obs::PhaseTimer::PhaseTimer(PhaseTimes *Out, const char *Name,
                            const char *Category)
    : Out(Out), Name(Name), S(Name, Category), StartUs(nowMicros()) {
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
