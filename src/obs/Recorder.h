//===- Recorder.h - Always-on flight recorder + event stream ----*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder (docs/RECORDER.md): runtime subsystems emit
/// compact RecEvents on the thread that runs the pipeline. It is the
/// one producer of timed events, and four consumers read them:
///
///  - the always-on flight ring, which keeps the newest events;
///    dumpNow() writes them as an `eal-rec-v1` file when something goes
///    wrong (oracle refutation, liveness refutation, spec deopt,
///    SIGABRT, failed pipeline) — first trigger wins;
///  - the stream (`--record=FILE`): while it is open, emit also writes
///    each event to an NDJSON or binary file, so the file holds every
///    event in emission order;
///  - the Chrome trace (`--trace=FILE`): while it is open, emit also
///    writes each lite event as a Chrome trace_event object;
///  - `eal timeline` (Timeline.h): replays a recording into heap
///    occupancy curves, cell lifetime ribbons, and phase/GC bands.
///
/// Two event tiers keep the always-on cost near zero (the obs.overhead
/// bench gates it at <= 2%):
///
///  - lite (`on()`): run/phase boundaries, GC cycles, heap growth,
///    arena frees, deopts, oracle verdicts — O(dozens) per run;
///  - detail: per-cell births/deaths/touches/DCONS re-tags/deopt
///    migrations — O(allocations). These come from the runtime's cell
///    event channel: the pipeline attaches eal::cellRecorder()
///    (runtime/ExecutionObserver.h) to the measured run while a stream
///    is open, so only streams carry them.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_OBS_FLIGHT_RECORDER_H
#define EAL_OBS_FLIGHT_RECORDER_H

#include "obs/RecEvent.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eal::obs::rec {

namespace detail {
extern std::atomic<bool> LiteOn; ///< master switch (bench kill switch)
/// Stamps the time, stores into the flight ring and writes the event to
/// the stream file and the Chrome trace that are open.
void emitSlow(RecKind K, uint64_t A, uint64_t B, uint32_t C);
} // namespace detail

/// True when lite events are being recorded (the always-on default).
inline bool on() { return detail::LiteOn.load(std::memory_order_relaxed); }

/// Records one event (no-op unless on(); a single relaxed load when
/// idle). Payload word meanings are per-kind, see RecEvent.h.
inline void emit(RecKind K, uint64_t A = 0, uint64_t B = 0, uint32_t C = 0) {
  if (on())
    detail::emitSlow(K, A, B, C);
}

/// Interns \p S into the recording's name table; stable for the life of
/// the process. Id 0 is "<none>"; when the 16-bit table fills, further
/// names collapse to id 1 ("<overflow>").
uint16_t internName(std::string_view S);
/// The interned name for \p Id ("<none>" / "<overflow>" for 0/1;
/// "<unknown>" for an id never handed out). Testing/timeline aid.
std::string lookupName(uint16_t Id);
/// Number of distinct names interned so far (including the 2 reserved).
size_t internedNameCount();
/// Number of distinct keys in the finalCounter() table (see below).
size_t finalCounterCount();

/// Master kill switch (default enabled). The obs.overhead bench flips
/// this to measure recorder-on vs recorder-off in one binary; it is not
/// a user-facing toggle.
void setLiteEnabled(bool On);

//===----------------------------------------------------------------------===//
// Stream (--record=FILE)
//===----------------------------------------------------------------------===//

struct StreamOptions {
  std::string Path;
  bool Binary = false; ///< raw RecEvent records instead of NDJSON lines
  std::string Command = "run"; ///< header metadata
};

/// Opens Opts.Path and writes every later event to it as it is emitted.
/// Clears the flight ring and the finalCounter() set. Returns false
/// (with *Err set) on I/O failure or if already streaming.
bool startStream(const StreamOptions &Opts, std::string *Err);
/// Writes the footer (name table, final counters, a drop count of 0)
/// and closes the file.
/// Returns false on I/O failure. No-op (true) when not streaming.
bool stopStream(std::string *Err);
bool streaming();

//===----------------------------------------------------------------------===//
// Chrome trace (--trace=FILE)
//===----------------------------------------------------------------------===//

/// Opens \p Path and writes every later event to it, as it is emitted,
/// as one element of a Chrome trace_event JSON array: phase and GC
/// begin/end as "B"/"E" pairs, the other lite kinds as "i" instants
/// whose args name the payload words (RecEvent.h). cell.* events are
/// not written. Returns false on I/O failure or if a trace is open.
bool startTrace(const std::string &Path);
/// Closes the array and the file. Returns false on I/O failure; no-op
/// (true) when no trace is open.
bool stopTrace();

//===----------------------------------------------------------------------===//
// Crash dumps
//===----------------------------------------------------------------------===//

/// Arms dumping: the first dumpNow() after this writes the flight ring
/// to \p Path as eal-rec-v1 NDJSON. Also installs a SIGABRT handler
/// (best effort: it writes from a signal handler). Re-arming resets the
/// first-trigger-wins latch and the finalCounter() set. \p Command is
/// header metadata.
void setDumpPath(std::string Path, std::string Command = "run");
void clearDumpPath();
/// Writes the dump if armed and not already dumped; returns true iff a
/// file was written. The footer's `dropped` counts the events the ring
/// overwrote since the last startStream (or since the process
/// started). \p Trigger names the cause ("spec-deopt",
/// "oracle-refuted", ...) in the footer and a trailing DumpTrigger
/// event.
bool dumpNow(std::string_view Trigger);
/// Trigger of the dump written since the last setDumpPath, or "".
std::string lastDumpTrigger();

/// Attaches a final counter (RuntimeStats totals, export drop counts)
/// to the footer of the stream file and any later dump. A repeated key
/// overwrites its value in place (first-insertion order is kept), so a
/// long-lived process that runs many pipelines holds one entry per key.
void finalCounter(std::string_view Key, uint64_t Value);

} // namespace eal::obs::rec

namespace eal::obs {

//===----------------------------------------------------------------------===//
// PhaseTimer
//===----------------------------------------------------------------------===//

/// RAII timer for one pipeline or optimizer phase: always measures wall
/// time and appends {Name, micros} to \p Out at destruction.
/// Additionally it emits PhaseBegin/PhaseEnd recorder events (the
/// timeline's phase bands and the Chrome trace's "B"/"E" pairs) and,
/// when metrics are enabled (see Metrics.h), per-phase counters into
/// the global metrics registry.
class PhaseTimer {
public:
  using PhaseTimes = std::vector<std::pair<std::string, int64_t>>;

  PhaseTimer(PhaseTimes *Out, const char *Name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  PhaseTimes *Out;
  const char *Name;
  int64_t StartUs;
  uint16_t NameId = 0; ///< interned phase name; 0 while the recorder is off
};

} // namespace eal::obs

#endif // EAL_OBS_FLIGHT_RECORDER_H
