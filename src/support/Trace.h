//===- Trace.h - Structured tracing: spans, events, Chrome export -*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the `eal::obs` observability subsystem (the other
/// half, the counter/histogram registry, is Metrics.h). It provides:
///
///  * RAII phase timers (Span) that nest and record Chrome
///    `trace_event`-format complete events ('X');
///  * instant ('i') and counter ('C') events for point-in-time facts
///    (GC runs, arena frees, fixpoint iterates);
///  * a JSON exporter producing files loadable by `chrome://tracing` and
///    Perfetto (see docs/OBSERVABILITY.md).
///
/// Cost model: every producer site is guarded by `obs::enabled()` — a
/// single inlined load of one global bool, no virtual dispatch, no
/// allocation. With no recorder and no metrics attached the flag is false
/// and the hot paths fall straight through; all strings, locks, and
/// clock reads happen only behind an enabled check.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SUPPORT_TRACE_H
#define EAL_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eal::obs {

/// Microseconds on the process-wide steady trace clock. Zero is the
/// first use in the process, so trace timestamps are small and stable.
int64_t nowMicros();

/// One recorded event, Chrome trace_event flavored.
struct TraceEvent {
  std::string Name;
  /// Grouping key ("pipeline", "gc", "arena", "fixpoint", ...).
  std::string Category;
  /// 'X' complete (has DurationUs), 'i' instant, 'C' counter.
  char Phase = 'i';
  /// Negative means "not stamped yet"; record() fills it in. (Zero is a
  /// real time: the trace clock's epoch is its first use.)
  int64_t TimestampUs = -1;
  int64_t DurationUs = 0;
  /// Small sequential id of the recording thread (not the OS tid).
  uint32_t ThreadId = 0;
  /// Span nesting depth on the recording thread (1 = outermost span);
  /// 0 for non-span events.
  uint32_t Depth = 0;
  /// Key -> already-rendered JSON value: numbers unquoted, strings
  /// quoted and escaped (use jsonQuote).
  std::vector<std::pair<std::string, std::string>> Args;
};

namespace detail {
/// True iff any consumer is attached: the recorder or the metrics
/// registry (Metrics.h). Atomic because producer sites may check
/// these on one thread while the toggles run on another; relaxed loads
/// keep the off-path to one plain load on every target we build for.
extern std::atomic<bool> Enabled;
extern std::atomic<bool> RecorderOn;
/// Recomputes the derived flags; called by every enable/disable entry.
void refreshMaster();
} // namespace detail

/// The master guard every producer site checks first.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}
/// True when events are being kept for later export; gate event
/// construction on this, metrics on metricsEnabled().
inline bool tracingEnabled() {
  return detail::RecorderOn.load(std::memory_order_relaxed);
}

/// Turns the in-memory recorder on/off. Enabling does not clear
/// previously recorded events; use clearTrace() for a fresh run.
void enableTracing();
void disableTracing();

/// Copy of everything recorded so far (thread-safe).
std::vector<TraceEvent> snapshot();
size_t eventCount();
void clearTrace();

/// Records every still-open Span as a complete ('X') event ending now
/// (args kept, "flushed":true added), so an export taken mid-phase — a
/// crash dump, a failed run — does not silently drop the in-flight
/// phases. Each flushed span bumps the `obs.export.dropped_spans`
/// metric counter; a flushed span records nothing further when it is
/// eventually destroyed. Returns the number flushed.
size_t flushOpenSpans();

/// Renders recorded events as a Chrome trace_event JSON array, oldest
/// first. Loadable by chrome://tracing and Perfetto.
std::string toChromeTraceJson();
/// Writes toChromeTraceJson() to \p Path; false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// Quotes and escapes \p S as a JSON string literal (with the quotes).
std::string jsonQuote(std::string_view S);

/// Records \p E (stamping timestamp/thread if unset) into the recorder.
/// Call only behind enabled().
void record(TraceEvent E);

/// Records an instant event.
void instant(std::string Name, std::string Category,
             std::vector<std::pair<std::string, std::string>> Args = {});

/// Records a counter event (renders in tracing UIs as a value series).
void counter(std::string Name, int64_t Value);

/// RAII phase timer. While alive it contributes one level of nesting on
/// its thread; at destruction it records a complete ('X') event covering
/// its lifetime. Inactive (and free apart from one flag test) when the
/// subsystem is disabled at construction time.
class Span {
public:
  explicit Span(const char *Name, const char *Category = "pipeline");
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches an argument to the event emitted at destruction.
  void arg(std::string Key, uint64_t Value);
  void arg(std::string Key, int64_t Value);
  void arg(std::string Key, std::string_view Value); ///< quoted for JSON

  bool active() const { return Active; }
  /// Wall time since construction (valid whether or not active).
  int64_t elapsedMicros() const { return nowMicros() - StartUs; }

  /// Number of active spans on the calling thread (testing aid).
  static unsigned currentDepth();

private:
  friend size_t flushOpenSpans(); // copies Ev/StartUs of live spans
  bool Active = false;
  int64_t StartUs = 0;
  TraceEvent Ev;
};

} // namespace eal::obs

#endif // EAL_SUPPORT_TRACE_H
