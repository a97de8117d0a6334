//===- Trace.cpp ----------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

using namespace eal;
using namespace eal::obs;

//===----------------------------------------------------------------------===//
// Clock and thread ids
//===----------------------------------------------------------------------===//

int64_t obs::nowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               Epoch)
      .count();
}

namespace {

uint32_t threadId() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

thread_local unsigned SpanDepth = 0;

//===----------------------------------------------------------------------===//
// Global state
//===----------------------------------------------------------------------===//

struct TraceState {
  std::mutex M;
  std::vector<TraceEvent> Events;
  /// Spans alive right now (flushOpenSpans walks these). A span present
  /// here still owns its event; one flushed out of the list must not
  /// record again at destruction.
  std::vector<obs::Span *> OpenSpans;
};

TraceState &state() {
  static TraceState S;
  return S;
}

} // namespace

std::atomic<bool> obs::detail::Enabled{false};
std::atomic<bool> obs::detail::RecorderOn{false};

namespace {

/// Recomputes the derived flags; caller holds the lock. Stores are
/// relaxed: the lock orders the writers, and readers only need the
/// eventual flag value, not any payload published with it.
void refreshEnabled() {
  obs::detail::Enabled.store(
      obs::detail::RecorderOn.load(std::memory_order_relaxed) ||
          obs::detail::MetricsOn.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

} // namespace

void obs::detail::refreshMaster() {
  std::lock_guard<std::mutex> Lock(state().M);
  refreshEnabled();
}

void obs::enableTracing() {
  std::lock_guard<std::mutex> Lock(state().M);
  detail::RecorderOn = true;
  refreshEnabled();
}

void obs::disableTracing() {
  std::lock_guard<std::mutex> Lock(state().M);
  detail::RecorderOn = false;
  refreshEnabled();
}

std::vector<TraceEvent> obs::snapshot() {
  std::lock_guard<std::mutex> Lock(state().M);
  return state().Events;
}

size_t obs::eventCount() {
  std::lock_guard<std::mutex> Lock(state().M);
  return state().Events.size();
}

void obs::clearTrace() {
  std::lock_guard<std::mutex> Lock(state().M);
  state().Events.clear();
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

namespace {

/// Caller holds state().M.
void recordLocked(TraceEvent E) {
  if (E.TimestampUs < 0)
    E.TimestampUs = nowMicros();
  if (obs::detail::RecorderOn)
    state().Events.push_back(std::move(E));
}

} // namespace

void obs::record(TraceEvent E) {
  E.ThreadId = threadId();
  std::lock_guard<std::mutex> Lock(state().M);
  recordLocked(std::move(E));
}

void obs::instant(std::string Name, std::string Category,
                  std::vector<std::pair<std::string, std::string>> Args) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.Phase = 'i';
  E.Args = std::move(Args);
  record(std::move(E));
}

void obs::counter(std::string Name, int64_t Value) {
  TraceEvent E;
  E.Category = "counter";
  E.Phase = 'C';
  E.Args.emplace_back(Name, std::to_string(Value));
  E.Name = std::move(Name);
  record(std::move(E));
}

//===----------------------------------------------------------------------===//
// JSON export
//===----------------------------------------------------------------------===//

std::string obs::jsonQuote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
  return Out;
}

namespace {

void renderEvent(std::ostringstream &OS, const TraceEvent &E) {
  OS << "{\"name\":" << jsonQuote(E.Name)
     << ",\"cat\":" << jsonQuote(E.Category) << ",\"ph\":\"" << E.Phase
     << "\",\"ts\":" << E.TimestampUs;
  if (E.Phase == 'X')
    OS << ",\"dur\":" << E.DurationUs;
  OS << ",\"pid\":1,\"tid\":" << E.ThreadId;
  // Chrome instant events want a scope; thread scope is the natural one.
  if (E.Phase == 'i')
    OS << ",\"s\":\"t\"";
  if (!E.Args.empty() || E.Depth != 0) {
    OS << ",\"args\":{";
    bool First = true;
    if (E.Depth != 0) {
      OS << "\"depth\":" << E.Depth;
      First = false;
    }
    for (const auto &[Key, Value] : E.Args) {
      if (!First)
        OS << ',';
      First = false;
      OS << jsonQuote(Key) << ':' << Value;
    }
    OS << '}';
  }
  OS << '}';
}

} // namespace

std::string obs::toChromeTraceJson() {
  std::vector<TraceEvent> Events = snapshot();
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.TimestampUs < B.TimestampUs;
                   });
  std::ostringstream OS;
  OS << "[\n";
  for (size_t I = 0; I != Events.size(); ++I) {
    renderEvent(OS, Events[I]);
    if (I + 1 != Events.size())
      OS << ',';
    OS << '\n';
  }
  OS << "]\n";
  return OS.str();
}

bool obs::writeChromeTrace(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << toChromeTraceJson();
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

obs::Span::Span(const char *Name, const char *Category) {
  if (!tracingEnabled())
    return;
  Active = true;
  StartUs = nowMicros();
  Ev.Name = Name;
  Ev.Category = Category;
  Ev.Phase = 'X';
  Ev.TimestampUs = StartUs;
  Ev.ThreadId = threadId();
  Ev.Depth = ++SpanDepth;
  std::lock_guard<std::mutex> Lock(state().M);
  state().OpenSpans.push_back(this);
}

obs::Span::~Span() {
  if (!Active)
    return;
  --SpanDepth;
  std::lock_guard<std::mutex> Lock(state().M);
  auto &Open = state().OpenSpans;
  auto It = std::find(Open.begin(), Open.end(), this);
  if (It == Open.end())
    return; // flushOpenSpans already recorded this span's event
  Open.erase(It);
  Ev.DurationUs = nowMicros() - StartUs;
  recordLocked(std::move(Ev));
}

// Args take the trace lock: flushOpenSpans copies a live span's event
// from the exporting thread, which must not race an arg append. Spans
// are only active while a trace consumer is attached, so this cost is
// confined to traced runs.
void obs::Span::arg(std::string Key, uint64_t Value) {
  if (!Active)
    return;
  std::lock_guard<std::mutex> Lock(state().M);
  Ev.Args.emplace_back(std::move(Key), std::to_string(Value));
}

void obs::Span::arg(std::string Key, int64_t Value) {
  if (!Active)
    return;
  std::lock_guard<std::mutex> Lock(state().M);
  Ev.Args.emplace_back(std::move(Key), std::to_string(Value));
}

void obs::Span::arg(std::string Key, std::string_view Value) {
  if (!Active)
    return;
  std::lock_guard<std::mutex> Lock(state().M);
  Ev.Args.emplace_back(std::move(Key), jsonQuote(Value));
}

size_t obs::flushOpenSpans() {
  size_t Flushed = 0;
  {
    std::lock_guard<std::mutex> Lock(state().M);
    auto &Open = state().OpenSpans;
    // Innermost first, so the trace keeps begin-order nesting when the
    // events are later sorted by timestamp (ties keep insert order).
    for (auto It = Open.rbegin(); It != Open.rend(); ++It) {
      obs::Span *S = *It;
      TraceEvent E = S->Ev;
      E.DurationUs = nowMicros() - S->StartUs;
      E.Args.emplace_back("flushed", "true");
      recordLocked(std::move(E));
      ++Flushed;
    }
    Open.clear();
  }
  if (Flushed && metricsEnabled())
    globalMetrics()
        .counter("obs.export.dropped_spans")
        .add(static_cast<uint64_t>(Flushed));
  return Flushed;
}

unsigned obs::Span::currentDepth() { return SpanDepth; }
