//===- ObservabilityTest.cpp - obs:: tracing and metrics tests --------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Unit tests for the observability subsystem (support/Trace.h,
// support/Metrics.h, and the phase timer of obs/Recorder.h): span
// nesting, Chrome trace JSON well-formedness, histograms, the registry,
// and RuntimeStats export.
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"
#include "runtime/RuntimeStats.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace eal;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON reader, enough to verify exporter output is well formed
// without depending on a JSON library.
//===----------------------------------------------------------------------===//

class JsonReader {
public:
  explicit JsonReader(const std::string &Text) : Text(Text) {}

  /// Parses the whole buffer as one JSON value; false on any error or
  /// trailing garbage.
  bool valid() {
    Pos = 0;
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  bool value() {
    skipWs();
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // control characters must be escaped
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos];
        if (E == 'u') {
          for (int I = 0; I != 4; ++I) {
            ++Pos;
            if (Pos >= Text.size() || !std::isxdigit(
                    static_cast<unsigned char>(Text[Pos])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return false;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }

  const std::string &Text;
  size_t Pos = 0;
};

/// Resets all global observability state around each test so they do not
/// leak recorder contents or enable flags into each other.
class ObservabilityTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::disableTracing();
    obs::disableMetrics();
    obs::clearTrace();
    obs::globalMetrics().clear();
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, SpanInactiveWhenDisabled) {
  ASSERT_FALSE(obs::enabled());
  {
    obs::Span S("idle");
    EXPECT_FALSE(S.active());
    EXPECT_EQ(obs::Span::currentDepth(), 0u);
  }
  EXPECT_EQ(obs::eventCount(), 0u);
}

TEST_F(ObservabilityTest, SpanNestingDepth) {
  obs::enableTracing();
  EXPECT_EQ(obs::Span::currentDepth(), 0u);
  {
    obs::Span Outer("outer");
    EXPECT_TRUE(Outer.active());
    EXPECT_EQ(obs::Span::currentDepth(), 1u);
    {
      obs::Span Inner("inner");
      EXPECT_EQ(obs::Span::currentDepth(), 2u);
    }
    EXPECT_EQ(obs::Span::currentDepth(), 1u);
  }
  EXPECT_EQ(obs::Span::currentDepth(), 0u);

  // Spans record at destruction, so the inner event lands first; each
  // carries its nesting depth and the outer interval contains the inner.
  std::vector<obs::TraceEvent> Events = obs::snapshot();
  ASSERT_EQ(Events.size(), 2u);
  const obs::TraceEvent &Inner = Events[0];
  const obs::TraceEvent &Outer = Events[1];
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Inner.Phase, 'X');
  EXPECT_EQ(Outer.Phase, 'X');
  EXPECT_EQ(Inner.Depth, 2u);
  EXPECT_EQ(Outer.Depth, 1u);
  EXPECT_LE(Outer.TimestampUs, Inner.TimestampUs);
  EXPECT_GE(Outer.TimestampUs + Outer.DurationUs,
            Inner.TimestampUs + Inner.DurationUs);
}

TEST_F(ObservabilityTest, SpanArgsAreRecorded) {
  obs::enableTracing();
  {
    obs::Span S("work", "test");
    S.arg("cells", uint64_t(42));
    S.arg("label", std::string_view("a\"b"));
  }
  std::vector<obs::TraceEvent> Events = obs::snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Category, "test");
  ASSERT_EQ(Events[0].Args.size(), 2u);
  EXPECT_EQ(Events[0].Args[0].first, "cells");
  EXPECT_EQ(Events[0].Args[0].second, "42");
  EXPECT_EQ(Events[0].Args[1].second, "\"a\\\"b\""); // quoted + escaped
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, ChromeTraceJsonIsWellFormed) {
  obs::enableTracing();
  {
    obs::Span S("phase", "pipeline");
    S.arg("nodes", uint64_t(7));
    S.arg("path", std::string_view("a\\b\"c\n"));
    obs::instant("gc.collect", "gc", {{"swept", "12"}});
    obs::counter("live_cells", 34);
  }
  std::string Json = obs::toChromeTraceJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
  // Spot-check the trace_event shape (the exporter renders compactly).
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"gc.collect\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(Json.find("\"s\":\"t\""), std::string::npos);
}

TEST_F(ObservabilityTest, JsonQuoteEscapes) {
  EXPECT_EQ(obs::jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(obs::jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::jsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::jsonQuote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(obs::jsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

//===----------------------------------------------------------------------===//
// PhaseTimer
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, PhaseTimerAlwaysMeasuresWallTime) {
  ASSERT_FALSE(obs::enabled());
  obs::PhaseTimer::PhaseTimes Times;
  { obs::PhaseTimer T(&Times, "parse"); }
  { obs::PhaseTimer T(&Times, "execute"); }
  ASSERT_EQ(Times.size(), 2u);
  EXPECT_EQ(Times[0].first, "parse");
  EXPECT_EQ(Times[1].first, "execute");
  EXPECT_GE(Times[0].second, 0);
  EXPECT_EQ(obs::eventCount(), 0u); // no tracing side effects
}

TEST_F(ObservabilityTest, PhaseTimerFeedsMetricsWhenEnabled) {
  obs::enableMetrics();
  obs::PhaseTimer::PhaseTimes Times;
  { obs::PhaseTimer T(&Times, "escape"); }
  { obs::PhaseTimer T(&Times, "escape"); }
  obs::MetricsRegistry &Reg = obs::globalMetrics();
  EXPECT_TRUE(Reg.hasCounter("phase.escape.micros"));
  EXPECT_EQ(Reg.counterValue("phase.escape.runs"), 2u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, HistogramBucketsArePowersOfTwo) {
  obs::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // empty histogram reports 0, not UINT64_MAX
  // bucket 0 = {0}; bucket i = [2^(i-1), 2^i).
  H.record(0);
  H.record(1);
  H.record(2);
  H.record(3);
  H.record(4);
  H.record(7);
  H.record(8);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(3), 2u);
  EXPECT_EQ(H.bucket(4), 1u);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 25u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 8u);
  EXPECT_DOUBLE_EQ(H.mean(), 25.0 / 7.0);
  EXPECT_EQ(H.usedBuckets(), 5u);

  std::string Json = H.toJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
}

TEST_F(ObservabilityTest, HistogramBucketBoundaries) {
  // Exact boundary semantics: bucket 0 = {0}, bucket i = [2^(i-1), 2^i).
  // An exact power of two 2^k is the *lower* bound of bucket k+1, and
  // 2^k - 1 the upper bound of bucket k; confirm neither is off by one
  // across the whole range.
  for (unsigned K : {0u, 1u, 5u, 31u, 32u, 62u}) {
    obs::Histogram H;
    H.record(uint64_t(1) << K);
    EXPECT_EQ(H.bucket(K + 1), 1u) << "2^" << K;
    EXPECT_EQ(H.bucket(K), 0u) << "2^" << K;
    if (K > 0) {
      H.record((uint64_t(1) << K) - 1);
      EXPECT_EQ(H.bucket(K), 1u) << "2^" << K << " - 1";
    }
  }

  obs::Histogram H;
  H.record(0);
  EXPECT_EQ(H.bucket(0), 1u);
  // 2^63 and UINT64_MAX both land in the last bucket (index 64 =
  // NumBuckets - 1): [2^63, 2^64) covers the whole top half of the
  // domain, so no value can overflow the table.
  H.record(uint64_t(1) << 63);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.bucket(obs::Histogram::NumBuckets - 1), 2u);
  EXPECT_EQ(H.usedBuckets(), obs::Histogram::NumBuckets);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  EXPECT_EQ(H.min(), 0u);

  std::string Json = H.toJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
}

TEST_F(ObservabilityTest, ConcurrentSpansReachRecorder) {
  // Two threads emitting spans and instants while tracing: recording
  // serializes under the obs mutex, so the recorder must keep every
  // event exactly once, with no torn events.
  obs::enableTracing();

  constexpr int PerThread = 500;
  auto Work = [](const char *Name) {
    for (int I = 0; I != PerThread; ++I) {
      obs::Span S(Name, "mt");
      S.arg("i", static_cast<uint64_t>(I));
      obs::instant(Name, "mt");
    }
  };
  std::thread A(Work, "alpha");
  std::thread B(Work, "beta");
  A.join();
  B.join();

  std::vector<obs::TraceEvent> Seen = obs::snapshot();
  ASSERT_EQ(Seen.size(), 4u * PerThread);
  size_t Alpha = 0, Beta = 0;
  for (const obs::TraceEvent &E : Seen) {
    EXPECT_TRUE(E.Name == "alpha" || E.Name == "beta") << E.Name;
    EXPECT_TRUE(E.Phase == 'X' || E.Phase == 'i');
    (E.Name == "alpha" ? Alpha : Beta) += 1;
  }
  EXPECT_EQ(Alpha, 2u * PerThread);
  EXPECT_EQ(Beta, 2u * PerThread);
  // The export of the interleaved log is still valid JSON.
  std::string Json = obs::toChromeTraceJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid());
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, RegistryCreatesOnFirstUse) {
  obs::MetricsRegistry Reg;
  EXPECT_FALSE(Reg.hasCounter("a"));
  EXPECT_EQ(Reg.counterValue("a"), 0u);
  Reg.counter("a").add(3);
  Reg.counter("a").add(4);
  EXPECT_TRUE(Reg.hasCounter("a"));
  EXPECT_EQ(Reg.counterValue("a"), 7u);
  Reg.counter("b").max(10);
  Reg.counter("b").max(5);
  EXPECT_EQ(Reg.counterValue("b"), 10u);
  Reg.histogram("h").record(16);
  EXPECT_TRUE(Reg.hasHistogram("h"));
  EXPECT_EQ(Reg.numCounters(), 2u);
  EXPECT_EQ(Reg.numHistograms(), 1u);

  std::string Json = Reg.toJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
  EXPECT_NE(Json.find("\"a\": 7"), std::string::npos);

  Reg.clear();
  EXPECT_EQ(Reg.numCounters(), 0u);
  EXPECT_EQ(Reg.numHistograms(), 0u);
}

//===----------------------------------------------------------------------===//
// RuntimeStats integration
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, RuntimeStatsStrAndJsonCarryDerivedTotal) {
  RuntimeStats Stats;
  Stats.HeapCellsAllocated = 10;
  Stats.StackCellsAllocated = 4;
  Stats.RegionCellsAllocated = 2;
  Stats.DconsReuses = 5;

  std::string Render = Stats.str();
  EXPECT_NE(Render.find("total cells allocated"), std::string::npos);
  EXPECT_NE(Render.find("= 16"), std::string::npos);

  std::string Json = Stats.toJson();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
  EXPECT_NE(Json.find("\"total_cells_allocated\": 16"), std::string::npos);
  EXPECT_NE(Json.find("\"dcons_reuses\": 5"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// flushOpenSpans: exports taken mid-phase keep the in-flight spans
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, FlushOpenSpansRecordsInFlightSpanOnce) {
  obs::enableTracing();
  obs::enableMetrics();
  auto S = std::make_unique<obs::Span>("open-phase", "test");
  S->arg("depth", static_cast<uint64_t>(1));
  EXPECT_EQ(obs::eventCount(), 0u); // still open: nothing recorded yet

  EXPECT_EQ(obs::flushOpenSpans(), 1u);
  EXPECT_EQ(obs::eventCount(), 1u);
  EXPECT_EQ(obs::globalMetrics().counterValue("obs.export.dropped_spans"),
            1u);

  std::vector<obs::TraceEvent> Events = obs::snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "open-phase");
  EXPECT_EQ(Events[0].Phase, 'X');
  bool KeptArg = false, Marked = false;
  for (const auto &[Key, Value] : Events[0].Args) {
    KeptArg |= Key == "depth";
    Marked |= Key == "flushed" && Value == "true";
  }
  EXPECT_TRUE(KeptArg);
  EXPECT_TRUE(Marked);

  // The span's own destruction must not record the event a second time.
  S.reset();
  EXPECT_EQ(obs::eventCount(), 1u);
}

TEST_F(ObservabilityTest, FlushOpenSpansIsNoOpWhenAllSpansClosed) {
  obs::enableTracing();
  obs::enableMetrics();
  { obs::Span S("closed-phase", "test"); }
  EXPECT_EQ(obs::eventCount(), 1u);
  EXPECT_EQ(obs::flushOpenSpans(), 0u);
  EXPECT_EQ(obs::eventCount(), 1u);
  EXPECT_EQ(obs::globalMetrics().counterValue("obs.export.dropped_spans"),
            0u);
}

TEST_F(ObservabilityTest, FlushOpenSpansOrdersInnermostFirst) {
  obs::enableTracing();
  obs::Span Outer("outer", "test");
  obs::Span Inner("inner", "test");
  EXPECT_EQ(obs::flushOpenSpans(), 2u);
  std::vector<obs::TraceEvent> Events = obs::snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[1].Name, "outer");
}

TEST_F(ObservabilityTest, RuntimeStatsExportToRegistry) {
  RuntimeStats Stats;
  Stats.HeapCellsAllocated = 9;
  Stats.GcRuns = 3;
  obs::MetricsRegistry Reg;
  Stats.exportTo(Reg);
  EXPECT_EQ(Reg.counterValue("runtime.heap_cells_allocated"), 9u);
  EXPECT_EQ(Reg.counterValue("runtime.gc_runs"), 3u);
  EXPECT_EQ(Reg.counterValue("runtime.total_cells_allocated"), 9u);
  // Every forEachField key is present.
  size_t Fields = 0;
  Stats.forEachField([&](const char *, const char *, uint64_t) { ++Fields; });
  EXPECT_EQ(Reg.numCounters(), Fields);
}

} // namespace
