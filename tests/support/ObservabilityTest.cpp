//===- ObservabilityTest.cpp - obs:: tracing and metrics tests --------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
// Unit tests for the observability subsystem (support/Trace.h,
// support/Metrics.h, and the phase timer and Chrome trace writer of
// obs/Recorder.h): Chrome trace JSON well-formedness, JSON quoting,
// histograms, the registry, and RuntimeStats export.
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
#include <fstream>
#include <sstream>
#include <string>

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

/// Resets the metrics registry and its enable flag around each test so
/// they do not leak into each other.
class ObservabilityTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::disableMetrics();
    obs::globalMetrics().clear();
  }
};

/// Occurrences of \p Needle in \p Text.
size_t countOf(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST_F(ObservabilityTest, ChromeTraceJsonIsWellFormed) {
  // The writer turns each recorder event into one trace_event object as
  // it is emitted: phases and GC cycles as "B"/"E" pairs, the other lite
  // kinds as instants with named args, and no cell.* events.
  using obs::rec::RecKind;
  ASSERT_TRUE(obs::rec::on());
  const std::string Path = testing::TempDir() + "obs_chrome_trace.json";
  ASSERT_TRUE(obs::rec::startTrace(Path));
  EXPECT_FALSE(obs::rec::startTrace(Path)); // one trace at a time
  obs::rec::emit(RecKind::RunBegin, obs::rec::internName("test"),
                 obs::rec::internName("tree-walker"));
  {
    obs::PhaseTimer Outer(nullptr, "quote\"back\\slash\nline");
    obs::PhaseTimer Inner(nullptr, "run");
    obs::rec::emit(RecKind::GcBegin, 10, 64);
    obs::rec::emit(RecKind::CellBirth, 1, 2, 0);
    obs::rec::emit(RecKind::GcEnd, 7, 3, 7);
    obs::rec::emit(RecKind::ArenaFree, 3, 0, 5);
  }
  obs::rec::emit(RecKind::RunEnd, 1);
  ASSERT_TRUE(obs::rec::stopTrace());
  EXPECT_TRUE(obs::rec::stopTrace()); // no trace open: a no-op

  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Json = Buf.str();
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.valid()) << Json;
  EXPECT_EQ(countOf(Json, "\"ph\":\"B\""), 3u) << Json;
  EXPECT_EQ(countOf(Json, "\"ph\":\"E\""), 3u) << Json;
  EXPECT_EQ(countOf(Json, "\"ph\":\"i\",\"s\":\"t\""), 3u) << Json;
  EXPECT_EQ(countOf(Json, "\"name\":\"quote\\\"back\\\\slash\\nline\""), 2u)
      << Json;
  EXPECT_NE(Json.find("{\"name\":\"gc\",\"cat\":\"gc\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"live\":10,\"capacity\":64}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"marked\":7,\"swept\":3,\"live\":7}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"arena.free\",\"cat\":\"arena\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"stack_cells\":3,\"region_cells\":0,"
                      "\"handle\":5}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"command\":\"test\",\"engine\":"
                      "\"tree-walker\"}"),
            std::string::npos);
  EXPECT_EQ(Json.find("cell."), std::string::npos) << Json;
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
  ASSERT_FALSE(obs::metricsEnabled());
  obs::PhaseTimer::PhaseTimes Times;
  { obs::PhaseTimer T(&Times, "parse"); }
  { obs::PhaseTimer T(&Times, "execute"); }
  ASSERT_EQ(Times.size(), 2u);
  EXPECT_EQ(Times[0].first, "parse");
  EXPECT_EQ(Times[1].first, "execute");
  EXPECT_GE(Times[0].second, 0);
  EXPECT_EQ(obs::globalMetrics().numCounters(), 0u); // metrics were off
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
