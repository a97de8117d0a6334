//===- Metrics.cpp --------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <bit>
#include <sstream>

using namespace eal;
using namespace eal::obs;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

void Histogram::record(uint64_t Sample) {
  ++Count;
  Sum += Sample;
  if (Sample < Min)
    Min = Sample;
  if (Sample > Max)
    Max = Sample;
  // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i).
  size_t Bucket = Sample == 0 ? 0 : 64 - std::countl_zero(Sample);
  ++Buckets[Bucket];
}

size_t Histogram::usedBuckets() const {
  size_t Used = 0;
  for (size_t I = 0; I != NumBuckets; ++I)
    if (Buckets[I])
      Used = I + 1;
  return Used;
}

std::string Histogram::toJson() const {
  std::ostringstream OS;
  OS << "{\"count\":" << count() << ",\"sum\":" << sum()
     << ",\"min\":" << min() << ",\"max\":" << max() << ",\"mean\":" << mean()
     << ",\"buckets\":[";
  size_t Used = usedBuckets();
  for (size_t I = 0; I != Used; ++I) {
    if (I)
      OS << ',';
    OS << Buckets[I];
  }
  OS << "]}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Counters[Name];
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Histograms[Name];
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second.value();
}

bool MetricsRegistry::hasCounter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters.count(Name) != 0;
}

bool MetricsRegistry::hasHistogram(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Histograms.count(Name) != 0;
}

size_t MetricsRegistry::numCounters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters.size();
}

size_t MetricsRegistry::numHistograms() const {
  std::lock_guard<std::mutex> Lock(M);
  return Histograms.size();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Counters.clear();
  Histograms.clear();
}

namespace {

/// Escapes \p S as a JSON string literal (metric names are plain ASCII,
/// but quote defensively).
std::string quoteKey(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  Out.push_back('"');
  return Out;
}

} // namespace

std::string MetricsRegistry::toJson(unsigned Indent) const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Pad(Indent, ' ');
  std::string Pad2(Indent + 2, ' ');
  std::string Pad4(Indent + 4, ' ');
  std::ostringstream OS;
  OS << "{\n" << Pad2 << "\"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    OS << (First ? "\n" : ",\n") << Pad4 << quoteKey(Name) << ": "
       << C.value();
    First = false;
  }
  OS << (First ? "" : "\n" + Pad2) << "},\n" << Pad2 << "\"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    OS << (First ? "\n" : ",\n") << Pad4 << quoteKey(Name) << ": "
       << H.toJson();
    First = false;
  }
  OS << (First ? "" : "\n" + Pad2) << "}\n" << Pad << "}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Global registry and enable flag
//===----------------------------------------------------------------------===//

MetricsRegistry &obs::globalMetrics() {
  static MetricsRegistry Reg;
  return Reg;
}

std::atomic<bool> obs::detail::MetricsOn{false};

void obs::enableMetrics() { detail::MetricsOn = true; }

void obs::disableMetrics() { detail::MetricsOn = false; }
