//===- Metrics.h - Counter/histogram registry with JSON export --*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the `eal::obs` observability subsystem (timed
/// events come from the flight recorder, obs/Recorder.h). A MetricsRegistry holds named monotone
/// counters and power-of-two-bucketed histograms, and renders itself as
/// JSON for `eal --stats-json` and the `BENCH_*.json` perf-trajectory
/// files.
///
/// The registry absorbs and supersedes the raw fields of RuntimeStats:
/// `RuntimeStats::exportTo()` maps every typed field to a namespaced
/// counter, and analysis/optimizer phases add their own counters
/// (fixpoint rounds, DCONS sites, plan directives) and histograms (GC
/// pause, arena sizes) that the flat struct never carried. RuntimeStats
/// itself remains the typed hot-path view: per-cell work keeps bumping
/// plain uint64 fields and is exported wholesale at phase boundaries.
///
/// Producer sites consult `obs::metricsEnabled()` (one global bool, same
/// discipline as tracing) so disabled builds pay one branch.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SUPPORT_METRICS_H
#define EAL_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace eal::obs {

/// A monotone (or set/max-updated) uint64 counter.
class Counter {
public:
  void add(uint64_t Delta = 1) { V += Delta; }
  void set(uint64_t Value) { V = Value; }
  /// Keeps the running maximum of observed values.
  void max(uint64_t Value) {
    if (Value > V)
      V = Value;
  }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// A histogram of uint64 samples in power-of-two buckets: bucket 0 holds
/// sample 0, bucket i (i >= 1) holds samples in [2^(i-1), 2^i).
class Histogram {
public:
  static constexpr size_t NumBuckets = 65;

  void record(uint64_t Sample);

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? Min : 0; }
  uint64_t max() const { return Max; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0;
  }
  uint64_t bucket(size_t I) const { return Buckets[I]; }
  /// Index of the highest non-empty bucket + 1 (0 when empty).
  size_t usedBuckets() const;

  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..,"buckets":[..]}
  /// with the bucket array truncated at the last non-empty bucket.
  std::string toJson() const;

private:
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
  std::array<uint64_t, NumBuckets> Buckets{};
};

/// Named counters and histograms. Lookup (counter()/histogram()) is
/// mutex-guarded and creates on first use; the returned references stay
/// valid for the registry's lifetime, and updating them is the caller's
/// single-threaded fast path.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Value of counter \p Name, or 0 if it was never created.
  uint64_t counterValue(const std::string &Name) const;
  bool hasCounter(const std::string &Name) const;
  bool hasHistogram(const std::string &Name) const;
  size_t numCounters() const;
  size_t numHistograms() const;

  void clear();

  /// {"counters":{name:value,...},"histograms":{name:{...},...}} with
  /// keys in sorted order (the maps are ordered).
  std::string toJson(unsigned Indent = 0) const;

private:
  mutable std::mutex M;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Histogram> Histograms;
};

/// The process-wide registry that `eal --stats-json`, the benches, and
/// the instrumented phases all feed.
MetricsRegistry &globalMetrics();

namespace detail {
/// Atomic: producer sites may load it on any thread while another
/// thread toggles it.
extern std::atomic<bool> MetricsOn;
} // namespace detail

/// Guard for metrics producer sites: one inlined relaxed load when off.
inline bool metricsEnabled() {
  return detail::MetricsOn.load(std::memory_order_relaxed);
}
void enableMetrics();
void disableMetrics();

} // namespace eal::obs

#endif // EAL_SUPPORT_METRICS_H
