//===- Replay.h - Layer-by-layer traced replay of runPipeline ---*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's two pieces: an in-memory span recorder, and a replay
/// of what runPipeline does for one program, made of calls to each
/// module's public entry points with a span around each call. The spans
/// live in the benchmark, not in eal, so tracing costs nothing in the
/// untraced run.
///
//===----------------------------------------------------------------------===//

#ifndef EALBENCH_REPLAY_H
#define EALBENCH_REPLAY_H

#include "Workloads.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ealbench {

/// One timed call. Names are the per-layer metric stems ("escape.base",
/// "vm.run", ...); the root of each program is "driver.replay".
struct Span {
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Index of the enclosing span, -1 for a root.
  int32_t Parent = -1;
  uint32_t Program = 0;
};

/// Keeps every span in memory until the run ends.
class SpanRecorder {
public:
  /// Closes its span when destroyed.
  class Scope {
  public:
    Scope(SpanRecorder &Rec, const char *Name, uint32_t Program);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &Rec;
    int32_t Index;
    int32_t SavedOpen;
  };

  /// Registers one replayed program; its spans carry the returned id.
  uint32_t addProgram(std::string Name) {
    Programs.push_back(std::move(Name));
    return static_cast<uint32_t>(Programs.size() - 1);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Each span's duration minus the time its child spans cover, in ns.
  std::vector<uint64_t> selfTimes() const;

  /// Writes the spans as one JSON document; false if \p Path cannot be
  /// written.
  bool writeJson(const std::string &Path) const;

private:
  uint64_t nowNs() const;

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<std::string> Programs;
  int32_t Open = -1;
};

/// What one replay produced: the user-visible outcome (compared with
/// runPipeline's for parity) and the per-layer work counts.
struct ReplayOutcome {
  /// A value was produced with no error diagnostics.
  bool Completed = false;
  std::string Rendered;
  std::string Error;
  eal::RuntimeStats Stats;
  size_t ReuseVersions = 0;
  size_t PlanDirectives = 0;
  /// Layer counts keyed by metric name ("escape.fixpoint_rounds", ...).
  std::map<std::string, double> Counts;
};

/// Replays runPipeline(P.Source, pipelineOptions(W, P)) one layer at a
/// time, recording a span tree for program \p Id (from
/// SpanRecorder::addProgram) into \p Rec.
ReplayOutcome replayProgram(Workload W, const Program &P, SpanRecorder &Rec,
                            uint32_t Id);

} // namespace ealbench

#endif // EALBENCH_REPLAY_H
