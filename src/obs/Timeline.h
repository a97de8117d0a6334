//===- Timeline.h - Replay a recording into heap timelines ------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `eal timeline`: loads an eal-rec-v1 recording (NDJSON or binary,
/// stream or flight dump — see docs/RECORDER.md) and replays it into:
///
///  - heap-occupancy curves: live cell counts by storage class over
///    time, plus per-allocation-site birth/death/peak totals;
///  - cell lifetime ribbons: birth AllocSeq -> first/last touch ->
///    death, following DCONS re-tags and deopt migrations;
///  - phase bands (pipeline stages) and GC bands (mark/sweep cycles);
///  - a reconciliation verdict: with a detail stream of a complete
///    run, the replayed totals must equal the RuntimeStats counters
///    the run itself reported in the recording footer — the
///    differential tests hold this across every example and seed.
///
/// Exported as text (renderText) and JSON (toJson, `eal-timeline-v1`),
/// the one replay of a recording; Chrome trace JSON comes from the
/// run's own --trace, not from a recording.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_OBS_TIMELINE_H
#define EAL_OBS_TIMELINE_H

#include "obs/RecEvent.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eal::obs::rec {

/// Storage classes as recorded in event payloads (CellClass values).
enum TlClass : uint8_t { TlHeap = 0, TlStack = 1, TlRegion = 2 };
inline constexpr size_t NumTlClasses = 3;
const char *tlClassName(uint8_t Class);

/// One cell's lifetime ribbon.
struct CellRibbon {
  uint64_t Seq = 0; ///< AllocSeq: cell identity for the whole run
  uint64_t BirthUs = 0;
  uint64_t FirstTouchUs = 0; ///< 0 = never touched
  uint64_t LastTouchUs = 0;
  uint64_t DeathUs = 0; ///< 0 = alive at end of recording
  uint32_t BirthSite = 0;
  uint32_t FinalSite = 0; ///< differs from BirthSite after DCONS re-tags
  uint32_t DconsCount = 0;
  uint8_t BirthClass = TlHeap;
  uint8_t FinalClass = TlHeap; ///< TlHeap after a deopt migration
  uint8_t DeathReason = 0xFF;  ///< DeathBySweep/DeathByArenaFree; 0xFF alive
  bool Migrated = false;
};

/// A pipeline phase interval (from PhaseBegin/PhaseEnd pairs).
struct PhaseBand {
  std::string Name;
  uint64_t BeginUs = 0;
  uint64_t EndUs = 0; ///< 0 = still open when the recording ended
};

/// One GC cycle (GcBegin/GcEnd pair).
struct GcBand {
  uint64_t BeginUs = 0;
  uint64_t EndUs = 0;
  uint64_t LiveBefore = 0;
  uint64_t Capacity = 0;
  uint64_t Marked = 0;
  uint64_t Swept = 0;
  uint64_t LiveAfter = 0;
};

/// Per-allocation-site occupancy totals.
struct SiteOccupancy {
  uint64_t Births[NumTlClasses] = {0, 0, 0};
  uint64_t Deaths[NumTlClasses] = {0, 0, 0};
  uint64_t Dcons = 0;
  int64_t Live = 0; ///< at end of recording
  int64_t PeakLive = 0;
  uint64_t PeakUs = 0;
};

/// One point on the occupancy curve (recorded whenever a class count
/// changes; downsampled past MaxCurvePoints).
struct OccupancyPoint {
  uint64_t TimeUs = 0;
  int64_t Live[NumTlClasses] = {0, 0, 0};
};

/// A notable point event (deopt, refutation, dump trigger, run
/// boundary) with its interned names resolved.
struct Marker {
  uint64_t TimeUs = 0;
  RecKind Kind = RecKind::None;
  std::string Label; ///< resolved cause/trigger/command name
  uint64_t A = 0, B = 0;
  uint32_t C = 0;
};

class Timeline {
public:
  /// Loads and replays \p Path. Returns false with *Err set on I/O,
  /// format, or schema errors.
  bool load(const std::string &Path, std::string *Err);

  // Recording metadata (header/footer).
  std::string Mode;    ///< "stream" or "flight"
  std::string Format;  ///< "ndjson" or "binary"
  std::string Command; ///< pipeline command that produced it
  bool Detail = false; ///< per-cell tier was recorded
  std::string Trigger; ///< dump trigger ("" for a clean stream)
  uint64_t Dropped = 0;
  std::vector<std::string> Names; ///< interned-name table
  std::map<std::string, uint64_t> Counters; ///< final RuntimeStats

  // Replay results.
  size_t EventCount = 0;
  uint64_t FirstUs = 0, LastUs = 0;
  uint64_t BirthsByClass[NumTlClasses] = {0, 0, 0};
  uint64_t SweepDeaths = 0;
  uint64_t ArenaDeathsByClass[NumTlClasses] = {0, 0, 0};
  uint64_t DconsTotal = 0;
  uint64_t Migrations = 0;
  uint64_t GcRuns = 0;
  uint64_t HeapGrowths = 0;
  uint64_t ArenaOpens = 0;
  uint64_t ArenaFrees = 0;
  uint64_t ArenaStackCellsFreed = 0;  ///< summed from ArenaFree events
  uint64_t ArenaRegionCellsFreed = 0;
  /// Deaths/touches whose birth predates the recording (flight dumps).
  uint64_t UnmatchedDeaths = 0;
  int64_t PeakLive[NumTlClasses] = {0, 0, 0};
  std::map<uint32_t, SiteOccupancy> Sites;
  std::vector<OccupancyPoint> Curve;
  std::vector<CellRibbon> Ribbons; ///< by birth order (AllocSeq asc)
  std::vector<PhaseBand> Phases;
  std::vector<GcBand> GcBands;
  std::vector<Marker> Markers;

  /// Caps Curve (stride-compacted) and the number of ribbons kept in
  /// toJson(); replay totals are never capped.
  size_t MaxCurvePoints = 16384;
  size_t MaxJsonRibbons = 4096;

  /// With detail + footer counters present: do the replayed totals
  /// equal the run's own RuntimeStats? Appends any mismatch to *Why.
  /// True (vacuously) when the recording carries no counters or no
  /// detail tier — flight dumps are partial by design.
  bool reconciles(std::string *Why = nullptr) const;

  /// Human-readable report (the `eal timeline` stdout).
  std::string renderText() const;
  /// eal-timeline-v1 JSON document.
  std::string toJson() const;

  /// Resolves an interned id against the footer name table.
  std::string name(uint64_t Id) const;

private:
  void replay(const std::vector<RecEvent> &Events);
};

} // namespace eal::obs::rec

#endif // EAL_OBS_TIMELINE_H
