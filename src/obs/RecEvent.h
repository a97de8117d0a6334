//===- RecEvent.h - Compact flight-recorder events --------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event vocabulary of the flight recorder (docs/RECORDER.md). One
/// event is a fixed 32-byte POD: a kind, a producer id, a timestamp on
/// the obs trace clock, and three raw payload words whose meaning depends on
/// the kind. Strings never travel in events — names (commands, phases,
/// deopt causes, dump triggers) are interned to small ids and the table
/// is written once per recording (see Recorder.h).
///
/// Payload conventions (Timeline.cpp decodes these, and the Chrome
/// trace writer in Recorder.cpp names them):
///
///   RunBegin       A=name(command)      B=name(engine)
///   RunEnd         A=success(0/1)
///   PhaseBegin/End A=name(phase)
///   GcBegin        A=live heap cells    B=capacity
///   GcEnd          A=cells marked       B=cells swept      C=live after
///   HeapGrow       A=new capacity
///   ArenaOpen      A=arena handle
///   ArenaFree      A=stack cells        B=region cells     C=handle
///   CellBirth      A=AllocSeq           B=SiteId           C=class
///   CellDeath      A=AllocSeq           B=SiteId           C=class|reason<<8
///   CellDcons      A=AllocSeq           B=new SiteId       C=old SiteId
///   CellTouch      A=AllocSeq           B=SiteId
///   CellMigrate    A=AllocSeq           B=base SiteId      C=old class
///                  (the cell's class becomes Heap)
///   SpecDeopt      A=name(cause)        B=cells migrated   C=injected site
///   OracleRefuted  A=allocation SiteId  B=name(violation kind)
///   LiveRefuted    A=claimed-dead SiteId B=name(violation kind)
///   DumpTrigger    A=name(trigger)
///
/// `class` is CellClass's underlying value (0 heap, 1 stack, 2 region);
/// `reason` in CellDeath is 0 for a GC sweep, 1 for an arena free.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_OBS_RECEVENT_H
#define EAL_OBS_RECEVENT_H

#include <cstddef>
#include <cstdint>

namespace eal::obs::rec {

/// Event kinds. Stable order: the kind table is serialized by index into
/// every eal-rec-v1 header, so readers match by name, not value.
enum class RecKind : uint16_t {
  None = 0,
  RunBegin,
  RunEnd,
  PhaseBegin,
  PhaseEnd,
  GcBegin,
  GcEnd,
  HeapGrow,
  ArenaOpen,
  ArenaFree,
  CellBirth,
  CellDeath,
  CellDcons,
  CellTouch,
  CellMigrate,
  SpecDeopt,
  OracleRefuted,
  LiveRefuted,
  DumpTrigger,
  NumKinds,
};

/// The serialized name of \p K ("cell.birth", "gc.end", ...).
const char *kindName(RecKind K);

/// CellDeath reasons (low byte above the class in payload C).
inline constexpr uint32_t DeathBySweep = 0;
inline constexpr uint32_t DeathByArenaFree = 1;

/// Packs a CellDeath C payload.
inline constexpr uint32_t deathPayload(uint8_t Class, uint32_t Reason) {
  return static_cast<uint32_t>(Class) | (Reason << 8);
}

/// One recorded event. Trivially copyable; the binary recording format
/// is this struct verbatim (host byte order, in practice little-endian).
struct RecEvent {
  /// Microseconds on the obs::nowMicros() process clock.
  uint64_t TimeUs = 0;
  uint64_t A = 0;
  uint64_t B = 0;
  uint32_t C = 0;
  uint16_t Kind = 0;
  /// Producer id: always 0, since one thread emits every event into
  /// one ring. eal-rec-v1 keeps the field, and readers group phases by
  /// it, so recordings with several producers still read.
  uint16_t Tid = 0;
};

static_assert(sizeof(RecEvent) == 32, "events must stay compact");

} // namespace eal::obs::rec

#endif // EAL_OBS_RECEVENT_H
