//===- ExecutionObserver.cpp ----------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionObserver.h"

#include "obs/Recorder.h"

using namespace eal;

namespace {

using obs::rec::RecKind;

static_assert(static_cast<uint32_t>(CellDeath::ArenaFree) ==
                  obs::rec::DeathByArenaFree,
              "cell.death reasons are CellDeath values");

class CellRecorder final : public ExecutionObserver {
public:
  void cellAllocated(const ConsCell *Cell, uint32_t) override {
    obs::rec::emit(RecKind::CellBirth, Cell->AllocSeq, Cell->SiteId,
                   static_cast<uint32_t>(Cell->Class));
  }
  void cellTouched(const ConsCell *Cell, uint64_t) override {
    if (!Cell->Touched)
      obs::rec::emit(RecKind::CellTouch, Cell->AllocSeq, Cell->SiteId);
  }
  void cellDied(const ConsCell *Cell, CellDeath How, uint64_t) override {
    obs::rec::emit(RecKind::CellDeath, Cell->AllocSeq, Cell->SiteId,
                   obs::rec::deathPayload(static_cast<uint8_t>(Cell->Class),
                                          static_cast<uint32_t>(How)));
  }
  void cellReused(const ConsCell *Cell, uint32_t SiteId, uint64_t) override {
    obs::rec::emit(RecKind::CellDcons, Cell->AllocSeq, SiteId, Cell->SiteId);
  }
  void cellMigrated(const ConsCell *Cell) override {
    obs::rec::emit(RecKind::CellMigrate, Cell->AllocSeq,
                   baseSiteId(Cell->SiteId),
                   static_cast<uint32_t>(Cell->Class));
  }
};

} // namespace

ExecutionObserver &eal::cellRecorder() {
  static CellRecorder Recorder;
  return Recorder;
}
