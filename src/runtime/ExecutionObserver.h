//===- ExecutionObserver.h - The per-cell event channel ---------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one channel through which both engines report what happens to
/// cells (docs/INTERNALS.md): births, deaths and deopt migrations come
/// from the heap, field touches and DCONS reuses from Heap::touch and
/// Heap::reuse. The events mirror the recorder's cell.* kinds. The
/// consumers are the profiler's site counters (prof::Profiler), the
/// recorder's detail tier (cellRecorder() below) and the escape and
/// liveness oracles (src/check); the runtime depends on none of them.
/// ObserverFanOut composes several on one run. Each emit site tests the
/// observer pointer once.
///
/// Both engines attach the observer the same way, as
/// EngineOptions::Observer of the runtime core (EngineCore.h), which
/// hands it to the heap. The core's frame events are the only source of
/// user-closure activations, which both engines report with the same
/// nesting and strict bracketing: every activationEntered is matched by
/// exactly one activationExited (with a null result when evaluation
/// failed), in LIFO order. Both hooks fire while the values passed are
/// still rooted, so they cannot be swept during the callback.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_EXECUTIONOBSERVER_H
#define EAL_RUNTIME_EXECUTIONOBSERVER_H

#include "runtime/RtValue.h"

#include <span>
#include <string>
#include <vector>

namespace eal {

class AppExpr;
class LambdaExpr;

/// How a cell died; the values are the recorder's cell.death reasons.
enum class CellDeath : uint8_t {
  Sweep = 0,     ///< a heap-class cell reclaimed by mark-sweep
  ArenaFree = 1, ///< a stack/region cell spliced off with its arena
};

/// Observes the cell events and activations of one engine run. All
/// hooks default to no-ops.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver() = default;

  /// \p Cell just came off the free list for static cons site \p SiteId
  /// (the AppExpr id of the cons/pair application, or the PrimExpr id
  /// when a primitive *value* allocated it). The cell's Class and
  /// AllocSeq fields are already final; its SiteId additionally carries
  /// SpecSiteBit when a speculative directive placed it.
  virtual void cellAllocated(const ConsCell *Cell, uint32_t SiteId) {
    (void)Cell;
    (void)SiteId;
  }

  /// A field of \p Cell was demanded: car/cdr on a cons, fst/snd on a
  /// pair. \p NowSeq is the heap's current allocation stamp, so the
  /// liveness oracle (src/check/LiveOracle.h) can record per-cell
  /// last-touch times in AllocSeq units. A null/tag test (null p) is
  /// *not* a touch, and neither is a DCONS overwrite: liveness counts
  /// reads of the data, not existence checks or recycling.
  /// Cell->Touched is still false when this is the first touch since
  /// the cell's birth or its last DCONS; Heap::touch sets it after the
  /// observer returns.
  virtual void cellTouched(const ConsCell *Cell, uint64_t NowSeq) {
    (void)Cell;
    (void)NowSeq;
  }

  /// \p Cell is being reclaimed \p How. Its fields and tags are still
  /// intact; \p NowSeq - Cell->AllocSeq is its lifetime in allocations.
  virtual void cellDied(const ConsCell *Cell, CellDeath How,
                        uint64_t NowSeq) {
    (void)Cell;
    (void)How;
    (void)NowSeq;
  }

  /// DCONS site \p SiteId is about to overwrite \p Cell in place. Fires
  /// before the re-tag, so Cell->SiteId is still the old site.
  virtual void cellReused(const ConsCell *Cell, uint32_t SiteId,
                          uint64_t NowSeq) {
    (void)Cell;
    (void)SiteId;
    (void)NowSeq;
  }

  /// Deopt (docs/SPECULATION.md): \p Cell is about to move from its
  /// speculative arena to the GC heap. Fires before the move, so Class
  /// and SiteId are still the arena's.
  virtual void cellMigrated(const ConsCell *Cell) { (void)Cell; }

  /// A user-closure body is about to be evaluated. \p CallSite is the
  /// outermost AppExpr of the originating call spine when \p Fn was the
  /// spine's direct callee (the case static per-call verdicts attach
  /// to), null for activations reached through returned closures or
  /// partial applications. \p Args are the argument values this
  /// activation consumed, in parameter order.
  virtual void activationEntered(const LambdaExpr *Fn, const AppExpr *CallSite,
                                 std::span<const RtValue> Args) {
    (void)Fn;
    (void)CallSite;
    (void)Args;
  }

  /// The matching activation finished. \p Result is its value, or null
  /// when evaluation failed and the engine is unwinding. Fires *before*
  /// the activation's arenas are reclaimed, so arena-class cells are
  /// still inspectable. Returning false aborts evaluation; the engine
  /// reports abortReason() as a diagnostic.
  virtual bool activationExited(const RtValue *Result) {
    (void)Result;
    return true;
  }

  /// The diagnostic message used when activationExited returns false.
  virtual std::string abortReason() const {
    return "execution observer aborted evaluation";
  }
};

/// Forwards every event to each added observer, in the order added.
class ObserverFanOut final : public ExecutionObserver {
public:
  /// Adds \p Obs (null is ignored).
  void add(ExecutionObserver *Obs) {
    if (Obs)
      Observers.push_back(Obs);
  }
  /// What to hand an engine: null without observers, the observer
  /// itself when there is one, otherwise this fan-out.
  ExecutionObserver *get() {
    return Observers.size() > 1 ? this
           : Observers.empty()  ? nullptr
                                : Observers.front();
  }

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->cellAllocated(Cell, SiteId);
  }
  void cellTouched(const ConsCell *Cell, uint64_t NowSeq) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->cellTouched(Cell, NowSeq);
  }
  void cellDied(const ConsCell *Cell, CellDeath How, uint64_t NowSeq) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->cellDied(Cell, How, NowSeq);
  }
  void cellReused(const ConsCell *Cell, uint32_t SiteId,
                  uint64_t NowSeq) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->cellReused(Cell, SiteId, NowSeq);
  }
  void cellMigrated(const ConsCell *Cell) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->cellMigrated(Cell);
  }
  void activationEntered(const LambdaExpr *Fn, const AppExpr *CallSite,
                         std::span<const RtValue> Args) override {
    for (ExecutionObserver *Obs : Observers)
      Obs->activationEntered(Fn, CallSite, Args);
  }
  /// Every observer sees every exit (strict bracketing) even when an
  /// earlier one aborts; abortReason() is the first aborter's.
  bool activationExited(const RtValue *Result) override {
    bool Keep = true;
    for (ExecutionObserver *Obs : Observers)
      if (!Obs->activationExited(Result) && Keep) {
        Keep = false;
        Aborted = Obs;
      }
    return Keep;
  }
  std::string abortReason() const override {
    return Aborted ? Aborted->abortReason() : ExecutionObserver::abortReason();
  }

private:
  std::vector<ExecutionObserver *> Observers;
  ExecutionObserver *Aborted = nullptr;
};

/// The flight recorder's detail tier (docs/RECORDER.md): turns every
/// cell event into the eal-rec-v1 cell.* event of the same name, touches
/// only on a cell's first touch. The pipeline attaches it to the measured
/// run while a stream is open. Stateless, so one instance serves all.
ExecutionObserver &cellRecorder();

} // namespace eal

#endif // EAL_RUNTIME_EXECUTIONOBSERVER_H
