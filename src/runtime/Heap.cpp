//===- Heap.cpp -----------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "obs/Recorder.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace eal;

//===----------------------------------------------------------------------===//
// Marker
//===----------------------------------------------------------------------===//

void Marker::value(RtValue V) {
  Work.push_back(V);
  drain();
}

void Marker::drain() {
  while (!Work.empty()) {
    RtValue V = Work.back();
    Work.pop_back();
    if (V.isCons() || V.isPair()) {
      ConsCell *Cell = V.cell();
      if (Cell->Mark)
        continue;
      Cell->Mark = true;
      ++H.Stats.CellsMarked;
      // Dead-site prune (setDeadSites): the cell itself survives — it
      // is reachable — but the analysis claims no one will ever demand
      // its fields, so nothing reachable only through them needs to.
      if (H.DeadSites && H.DeadSites->count(baseSiteId(Cell->SiteId)))
          [[unlikely]] {
        ++H.PrunedDeadCells;
        continue;
      }
      Work.push_back(Cell->Car);
      Work.push_back(Cell->Cdr);
      continue;
    }
    if (V.isClosure() && H.TraceClosure) {
      // The tracer may call value() reentrantly; that is fine, the
      // worklist absorbs it.
      H.TraceClosure(V.closure(), *this);
    }
  }
}

//===----------------------------------------------------------------------===//
// Pool management
//===----------------------------------------------------------------------===//

Heap::Heap(RuntimeStats &Stats) : Heap(Stats, Options()) {}

Heap::Heap(RuntimeStats &Stats, Options Opts) : Stats(Stats), Opts(Opts) {
  growPool(Opts.InitialCapacity);
}

void Heap::growPool(size_t MinCells) {
  size_t Size = MinCells == 0 ? 1024 : MinCells;
  auto Slab = std::make_unique<ConsCell[]>(Size);
  for (size_t I = 0; I != Size; ++I) {
    Slab[I].State = CellState::Free;
    Slab[I].Next = FreeList;
    FreeList = &Slab[I];
  }
  Slabs.push_back(std::move(Slab));
  SlabSizes.push_back(Size);
  Capacity += Size;
}

ConsCell *Heap::popFree(CellClass Class, uint32_t SiteId) {
  ConsCell *Cell = FreeList;
  if (!Cell)
    return nullptr;
  FreeList = Cell->Next;
  Cell->Car = RtValue::makeNil();
  Cell->Cdr = RtValue::makeNil();
  Cell->Next = nullptr;
  Cell->AllocSeq = ++NextAllocSeq;
  Cell->SiteId = SiteId;
  Cell->Class = Class;
  Cell->State = CellState::Live;
  Cell->Mark = false;
  Cell->Touched = false;
  return Cell;
}

ConsCell *Heap::allocateHeap(uint32_t SiteId) {
  ConsCell *Cell = popFree(CellClass::Heap, SiteId);
  if (!Cell) {
    collect();
    // Grow if the collection recovered too little to make progress.
    size_t FreeCells = 0;
    for (ConsCell *F = FreeList; F && FreeCells < Capacity; F = F->Next)
      ++FreeCells;
    if (FreeCells <
        static_cast<size_t>(static_cast<double>(Capacity) *
                            Opts.GrowthTrigger)) {
      if (Opts.AllowGrowth) {
        growPool(Capacity); // double
        ++Stats.HeapGrowths;
        obs::rec::emit(obs::rec::RecKind::HeapGrow, Capacity);
      } else if (FreeCells == 0) {
        return nullptr;
      }
    }
    Cell = popFree(CellClass::Heap, SiteId);
    if (!Cell)
      return nullptr;
  }
  ++Stats.HeapCellsAllocated;
  ++LiveHeap;
  if (LiveHeap > Stats.PeakLiveHeapCells)
    Stats.PeakLiveHeapCells = LiveHeap;
  if (Obs) [[unlikely]]
    Obs->cellAllocated(Cell, SiteId);
  return Cell;
}

//===----------------------------------------------------------------------===//
// Arenas
//===----------------------------------------------------------------------===//

size_t Heap::createArena() {
  size_t Handle;
  if (!FreeArenaSlots.empty()) {
    Handle = FreeArenaSlots.back();
    FreeArenaSlots.pop_back();
    Arenas[Handle] = CellArena();
  } else {
    Handle = Arenas.size();
    Arenas.emplace_back();
  }
  Arenas[Handle].Live = true;
  obs::rec::emit(obs::rec::RecKind::ArenaOpen, Handle);
  return Handle;
}

ConsCell *Heap::allocateInArena(size_t Handle, CellClass Class,
                                uint32_t SiteId, bool Speculative) {
  assert(Handle < Arenas.size() && Arenas[Handle].Live && "stale arena");
  assert(Class != CellClass::Heap && "heap cells do not live in arenas");
  // Tagged once: every retry below must keep the speculative bit.
  const uint32_t Tagged = Speculative ? SiteId | SpecSiteBit : SiteId;
  ConsCell *Cell = popFree(Class, Tagged);
  if (!Cell) {
    // Arena cells are never collected, so collection cannot help unless
    // heap garbage exists; try it, then grow.
    collect();
    Cell = popFree(Class, Tagged);
    if (!Cell) {
      if (!Opts.AllowGrowth)
        return nullptr;
      growPool(Capacity);
      ++Stats.HeapGrowths;
      obs::rec::emit(obs::rec::RecKind::HeapGrow, Capacity);
      Cell = popFree(Class, Tagged);
      if (!Cell)
        return nullptr;
    }
  }
  CellArena &A = Arenas[Handle];
  Cell->Next = nullptr;
  if (A.Tail) {
    A.Tail->Next = Cell;
    A.Tail = Cell;
  } else {
    A.Head = A.Tail = Cell;
  }
  ++A.Count;
  if (Class == CellClass::Stack) {
    ++A.StackCells;
    ++Stats.StackCellsAllocated;
  } else {
    ++A.RegionCells;
    ++Stats.RegionCellsAllocated;
  }
  if (Obs) [[unlikely]]
    Obs->cellAllocated(Cell, SiteId);
  return Cell;
}

void Heap::freeArena(size_t Handle) {
  assert(Handle < Arenas.size() && Arenas[Handle].Live && "stale arena");
  CellArena &A = Arenas[Handle];
  // The one place observation gives up freeArena's O(1): each death is
  // a per-cell event, so the chain is walked before the splice below.
  if (Obs) [[unlikely]]
    for (ConsCell *Cell = A.Head; Cell; Cell = Cell->Next)
      Obs->cellDied(Cell, CellDeath::ArenaFree, NextAllocSeq);
  if (A.Head) {
    // O(1) block reclamation: splice the whole chain onto the free list
    // without visiting the list structure. Cells are re-initialized on
    // reallocation, so their stale contents are harmless.
    A.Tail->Next = FreeList;
    FreeList = A.Head;
  }
  if (A.StackCells) {
    ++Stats.StackArenaFrees;
    Stats.StackCellsFreed += A.StackCells;
  }
  if (A.RegionCells) {
    ++Stats.RegionBulkFrees;
    Stats.RegionCellsFreed += A.RegionCells;
  }
  if (A.StackCells || A.RegionCells)
    obs::rec::emit(obs::rec::RecKind::ArenaFree, A.StackCells, A.RegionCells,
                   static_cast<uint32_t>(Handle));
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::MetricsRegistry &Reg = obs::globalMetrics();
    if (A.StackCells)
      Reg.histogram("heap.arena.stack_cells_per_free").record(A.StackCells);
    if (A.RegionCells)
      Reg.histogram("heap.arena.region_cells_per_free")
          .record(A.RegionCells);
  }
  A = CellArena();
  FreeArenaSlots.push_back(Handle);
}

std::vector<size_t> Heap::liveArenas() const {
  std::vector<size_t> Live;
  for (size_t H = 0; H != Arenas.size(); ++H)
    if (Arenas[H].Live)
      Live.push_back(H);
  return Live;
}

size_t Heap::migrateArenaToHeap(size_t Handle) {
  assert(Handle < Arenas.size() && Arenas[Handle].Live && "stale arena");
  CellArena &A = Arenas[Handle];
  size_t Migrated = A.Count;
  ConsCell *Cell = A.Head;
  while (Cell) {
    ConsCell *Next = Cell->Next;
    if (Obs) [[unlikely]]
      Obs->cellMigrated(Cell);
    // The cell becomes an ordinary GC-heap resident: Next is a free-list/
    // arena-chain link and heap cells use neither. AllocSeq is preserved
    // — the oracle's (pointer, stamp) identity must survive deopt.
    Cell->Next = nullptr;
    Cell->Class = CellClass::Heap;
    Cell->SiteId = baseSiteId(Cell->SiteId);
    ++LiveHeap;
    if (LiveHeap > Stats.PeakLiveHeapCells)
      Stats.PeakLiveHeapCells = LiveHeap;
    Cell = Next;
  }
  // Empty the chain: the owning activation still frees this arena on
  // exit, and that free must reclaim nothing (the conditional counters
  // in freeArena then stay untouched too).
  A.Head = A.Tail = nullptr;
  A.Count = A.StackCells = A.RegionCells = 0;
  return Migrated;
}

bool Heap::arenaIsReachable(size_t Handle) {
  assert(Handle < Arenas.size() && Arenas[Handle].Live && "stale arena");
  if (!Roots)
    return false;
  // Mark from roots, then check whether any cell of this arena is marked.
  // Statistics are not charged for validation runs.
  uint64_t SavedMarked = Stats.CellsMarked;
  markPhase(/*IncludeArenas=*/true, /*ExcludeHandle=*/Handle);
  bool Reachable = false;
  for (ConsCell *Cell = Arenas[Handle].Head; Cell; Cell = Cell->Next)
    if (Cell->Mark) {
      Reachable = true;
      break;
    }
  clearMarks();
  Stats.CellsMarked = SavedMarked;
  return Reachable;
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

void Heap::markPhase(bool IncludeArenas, size_t ExcludeHandle) {
  Marker M(*this);
  if (Roots)
    Roots(M);
  if (!IncludeArenas)
    return;
  // Cells in live arenas are alive by construction until their activation
  // pops; anything they reference must survive.
  for (size_t H = 0; H != Arenas.size(); ++H) {
    if (H == ExcludeHandle)
      continue;
    const CellArena &A = Arenas[H];
    if (!A.Live)
      continue;
    for (ConsCell *Cell = A.Head; Cell; Cell = Cell->Next) {
      Cell->Mark = true;
      if (DeadSites && DeadSites->count(baseSiteId(Cell->SiteId)))
          [[unlikely]] {
        ++PrunedDeadCells;
        continue;
      }
      M.value(Cell->Car);
      M.value(Cell->Cdr);
    }
  }
}

void Heap::clearMarks() {
  for (size_t S = 0; S != Slabs.size(); ++S)
    for (size_t I = 0; I != SlabSizes[S]; ++I)
      Slabs[S][I].Mark = false;
}

void Heap::collect() {
  ++Stats.GcRuns;
  // Capture before-counters so the GC events can report this run's work.
  const bool Traced = obs::metricsEnabled() || obs::rec::on();
  const uint64_t MarkedBefore = Traced ? Stats.CellsMarked : 0;
  const uint64_t SweptBefore = Traced ? Stats.CellsSwept : 0;
  const int64_t StartUs = obs::metricsEnabled() ? obs::nowMicros() : 0;
  obs::rec::emit(obs::rec::RecKind::GcBegin, LiveHeap, Capacity);

  markPhase(/*IncludeArenas=*/true, /*ExcludeHandle=*/SIZE_MAX);
  // Sweep: only heap-class cells are individually reclaimed.
  for (size_t S = 0; S != Slabs.size(); ++S) {
    for (size_t I = 0; I != SlabSizes[S]; ++I) {
      ConsCell &Cell = Slabs[S][I];
      ++Stats.CellsScannedBySweep;
      if (Cell.State == CellState::Live && Cell.Class == CellClass::Heap &&
          !Cell.Mark) {
        if (Obs) [[unlikely]]
          Obs->cellDied(&Cell, CellDeath::Sweep, NextAllocSeq);
        Cell.State = CellState::Free;
        Cell.Car = RtValue::makeNil();
        Cell.Cdr = RtValue::makeNil();
        Cell.Next = FreeList;
        FreeList = &Cell;
        ++Stats.CellsSwept;
        assert(LiveHeap > 0 && "sweep underflow");
        --LiveHeap;
      }
      Cell.Mark = false;
    }
  }

  if (Traced) [[unlikely]] {
    const uint64_t Marked = Stats.CellsMarked - MarkedBefore;
    const uint64_t Swept = Stats.CellsSwept - SweptBefore;
    obs::rec::emit(obs::rec::RecKind::GcEnd, Marked, Swept,
                   static_cast<uint32_t>(LiveHeap));
    if (obs::metricsEnabled()) {
      obs::MetricsRegistry &Reg = obs::globalMetrics();
      Reg.histogram("heap.gc.pause_us")
          .record(static_cast<uint64_t>(obs::nowMicros() - StartUs));
      Reg.histogram("heap.gc.swept_cells_per_run").record(Swept);
    }
  }
}
