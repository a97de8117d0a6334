//===- Heap.h - Cons-cell heap with mark-sweep GC and arenas ----*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage manager the optimizations act on. Cons cells come from a
/// slab pool with a free list. Heap-class cells are reclaimed by
/// mark-sweep collection; Stack- and Region-class cells live in *arenas*
/// owned by activations and are reclaimed wholesale:
///
///  * a Stack arena models allocation in an activation record (A.3.1);
///  * a Region models the Ruggieri–Murtagh "local heap" (A.3.3): the
///    whole block is spliced back onto the free list in O(1), with no
///    traversal of the list structure.
///
/// The mark phase traverses cons cells itself; closures (whose
/// environments the heap knows nothing about) are traced through a
/// callback installed by the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_RUNTIME_HEAP_H
#define EAL_RUNTIME_HEAP_H

#include "runtime/ExecutionObserver.h"
#include "runtime/RtValue.h"
#include "runtime/RuntimeStats.h"

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

namespace eal {

/// Marks values during collection. Cons-cell traversal is iterative (long
/// spines must not overflow the C++ stack); closures are delegated to the
/// interpreter-installed tracer.
class Marker {
public:
  /// Marks \p V and everything reachable from it.
  void value(RtValue V);

private:
  friend class Heap;
  explicit Marker(class Heap &H) : H(H) {}
  void drain();

  Heap &H;
  std::vector<RtValue> Work;
};

/// A chain of cells owned by one activation.
class CellArena {
public:
  bool empty() const { return Head == nullptr; }
  size_t cellCount() const { return Count; }

private:
  friend class Heap;
  ConsCell *Head = nullptr;
  ConsCell *Tail = nullptr;
  size_t Count = 0;
  size_t StackCells = 0;
  size_t RegionCells = 0;
  bool Live = false;
};

/// The cell pool, free list, garbage collector, and arena registry.
class Heap {
public:
  struct Options {
    /// Initial pool size in cells.
    size_t InitialCapacity = 1 << 14;
    /// Whether the pool may grow when collection frees too little; when
    /// false, exhaustion makes allocation return null.
    bool AllowGrowth = true;
    /// Grow when a collection frees less than this fraction of capacity.
    double GrowthTrigger = 0.2;
  };

  /// Scans the interpreter's roots, marking each root value.
  using RootScanner = std::function<void(Marker &)>;
  /// Traces one closure's environment (marking the values it captures).
  using ClosureTracer = std::function<void(const RtClosure *, Marker &)>;

  explicit Heap(RuntimeStats &Stats);
  Heap(RuntimeStats &Stats, Options Opts);

  void setRootScanner(RootScanner Scanner) { Roots = std::move(Scanner); }
  void setClosureTracer(ClosureTracer Tracer) {
    TraceClosure = std::move(Tracer);
  }

  /// Attaches the per-cell event channel (null detaches): every birth,
  /// death and migration, and the engines' touch() and reuse() calls.
  void setObserver(ExecutionObserver *O) { Obs = O; }

  /// Installs the liveness analysis's dead-site set (null detaches).
  /// While set, the mark phase treats a cell whose SiteId is in the set
  /// as a leaf: the cell itself stays live (it is still reachable), but
  /// its fields are not traced, so data only reachable through
  /// never-demanded allocations is reclaimed (docs/LIVENESS.md). Safe
  /// even if the analysis were wrong about reads-after-prune: slabs are
  /// never returned to the allocator and swept cells are reset to nil.
  /// The set is not owned and must outlive the heap's use of it.
  void setDeadSites(const std::unordered_set<uint32_t> *Sites) {
    DeadSites = Sites;
  }

  /// Cells whose children the mark phase skipped because their SiteId
  /// was claimed dead (`setDeadSites`). Kept out of RuntimeStats so the
  /// default-off feature cannot perturb counter-parity or bench JSON.
  uint64_t prunedDeadCells() const { return PrunedDeadCells; }

  /// Allocates a garbage-collected heap cell, collecting (and possibly
  /// growing) as needed. Returns null only when growth is disabled and
  /// everything is live. \p SiteId tags the cell's static allocation
  /// site for profiling.
  ConsCell *allocateHeap(uint32_t SiteId = 0xFFFFFFFFu);

  //===--- Arenas ----------------------------------------------------------==//

  /// Opens a new arena. The handle stays valid until freeArena.
  size_t createArena();

  /// Allocates a cell of \p Class (Stack or Region) into arena \p Handle.
  /// \p Speculative tags the cell with SpecSiteBit: it was placed by a
  /// speculative directive (src/spec) and may be migrated to the GC heap
  /// by migrateArenaToHeap if the speculation's guard fails.
  ConsCell *allocateInArena(size_t Handle, CellClass Class,
                            uint32_t SiteId = 0xFFFFFFFFu,
                            bool Speculative = false);

  /// The deopt path (docs/SPECULATION.md): re-homes every cell of the
  /// still-live arena \p Handle onto the GC heap. Each cell keeps its
  /// AllocSeq — the (pointer, stamp) identity the dynamic oracle tracks —
  /// while its storage class becomes Heap and its SiteId is re-tagged to
  /// the base site (SpecSiteBit cleared), so profiler and oracle
  /// attribution stay exact. The arena's chain is emptied: the owning
  /// activation's eventual freeArena reclaims nothing, and the migrated
  /// cells live on until mark-sweep proves them dead. Returns the number
  /// of cells migrated.
  size_t migrateArenaToHeap(size_t Handle);

  /// Reclaims the whole arena: its chain is spliced onto the free list
  /// without visiting the list structure. Statistics record stack and
  /// region cells separately.
  void freeArena(size_t Handle);

  /// Handles of the arenas opened and not yet freed, in handle order.
  std::vector<size_t> liveArenas() const;

  //===--- Engine-side cell events ------------------------------------------==//

  /// A field of \p Cell is being demanded (car/cdr/fst/snd): reports the
  /// touch, then sets ConsCell::Touched, the only place that does.
  void touch(ConsCell *Cell) {
    if (Obs) [[unlikely]] {
      Obs->cellTouched(Cell, NextAllocSeq);
      Cell->Touched = true;
    }
  }

  /// DCONS (§6): overwrites the dead cell \p Cell in place for site
  /// \p SiteId. Touch attribution follows the new site from here on,
  /// while the kept AllocSeq still identifies the original allocation.
  void reuse(ConsCell *Cell, uint32_t SiteId, RtValue Car, RtValue Cdr) {
    if (Obs) [[unlikely]]
      Obs->cellReused(Cell, SiteId, NextAllocSeq);
    Cell->SiteId = SiteId;
    Cell->Touched = false;
    Cell->Car = Car;
    Cell->Cdr = Cdr;
    ++Stats.DconsReuses;
  }

  /// Debug validation: true if any cell of arena \p Handle is reachable
  /// from the current roots *excluding* arena chains themselves. Used to
  /// detect unsafe allocation plans before freeing.
  bool arenaIsReachable(size_t Handle);

  //===--- Collection -------------------------------------------------------==//

  /// Runs a full mark-sweep collection.
  void collect();

  size_t liveHeapCells() const { return LiveHeap; }
  size_t capacity() const { return Capacity; }

private:
  friend class Marker;

  void growPool(size_t MinCells);
  void markPhase(bool IncludeArenas, size_t ExcludeHandle);
  void clearMarks();

  RuntimeStats &Stats;
  Options Opts;
  RootScanner Roots;
  ClosureTracer TraceClosure;
  ExecutionObserver *Obs = nullptr;
  const std::unordered_set<uint32_t> *DeadSites = nullptr;
  uint64_t PrunedDeadCells = 0;

  std::vector<std::unique_ptr<ConsCell[]>> Slabs;
  std::vector<size_t> SlabSizes;
  ConsCell *FreeList = nullptr;
  size_t Capacity = 0;
  size_t LiveHeap = 0;
  /// Source of ConsCell::AllocSeq stamps (see RtValue.h).
  uint64_t NextAllocSeq = 0;

  std::vector<CellArena> Arenas;
  std::vector<size_t> FreeArenaSlots;

  /// Pops a cell off the free list (null if empty) and initializes it.
  ConsCell *popFree(CellClass Class, uint32_t SiteId);
};

} // namespace eal

#endif // EAL_RUNTIME_HEAP_H
