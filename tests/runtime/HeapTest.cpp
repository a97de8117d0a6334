//===- HeapTest.cpp - heap, GC, and arena unit tests -------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace eal;

namespace {

class HeapTest : public ::testing::Test {
protected:
  RuntimeStats Stats;
  std::vector<RtValue> Roots;

  Heap makeHeap(size_t Capacity, bool AllowGrowth) {
    Heap H(Stats, Heap::Options{Capacity, AllowGrowth, 0.2});
    H.setRootScanner([this](Marker &M) {
      for (RtValue V : Roots)
        M.value(V);
    });
    return H;
  }
};

TEST_F(HeapTest, AllocationInitializesCells) {
  Heap H = makeHeap(16, false);
  ConsCell *C = H.allocateHeap();
  ASSERT_NE(C, nullptr);
  EXPECT_TRUE(C->Car.isNil());
  EXPECT_TRUE(C->Cdr.isNil());
  EXPECT_EQ(C->Class, CellClass::Heap);
  EXPECT_EQ(C->State, CellState::Live);
  EXPECT_EQ(Stats.HeapCellsAllocated, 1u);
  EXPECT_EQ(H.liveHeapCells(), 1u);
}

TEST_F(HeapTest, CollectionFreesUnreachableOnly) {
  Heap H = makeHeap(16, false);
  ConsCell *Kept = H.allocateHeap();
  Roots.push_back(RtValue::makeCons(Kept));
  for (int I = 0; I != 8; ++I)
    (void)H.allocateHeap(); // garbage
  H.collect();
  EXPECT_EQ(Stats.CellsSwept, 8u);
  EXPECT_EQ(H.liveHeapCells(), 1u);
  EXPECT_EQ(Kept->State, CellState::Live);
}

TEST_F(HeapTest, CollectionTracesThroughChains) {
  Heap H = makeHeap(16, false);
  ConsCell *A = H.allocateHeap();
  ConsCell *B = H.allocateHeap();
  A->Cdr = RtValue::makeCons(B);
  Roots.push_back(RtValue::makeCons(A));
  H.collect();
  EXPECT_EQ(H.liveHeapCells(), 2u);
  EXPECT_GE(Stats.CellsMarked, 2u);
}

TEST_F(HeapTest, ExhaustionTriggersCollection) {
  Heap H = makeHeap(8, false);
  // Allocate-and-drop forever: GC keeps it alive.
  for (int I = 0; I != 100; ++I)
    ASSERT_NE(H.allocateHeap(), nullptr) << "iteration " << I;
  EXPECT_GE(Stats.GcRuns, 1u);
  EXPECT_EQ(H.capacity(), 8u) << "no growth expected";
}

TEST_F(HeapTest, ExhaustionWithLiveDataFailsWithoutGrowth) {
  Heap H = makeHeap(8, false);
  std::vector<ConsCell *> Cells;
  for (int I = 0; I != 8; ++I) {
    ConsCell *C = H.allocateHeap();
    Roots.push_back(RtValue::makeCons(C));
    Cells.push_back(C);
  }
  EXPECT_EQ(H.allocateHeap(), nullptr);
}

TEST_F(HeapTest, GrowthDoublesCapacity) {
  Heap H = makeHeap(8, true);
  for (int I = 0; I != 9; ++I)
    Roots.push_back(RtValue::makeCons(H.allocateHeap()));
  EXPECT_GT(H.capacity(), 8u);
  EXPECT_GE(Stats.HeapGrowths, 1u);
}

//===----------------------------------------------------------------------===//
// Arenas.
//===----------------------------------------------------------------------===//

TEST_F(HeapTest, ArenaCellsAreNotSwept) {
  Heap H = makeHeap(16, false);
  size_t Arena = H.createArena();
  ConsCell *C = H.allocateInArena(Arena, CellClass::Stack);
  ASSERT_NE(C, nullptr);
  H.collect(); // C has no roots, but arena cells are not collected
  EXPECT_EQ(C->State, CellState::Live);
  EXPECT_EQ(Stats.CellsSwept, 0u);
  H.freeArena(Arena);
}

TEST_F(HeapTest, ArenaContentsKeepHeapCellsAlive) {
  Heap H = makeHeap(16, false);
  size_t Arena = H.createArena();
  ConsCell *InArena = H.allocateInArena(Arena, CellClass::Region);
  ConsCell *OnHeap = H.allocateHeap();
  InArena->Car = RtValue::makeCons(OnHeap);
  H.collect();
  EXPECT_EQ(OnHeap->State, CellState::Live) << "reachable via arena cell";
  EXPECT_EQ(H.liveHeapCells(), 1u);
  H.freeArena(Arena);
}

TEST_F(HeapTest, FreeArenaRecyclesCells) {
  Heap H = makeHeap(4, false);
  size_t Arena = H.createArena();
  for (int I = 0; I != 4; ++I)
    ASSERT_NE(H.allocateInArena(Arena, CellClass::Stack), nullptr);
  // Pool exhausted; nothing heap-collectable.
  EXPECT_EQ(H.allocateHeap(), nullptr);
  H.freeArena(Arena);
  EXPECT_EQ(Stats.StackArenaFrees, 1u);
  EXPECT_EQ(Stats.StackCellsFreed, 4u);
  // The spliced cells are allocatable again.
  EXPECT_NE(H.allocateHeap(), nullptr);
}

TEST_F(HeapTest, ArenaStatsSeparateStackAndRegion) {
  Heap H = makeHeap(16, false);
  size_t Arena = H.createArena();
  (void)H.allocateInArena(Arena, CellClass::Stack);
  (void)H.allocateInArena(Arena, CellClass::Region);
  (void)H.allocateInArena(Arena, CellClass::Region);
  H.freeArena(Arena);
  EXPECT_EQ(Stats.StackCellsFreed, 1u);
  EXPECT_EQ(Stats.RegionCellsFreed, 2u);
  EXPECT_EQ(Stats.RegionBulkFrees, 1u);
}

TEST_F(HeapTest, ArenaHandlesAreRecycled) {
  Heap H = makeHeap(16, false);
  size_t A = H.createArena();
  H.freeArena(A);
  size_t B = H.createArena();
  EXPECT_EQ(A, B);
  H.freeArena(B);
}

TEST_F(HeapTest, ArenaReachabilityDetection) {
  Heap H = makeHeap(16, false);
  size_t Arena = H.createArena();
  ConsCell *C = H.allocateInArena(Arena, CellClass::Stack);
  EXPECT_FALSE(H.arenaIsReachable(Arena));
  Roots.push_back(RtValue::makeCons(C));
  EXPECT_TRUE(H.arenaIsReachable(Arena));
  Roots.clear();
  EXPECT_FALSE(H.arenaIsReachable(Arena));
  // Reachable through a heap chain rooted elsewhere.
  ConsCell *Chain = H.allocateHeap();
  Chain->Cdr = RtValue::makeCons(C);
  Roots.push_back(RtValue::makeCons(Chain));
  EXPECT_TRUE(H.arenaIsReachable(Arena));
  H.freeArena(Arena);
}

TEST_F(HeapTest, SpeculativeTagSurvivesCollectAndGrow) {
  // A pool of two cells, filled by one garbage heap cell and one
  // speculative arena cell: the next speculative allocation succeeds
  // only after a collection frees the garbage, the one after that only
  // after the pool grows. Every retry must keep SpecSiteBit, or the
  // recorder and `eal timeline` label the cell as a plain site.
  Heap H = makeHeap(2, true);
  (void)H.allocateHeap(3);
  size_t Arena = H.createArena();
  ConsCell *First = H.allocateInArena(Arena, CellClass::Region, 7, true);
  ConsCell *AfterCollect =
      H.allocateInArena(Arena, CellClass::Region, 7, true);
  EXPECT_EQ(Stats.GcRuns, 1u);
  EXPECT_EQ(Stats.HeapGrowths, 0u);
  ConsCell *AfterGrow = H.allocateInArena(Arena, CellClass::Region, 7, true);
  EXPECT_EQ(Stats.GcRuns, 2u);
  EXPECT_EQ(Stats.HeapGrowths, 1u);
  for (ConsCell *C : {First, AfterCollect, AfterGrow}) {
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->SiteId, 7u | SpecSiteBit);
  }
  H.freeArena(Arena);
}

/// Logs every cell event the heap reports, in order.
struct EventLog final : public ExecutionObserver {
  std::vector<std::string> Events;

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override {
    Events.push_back("birth " + std::to_string(SiteId) + " class " +
                     std::to_string(static_cast<int>(Cell->Class)));
  }
  void cellTouched(const ConsCell *Cell, uint64_t) override {
    Events.push_back(Cell->Touched ? "touch" : "first touch");
  }
  void cellDied(const ConsCell *Cell, CellDeath How, uint64_t) override {
    Events.push_back(std::string(How == CellDeath::Sweep ? "swept " : "freed ") +
                     std::to_string(Cell->SiteId));
  }
  void cellReused(const ConsCell *Cell, uint32_t SiteId, uint64_t) override {
    Events.push_back("reuse " + std::to_string(baseSiteId(Cell->SiteId)) +
                     " as " + std::to_string(SiteId));
  }
  void cellMigrated(const ConsCell *Cell) override {
    Events.push_back("migrate " + std::to_string(baseSiteId(Cell->SiteId)));
  }
};

TEST_F(HeapTest, ObserverSeesEveryCellEvent) {
  Heap H = makeHeap(16, false);
  EventLog Log;
  H.setObserver(&Log);
  (void)H.allocateHeap(1);
  size_t Spec = H.createArena();
  ConsCell *Cell = H.allocateInArena(Spec, CellClass::Region, 2, true);
  H.touch(Cell);
  H.touch(Cell);
  H.reuse(Cell, 4, RtValue::makeInt(1), RtValue::makeNil());
  EXPECT_FALSE(Cell->Touched) << "a DCONS starts a fresh incarnation";
  H.touch(Cell);
  EXPECT_EQ(H.migrateArenaToHeap(Spec), 1u);
  H.freeArena(Spec);
  size_t Stack = H.createArena();
  (void)H.allocateInArena(Stack, CellClass::Stack, 5);
  H.freeArena(Stack);
  H.collect(); // the sweep walks the slab in address order
  EXPECT_EQ(Log.Events,
            (std::vector<std::string>{
                "birth 1 class 0", "birth 2 class 2", "first touch", "touch",
                "reuse 2 as 4", "first touch", "migrate 4", "birth 5 class 1",
                "freed 5", "swept 4", "swept 1"}));
  EXPECT_EQ(Stats.DconsReuses, 1u);
}

/// Vetoes every activation exit under its own name.
struct Vetoer final : public ExecutionObserver {
  explicit Vetoer(std::string Name) : Name(std::move(Name)) {}
  std::string Name;
  unsigned Exits = 0;
  bool activationExited(const RtValue *) override {
    ++Exits;
    return false;
  }
  std::string abortReason() const override { return Name; }
};

TEST(ObserverFanOut, ForwardsEveryEventToEachObserver) {
  ObserverFanOut Fan;
  EXPECT_EQ(Fan.get(), nullptr);
  EventLog A, B;
  Fan.add(&A);
  Fan.add(nullptr);
  EXPECT_EQ(Fan.get(), &A) << "a lone observer needs no fan-out";
  Fan.add(&B);
  EXPECT_EQ(Fan.get(), &Fan);
  ConsCell Cell;
  Cell.SiteId = 3;
  Fan.cellAllocated(&Cell, 3);
  Fan.cellTouched(&Cell, 1);
  Fan.cellReused(&Cell, 4, 1);
  Fan.cellMigrated(&Cell);
  Fan.cellDied(&Cell, CellDeath::ArenaFree, 2);
  EXPECT_EQ(A.Events.size(), 5u);
  EXPECT_EQ(A.Events, B.Events);
}

TEST(ObserverFanOut, EveryObserverSeesEachExitAndTheFirstVetoWins) {
  Vetoer First("first"), Second("second");
  ObserverFanOut Fan;
  Fan.add(&First);
  Fan.add(&Second);
  EXPECT_FALSE(Fan.activationExited(nullptr));
  EXPECT_EQ(First.Exits, 1u);
  EXPECT_EQ(Second.Exits, 1u) << "strict bracketing: no exit is skipped";
  EXPECT_EQ(Fan.abortReason(), "first");
}

TEST_F(HeapTest, TouchFlagStaysClearWithoutObserver) {
  Heap H = makeHeap(16, false);
  ConsCell *Cell = H.allocateHeap(1);
  H.touch(Cell);
  EXPECT_FALSE(Cell->Touched);
}

TEST_F(HeapTest, ArenaReachableThroughAnotherArena) {
  Heap H = makeHeap(16, false);
  size_t Inner = H.createArena();
  size_t Outer = H.createArena();
  ConsCell *InnerCell = H.allocateInArena(Inner, CellClass::Stack);
  ConsCell *OuterCell = H.allocateInArena(Outer, CellClass::Stack);
  OuterCell->Car = RtValue::makeCons(InnerCell);
  // Freeing Inner while Outer still points at it must be detected.
  EXPECT_TRUE(H.arenaIsReachable(Inner));
  EXPECT_FALSE(H.arenaIsReachable(Outer));
  H.freeArena(Outer);
  EXPECT_FALSE(H.arenaIsReachable(Inner));
  H.freeArena(Inner);
}

} // namespace
