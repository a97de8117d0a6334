//===- SupportTest.cpp - support-layer unit tests ---------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/LargeStack.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <unistd.h>

using namespace eal;

namespace {

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(ArenaTest, AllocatesAligned) {
  Arena A;
  for (size_t Align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void *P = A.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u);
  }
}

TEST(ArenaTest, CreateConstructsObjects) {
  Arena A;
  struct Point {
    int X, Y;
  };
  Point *P = A.create<Point>(Point{3, 4});
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(ArenaTest, GrowsAcrossSlabs) {
  Arena A(/*SlabSize=*/128);
  for (int I = 0; I != 100; ++I)
    A.allocate(64, 8);
  EXPECT_GT(A.slabCount(), 1u);
  EXPECT_GE(A.bytesAllocated(), 6400u);
}

TEST(ArenaTest, LargeAllocationGetsOwnSlab) {
  Arena A(/*SlabSize=*/64);
  void *P = A.allocate(1024, 8);
  EXPECT_NE(P, nullptr);
}

TEST(ArenaTest, CopyArrayAndString) {
  Arena A;
  int Data[] = {1, 2, 3};
  int *Copy = A.copyArray(Data, 3);
  EXPECT_EQ(Copy[0], 1);
  EXPECT_EQ(Copy[2], 3);
  EXPECT_NE(Copy, Data);
  const char *Str = A.copyString("hello", 5);
  EXPECT_STREQ(Str, "hello");
  EXPECT_EQ(A.copyArray<int>(nullptr, 0), nullptr);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManagerTest, LineColumnMapping) {
  SourceManager SM;
  SM.setBuffer("ab\ncde\n\nf", "test.nml");
  EXPECT_EQ(SM.lineColumn(SourceLoc(0)), (LineColumn{1, 1}));
  EXPECT_EQ(SM.lineColumn(SourceLoc(1)), (LineColumn{1, 2}));
  EXPECT_EQ(SM.lineColumn(SourceLoc(3)), (LineColumn{2, 1}));
  EXPECT_EQ(SM.lineColumn(SourceLoc(5)), (LineColumn{2, 3}));
  EXPECT_EQ(SM.lineColumn(SourceLoc(7)), (LineColumn{3, 1}));
  EXPECT_EQ(SM.lineColumn(SourceLoc(8)), (LineColumn{4, 1}));
}

TEST(SourceManagerTest, InvalidLocationMapsToZero) {
  SourceManager SM;
  SM.setBuffer("abc");
  EXPECT_EQ(SM.lineColumn(SourceLoc::invalid()), (LineColumn{0, 0}));
}

TEST(SourceManagerTest, OffsetPastEndIsClamped) {
  SourceManager SM;
  SM.setBuffer("ab");
  LineColumn LC = SM.lineColumn(SourceLoc(100));
  EXPECT_EQ(LC.Line, 1u);
}

TEST(SourceManagerTest, LineTextExtraction) {
  SourceManager SM;
  SM.setBuffer("first\nsecond\nthird");
  EXPECT_EQ(SM.lineText(SourceLoc(0)), "first");
  EXPECT_EQ(SM.lineText(SourceLoc(7)), "second");
  EXPECT_EQ(SM.lineText(SourceLoc(13)), "third");
}

TEST(SourceManagerTest, RangeText) {
  SourceManager SM;
  SM.setBuffer("hello world");
  EXPECT_EQ(SM.text(SourceRange(SourceLoc(0), SourceLoc(5))), "hello");
  EXPECT_EQ(SM.text(SourceRange(SourceLoc(6), SourceLoc(11))), "world");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CountsErrorsOnly) {
  DiagnosticEngine D;
  D.warning(SourceLoc(0), "w");
  D.note(SourceLoc(0), "n");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(0), "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
}

TEST(DiagnosticsTest, RenderFormat) {
  SourceManager SM;
  SM.setBuffer("x\nyz", "prog.nml");
  DiagnosticEngine D;
  D.error(SourceLoc(2), "bad thing");
  EXPECT_EQ(D.render(SM), "prog.nml:2:1: error: bad thing\n");
}

TEST(DiagnosticsTest, ClearResets) {
  DiagnosticEngine D;
  D.error(SourceLoc(0), "e");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diagnostics().empty());
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInternerTest, InterningIsIdempotent) {
  StringInterner SI;
  Symbol A = SI.intern("foo");
  Symbol B = SI.intern("foo");
  Symbol C = SI.intern("bar");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(SI.spelling(A), "foo");
  EXPECT_EQ(SI.spelling(C), "bar");
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInternerTest, InvalidSymbol) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  EXPECT_EQ(S, Symbol::invalid());
}

TEST(StringInternerTest, SymbolsAreHashable) {
  StringInterner SI;
  std::hash<Symbol> H;
  EXPECT_EQ(H(SI.intern("a")), H(SI.intern("a")));
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(HashingTest, OrderSensitive) {
  EXPECT_NE(hashValues(1, 2), hashValues(2, 1));
  EXPECT_EQ(hashValues(1, 2), hashValues(1, 2));
}

//===----------------------------------------------------------------------===//
// LargeStack
//===----------------------------------------------------------------------===//

size_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  size_t Pages = 0, Resident = 0;
  Statm >> Pages >> Resident;
  return Resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/// Recurses \p Depth frames of at least 4 KB each and returns the
/// resident set size at the deepest one.
[[gnu::noinline]] size_t residentAtDepth(size_t Depth) {
  volatile char Pad[4096];
  Pad[0] = 0;
  size_t Resident = Depth ? residentAtDepth(Depth - 1) : residentBytes();
  return Resident + static_cast<size_t>(Pad[0]);
}

// 128 MB of frames: far past a default thread's 8 MB stack.
constexpr size_t DeepFrames = 32 << 10;

TEST(LargeStackTest, RunsRecursionPastTheDefaultStack) {
  size_t Resident = 0;
  runOnLargeStack([&] { Resident = residentAtDepth(DeepFrames); });
  EXPECT_GT(Resident, DeepFrames * 4096);
}

TEST(LargeStackTest, ReleasesWhatADeepCallTouched) {
  size_t Deepest = 0;
  runOnLargeStack([&] { Deepest = residentAtDepth(DeepFrames); });
  // At least half of the 128 MB the call touched is gone again.
  EXPECT_LT(residentBytes() + DeepFrames * 2048, Deepest);
}

TEST(LargeStackTest, RethrowsWhatTheBodyThrows) {
  EXPECT_THROW(runOnLargeStack([] { throw std::runtime_error("body"); }),
               std::runtime_error);
  bool Ran = false;
  runOnLargeStack([&] { Ran = true; });
  EXPECT_TRUE(Ran);
}

TEST(LargeStackTest, NestedCallRunsOnTheSameStack) {
  int Order = 0, Inner = 0, Outer = 0;
  runOnLargeStack([&] {
    runOnLargeStack([&] { Inner = ++Order; });
    Outer = ++Order;
  });
  EXPECT_EQ(Inner, 1);
  EXPECT_EQ(Outer, 2);
}

} // namespace
