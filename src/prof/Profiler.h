//===- Profiler.h - Allocation-site & hot-path profiler ---------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `eal::prof` profiler: the evidence layer behind the optimizer's
/// claims. Two views of one run:
///
///  * **Allocation sites.** Every cons cell carries the node id of its
///    static allocation site (ConsCell::SiteId). The profiler is one
///    consumer of the runtime's per-cell event channel
///    (runtime/ExecutionObserver.h): each birth is counted with its
///    storage class and each death — GC sweep, arena free, or DCONS
///    overwrite — with its lifetime measured in allocation-sequence
///    distance. Per site the profiler keeps counts bucketed by storage
///    class plus a lifetime histogram, so a report can say *which source
///    cons* produced the garbage and whether the planner's
///    stack/region/reuse claims actually fired.
///
///  * **Hot path.** An exact (not sampled) calling-context tree for
///    either engine, weighted by RuntimeStats::Steps (evaluated
///    expressions on the tree-walker, dispatched instructions on the VM)
///    and exportable as collapsed stacks (the `folded` flamegraph
///    format); for the VM additionally exact per-opcode and per-proto
///    dispatch counters. Both engines take the profiler as
///    EngineOptions::Profiler. Their one feed of the tree is the runtime
///    core (runtime/EngineCore.h): its frame events and the end of the
///    run, each stamped with Steps. The VM also counts its dispatches
///    here.
///
/// Dependency direction: the profiler depends on the runtime's observer
/// interface. The runtime core calls only the header-only frame hooks
/// and finish. Keys are plain uint32 ids (lambda node ids in the
/// tree-walker, proto indices in the VM) that callers resolve to names
/// at export time; the report builder (ProfileReport.h) links against
/// the world.
///
/// One caveat worth stating once: a DCONS overwrite re-tags the cell
/// with the dcons site but does *not* restamp ConsCell::AllocSeq (the
/// dynamic escape oracle uses the stamp as allocation identity), so the
/// lifetime recorded at the cell's final death spans from the original
/// allocation.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_PROF_PROFILER_H
#define EAL_PROF_PROFILER_H

#include "runtime/ExecutionObserver.h"
#include "support/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace eal::prof {

/// Site counters bucket by storage class, indexed by CellClass.
constexpr unsigned NumStorageClasses = 3;

/// Site id of allocations with no static site (engine-internal cells,
/// tests poking the heap directly). Never collides with an AST node id.
constexpr uint32_t NoSite = 0xFFFFFFFFu;

/// What one static allocation site did at runtime.
struct SiteCounters {
  /// Births by storage class.
  uint64_t Allocs[NumStorageClasses] = {};
  /// Deaths by storage class (GC sweep for heap, arena free for
  /// stack/region). Cells still live at end of run die nowhere.
  uint64_t Deaths[NumStorageClasses] = {};
  /// DCONS re-incarnations credited to this site (it is the dcons site).
  uint64_t Reuses = 0;
  /// Cells born at this site later consumed in place by a DCONS.
  uint64_t Overwritten = 0;
  /// Allocations whose fields were demanded at least once (car/cdr/fst/
  /// snd) while tagged with this site. totalAllocs() - FirstTouches is
  /// the site's dead-cell count; the report derives the dead fraction
  /// from it (docs/LIVENESS.md). A DCONS re-tag moves future touch
  /// attribution to the dcons site, matching the liveness analysis's
  /// view of whose data the cell now holds.
  uint64_t FirstTouches = 0;
  /// Cells deopt-migrated from a speculative arena to the GC heap
  /// (docs/SPECULATION.md). A migrated cell's birth stays in Allocs under
  /// its original storage class; its eventual death is a heap death.
  uint64_t Migrated = 0;
  /// Allocation-sequence distance from birth to death (all death kinds).
  obs::Histogram Lifetime;

  uint64_t totalAllocs() const {
    return Allocs[0] + Allocs[1] + Allocs[2];
  }
  uint64_t totalDeaths() const {
    return Deaths[0] + Deaths[1] + Deaths[2];
  }
};

/// An exact calling-context tree with an incremental cursor: push /
/// replace / pop mirror the engine's activation stack, and attribute()
/// charges elapsed weight (steps, instructions) to the node the cursor
/// is on. Keys are caller-defined uint32 ids; RootKey is reserved for
/// the synthetic root (top-level evaluation outside any activation).
class StackTree {
public:
  static constexpr uint32_t RootKey = 0xFFFFFFFFu;

  StackTree();

  void push(uint32_t Key) { Cur = childOf(Cur, Key); }
  /// Tail call: the current node's frame is replaced, so the new key
  /// becomes a *sibling* (child of the current node's parent), exactly
  /// matching the engine's O(1)-frame semantics.
  void replace(uint32_t Key) {
    // Replacing the root would corrupt the tree; a tail call with an
    // empty activation stack cannot happen in either engine, but stay
    // safe.
    if (Cur == 0) {
      push(Key);
      return;
    }
    Cur = childOf(Nodes[Cur].Parent, Key);
  }
  void pop() {
    if (Cur != 0)
      Cur = Nodes[Cur].Parent;
  }
  /// Charges Now - (last attributed clock) to the current node.
  void attribute(uint64_t Now) {
    if (Now > Last) {
      Nodes[Cur].Self += Now - Last;
      Last = Now;
    }
  }
  /// attribute(Now), then unwind the cursor to the root (end of run or
  /// abandoned frames after a runtime error).
  void finish(uint64_t Now) {
    attribute(Now);
    Cur = 0;
  }
  /// The clock of the last attribution.
  uint64_t clock() const { return Last; }

  size_t depth() const;
  size_t nodeCount() const { return Nodes.size(); }
  uint64_t totalWeight() const;
  /// Self weight accumulated on nodes keyed \p Key (summed over all
  /// contexts).
  uint64_t selfWeight(uint32_t Key) const;

  /// Collapsed-stack export: one "root;a;b;c weight" line per node with
  /// non-zero self weight, names resolved by \p Resolve, every line
  /// prefixed with \p Prefix (typically the engine name). This is the
  /// `folded` format of standard flamegraph tooling.
  std::string folded(const std::function<std::string(uint32_t)> &Resolve,
                     const std::string &Prefix) const;

private:
  struct Node {
    uint32_t Key;
    uint32_t Parent; ///< index into Nodes; root points at itself
    uint64_t Self = 0;
    std::unordered_map<uint32_t, uint32_t> Children; ///< key -> node index
  };

  uint32_t childOf(uint32_t NodeIdx, uint32_t Key) {
    auto It = Nodes[NodeIdx].Children.find(Key);
    if (It != Nodes[NodeIdx].Children.end())
      return It->second;
    uint32_t New = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back(Node{Key, NodeIdx, 0, {}});
    Nodes[NodeIdx].Children.emplace(Key, New);
    return New;
  }

  std::vector<Node> Nodes;
  uint32_t Cur = 0;
  uint64_t Last = 0;
};

/// One engine run's profile; one Profiler instance profiles one run of
/// one engine. Attach it as the engine's observer (with other consumers
/// through an ObserverFanOut) and as EngineOptions::Profiler.
class Profiler final : public ExecutionObserver {
public:
  //===--- Allocation sites: the per-cell event channel -------------------==//

  void cellAllocated(const ConsCell *Cell, uint32_t SiteId) override;
  /// Counts only a cell's first touch under its current site tag.
  void cellTouched(const ConsCell *Cell, uint64_t NowSeq) override;
  void cellDied(const ConsCell *Cell, CellDeath How, uint64_t NowSeq) override;
  /// The reuse is credited to \p SiteId (the dcons site) and the
  /// overwritten allocation's lifetime recorded against its old site.
  void cellReused(const ConsCell *Cell, uint32_t SiteId,
                  uint64_t NowSeq) override;
  void cellMigrated(const ConsCell *Cell) override;

  const std::unordered_map<uint32_t, SiteCounters> &sites() const {
    return Sites;
  }
  /// Looks a site up without creating it (null when never seen).
  const SiteCounters *site(uint32_t Id) const;

  //===--- Hot path: frame events ----------------------------------------==//
  //
  // Fed only by the runtime core (runtime/EngineCore.h). \p Now is the
  // engine's RuntimeStats::Steps: each event first charges the steps
  // since the previous one to the frame the cursor is on.

  void framePushed(uint32_t Key, uint64_t Now) {
    Tree.attribute(Now);
    Tree.push(Key);
    ++CallsByKey[Key];
  }
  void frameReplaced(uint32_t Key, uint64_t Now) {
    Tree.attribute(Now);
    Tree.replace(Key);
    ++CallsByKey[Key];
  }
  void framePopped(uint64_t Now) {
    Tree.attribute(Now);
    Tree.pop();
  }
  /// End of run: attribute the tail and unwind (frames abandoned by a
  /// runtime error included).
  void finish(uint64_t Now) { Tree.finish(Now); }
  /// The clock of the last event: RuntimeStats::Steps once the run ended.
  uint64_t clock() const { return Tree.clock(); }

  const StackTree &stacks() const { return Tree; }
  const std::unordered_map<uint32_t, uint64_t> &calls() const {
    return CallsByKey;
  }

  //===--- Hot path: VM dispatch counters --------------------------------==//

  /// Sizes the exact per-opcode / per-proto tables; call once before the
  /// VM run (the VM constructor does).
  void beginVm(size_t NumProtos, size_t NumOpcodes);
  bool vmProfile() const { return !OpcodeCounts.empty(); }

  void countVmStep(uint8_t Op, uint32_t ProtoIdx) {
    ++OpcodeCounts[Op];
    ++ProtoInstrs[ProtoIdx];
  }

  const std::vector<uint64_t> &opcodeCounts() const { return OpcodeCounts; }
  const std::vector<uint64_t> &protoInstrs() const { return ProtoInstrs; }

private:
  std::unordered_map<uint32_t, SiteCounters> Sites;

  StackTree Tree;
  std::unordered_map<uint32_t, uint64_t> CallsByKey;

  std::vector<uint64_t> OpcodeCounts; ///< sized by beginVm (VM runs only)
  std::vector<uint64_t> ProtoInstrs;
};

} // namespace eal::prof

#endif // EAL_PROF_PROFILER_H
