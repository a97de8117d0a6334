//===- Profiler.cpp - Allocation-site & hot-path profiler ------- C++ -*-===//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

namespace eal::prof {

//===----------------------------------------------------------------------===//
// StackTree
//===----------------------------------------------------------------------===//

StackTree::StackTree() {
  Nodes.push_back(Node{RootKey, 0, 0, {}});
}

size_t StackTree::depth() const {
  size_t D = 0;
  for (uint32_t N = Cur; N != 0; N = Nodes[N].Parent)
    ++D;
  return D;
}

uint64_t StackTree::totalWeight() const {
  uint64_t W = 0;
  for (const Node &N : Nodes)
    W += N.Self;
  return W;
}

uint64_t StackTree::selfWeight(uint32_t Key) const {
  uint64_t W = 0;
  for (const Node &N : Nodes)
    if (N.Key == Key)
      W += N.Self;
  return W;
}

std::string
StackTree::folded(const std::function<std::string(uint32_t)> &Resolve,
                  const std::string &Prefix) const {
  // Build each node's frame path root-to-leaf; emit one line per node
  // with self weight. Deterministic order: node index (creation order).
  std::string Out;
  std::vector<std::string> Paths(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    if (I == 0) {
      Paths[I] = Prefix;
    } else {
      Paths[I] = Paths[N.Parent];
      Paths[I] += ';';
      Paths[I] += Resolve(N.Key);
    }
    if (N.Self != 0) {
      Out += Paths[I];
      Out += ' ';
      Out += std::to_string(N.Self);
      Out += '\n';
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

const SiteCounters *Profiler::site(uint32_t Id) const {
  auto It = Sites.find(Id);
  return It == Sites.end() ? nullptr : &It->second;
}

static_assert(static_cast<unsigned>(CellClass::Region) + 1 ==
                  NumStorageClasses,
              "site counters index by CellClass");

void Profiler::cellAllocated(const ConsCell *Cell, uint32_t SiteId) {
  ++Sites[SiteId].Allocs[static_cast<unsigned>(Cell->Class)];
}

void Profiler::cellTouched(const ConsCell *Cell, uint64_t) {
  if (!Cell->Touched)
    ++Sites[baseSiteId(Cell->SiteId)].FirstTouches;
}

void Profiler::cellDied(const ConsCell *Cell, CellDeath, uint64_t NowSeq) {
  SiteCounters &SC = Sites[baseSiteId(Cell->SiteId)];
  ++SC.Deaths[static_cast<unsigned>(Cell->Class)];
  SC.Lifetime.record(NowSeq - Cell->AllocSeq);
}

void Profiler::cellReused(const ConsCell *Cell, uint32_t SiteId,
                          uint64_t NowSeq) {
  ++Sites[SiteId].Reuses;
  SiteCounters &Old = Sites[baseSiteId(Cell->SiteId)];
  ++Old.Overwritten;
  Old.Lifetime.record(NowSeq - Cell->AllocSeq);
}

void Profiler::cellMigrated(const ConsCell *Cell) {
  ++Sites[baseSiteId(Cell->SiteId)].Migrated;
}

void Profiler::beginVm(size_t NumProtos, size_t NumOpcodes) {
  OpcodeCounts.assign(NumOpcodes, 0);
  ProtoInstrs.assign(NumProtos, 0);
}

} // namespace eal::prof
