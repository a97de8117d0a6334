//===- EngineCore.cpp -----------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "runtime/EngineCore.h"

#include "runtime/SpecHooks.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>

using namespace eal;

EngineCore::EngineCore(const EngineOptions &Opts, DiagnosticEngine &Diags,
                       const char *DiagPrefix, Heap::RootScanner Roots)
    : Opts(Opts),
      TheHeap(Stats, Heap::Options{Opts.HeapCapacity, Opts.AllowHeapGrowth,
                                   0.2}),
      Diags(Diags), DiagPrefix(DiagPrefix) {
  TheHeap.setRootScanner([this, Roots = std::move(Roots)](Marker &M) {
    ++MarkEpoch;
    M.value(Pinned);
    Roots(M);
  });
  TheHeap.setClosureTracer([this](const RtClosure *C, Marker &M) {
    for (RtValue V : C->Partial)
      M.value(V);
    markEnv(C->Env.get(), M);
  });
  TheHeap.setObserver(Opts.Observer);
  Hooks.AllocateCell = [this](uint32_t Site) { return allocateCell(Site); };
  Hooks.Error = [this](const std::string &Message) { error(Message); };
  Hooks.Cells = &TheHeap;
}

EngineCore::~EngineCore() {
  // Letrec frames participate in reference cycles with their closures;
  // break them explicitly so the shared_ptr graph tears down.
  for (const EnvPtr &Frame : RecFrames)
    Frame->Slots.clear();
  for (const std::unique_ptr<RtClosure> &C : Closures)
    C->Env.reset();
}

bool EngineCore::error(const std::string &Message, SourceLoc Loc) {
  if (!Failed)
    Diags.error(Loc, DiagPrefix + Message);
  Failed = true;
  return false;
}

RtClosure *EngineCore::newClosure() {
  Closures.push_back(std::make_unique<RtClosure>());
  ++Stats.ClosuresCreated;
  return Closures.back().get();
}

std::optional<RtValue> EngineCore::applyPrim(const RtClosure &Prim,
                                             std::span<const RtValue> Args,
                                             size_t &Consumed) {
  unsigned Arity = primOpArity(Prim.Op);
  assert(Prim.Partial.size() < Arity && "over-applied primitive closure");
  std::vector<RtValue> Full = Prim.Partial;
  Consumed = std::min<size_t>(Arity - Full.size(), Args.size());
  Full.insert(Full.end(), Args.begin(), Args.begin() + Consumed);
  if (Full.size() < Arity) {
    // Still partial: a new primitive closure accumulating the arguments.
    RtClosure *C = newClosure();
    C->IsPrim = true;
    C->Op = Prim.Op;
    C->PrimNodeId = Prim.PrimNodeId;
    C->Partial = std::move(Full);
    return RtValue::makeClosure(C);
  }
  // Cells allocated through a primitive *value* have no static call site;
  // they go to the heap (SiteId of the prim occurrence never appears in
  // any directive).
  return evalSaturatedPrim(Prim.Op, Prim.PrimNodeId, Full, Hooks);
}

void EngineCore::markEnv(EnvFrame *F, Marker &M) {
  for (; F && F->MarkEpoch != MarkEpoch; F = F->Parent.get()) {
    F->MarkEpoch = MarkEpoch;
    for (auto &Slot : F->Slots)
      M.value(Slot.second);
  }
}

//===----------------------------------------------------------------------===//
// Allocation rule and arena protocol
//===----------------------------------------------------------------------===//

ConsCell *EngineCore::allocateCell(uint32_t SiteId) {
  // Innermost active arena claiming this site wins (tightest lifetime).
  for (auto It = ArenaStack.rbegin(); It != ArenaStack.rend(); ++It) {
    if (It->Handle == NoArena) [[unlikely]]
      continue;
    auto SiteIt = It->Directive->Sites.find(SiteId);
    if (SiteIt == It->Directive->Sites.end())
      continue;
    CellClass Class = SiteIt->second == ArenaSiteClass::Stack
                          ? CellClass::Stack
                          : CellClass::Region;
    return TheHeap.allocateInArena(It->Handle, Class, SiteId,
                                   It->Directive->SpecIndex >= 0);
  }
  return TheHeap.allocateHeap(SiteId);
}

void EngineCore::enterArena(const ArgArenaDirective *D) {
  size_t Handle = NoArena;
  if (D->SpecIndex < 0) {
    Handle = TheHeap.createArena();
  } else if (Opts.Spec && Opts.Spec->directiveArmed(D->SpecIndex)) {
    Handle = TheHeap.createArena();
    Opts.Spec->arenaOpened(D->SpecIndex, static_cast<uint32_t>(Handle));
  }
  ArenaStack.push_back(ActiveArena{D, Handle});
}

size_t EngineCore::leaveArena() {
  assert(!ArenaStack.empty() && "leaving an arena that was never entered");
  size_t Handle = ArenaStack.back().Handle;
  ArenaStack.pop_back();
  return Handle;
}

bool EngineCore::close(std::vector<size_t> &Arenas, RtValue Result) {
  Pinned = Result;
  bool Ok = true;
  for (size_t Handle : Arenas) {
    if (Handle == NoArena)
      continue;
    if (!release(Handle, Opts.ValidateArenaFrees)) {
      Ok = false;
      break;
    }
  }
  Pinned = RtValue::makeNil();
  Arenas.clear();
  return Ok;
}

bool EngineCore::release(size_t Handle, bool Validate) {
  // The spec runtime sees every close first: this is where injected
  // guard failures fire, migrating the speculative cells out before
  // the (then-empty) arena is spliced away.
  if (Opts.Spec) [[unlikely]]
    Opts.Spec->arenaClosing(static_cast<uint32_t>(Handle));
  if (Validate && TheHeap.arenaIsReachable(Handle))
    return error("allocation plan error: arena cell still reachable when "
                 "its activation returned");
  TheHeap.freeArena(Handle);
  return true;
}

bool EngineCore::exitActivations(const RtValue *Result, size_t Exits,
                                 SourceLoc Loc) {
  assert(Exits <= OpenActivations && "ending an activation never begun");
  OpenActivations -= Exits;
  bool Ok = true;
  for (; Exits; --Exits)
    if (!Opts.Observer->activationExited(Ok ? Result : nullptr) && Ok &&
        Result)
      Ok = error(Opts.Observer->abortReason(), Loc);
  return Ok;
}

std::optional<RtValue> EngineCore::endRun(std::optional<RtValue> Result) {
  // Only a failed run leaves activations open. After the first error
  // nothing evaluates, so the arenas still live are exactly those of the
  // activations the error abandoned.
  endActivations(nullptr, OpenActivations);
  if (Failed)
    for (size_t Handle : TheHeap.liveArenas())
      release(Handle, /*Validate=*/false);
  ArenaStack.clear();
  if (Opts.Profiler)
    Opts.Profiler->finish(Stats.Steps);
  if (Failed)
    return std::nullopt;
  return Result;
}
