//===- Timeline.cpp - eal-rec-v1 reader + heap-timeline replay ------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Layout: a dependency-free mini JSON parser (the recorder's NDJSON
// lines are flat and small; header/footer carry nested arrays/objects),
// the eal-rec-v1 loader (NDJSON and binary framing), the replay state
// machine, and the text/JSON renderers.
//
//===----------------------------------------------------------------------===//

#include "obs/Timeline.h"

#include "support/Trace.h" // jsonQuote

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace eal;
using namespace eal::obs;
using namespace eal::obs::rec;

const char *rec::tlClassName(uint8_t Class) {
  switch (Class) {
  case TlHeap:
    return "heap";
  case TlStack:
    return "stack";
  case TlRegion:
    return "region";
  }
  return "invalid";
}

//===----------------------------------------------------------------------===//
// Mini JSON parser
//===----------------------------------------------------------------------===//

namespace {

struct JValue {
  enum Type { Null, Bool, Num, Str, Arr, Obj } T = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<JValue> A;
  std::vector<std::pair<std::string, JValue>> O;

  const JValue *field(const char *Key) const {
    for (const auto &[K, V] : O)
      if (K == Key)
        return &V;
    return nullptr;
  }
  /// Timestamps/counters fit in a double's 53-bit mantissa with room to
  /// spare (micros since process start, cell counts).
  uint64_t asU64() const { return N <= 0 ? 0 : static_cast<uint64_t>(N); }
};

class JParser {
public:
  /// \p Text must be NUL-terminated (strtod); std::string guarantees it.
  explicit JParser(const std::string &Text)
      : P(Text.c_str()), E(Text.c_str() + Text.size()) {}

  bool parse(JValue &Out) {
    if (!value(Out))
      return false;
    skipWs();
    return P == E;
  }

private:
  const char *P, *E;

  void skipWs() {
    while (P != E && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool lit(const char *S) {
    size_t L = std::strlen(S);
    if (static_cast<size_t>(E - P) < L || std::strncmp(P, S, L) != 0)
      return false;
    P += L;
    return true;
  }
  bool value(JValue &V) {
    skipWs();
    if (P == E)
      return false;
    switch (*P) {
    case '{':
      return object(V);
    case '[':
      return array(V);
    case '"':
      V.T = JValue::Str;
      return string(V.S);
    case 't':
      V.T = JValue::Bool;
      V.B = true;
      return lit("true");
    case 'f':
      V.T = JValue::Bool;
      V.B = false;
      return lit("false");
    case 'n':
      V.T = JValue::Null;
      return lit("null");
    default:
      return number(V);
    }
  }
  bool number(JValue &V) {
    char *End = nullptr;
    V.N = std::strtod(P, &End);
    if (End == P || End > E)
      return false;
    V.T = JValue::Num;
    P = End;
    return true;
  }
  bool string(std::string &S) {
    ++P; // opening quote
    S.clear();
    while (P != E && *P != '"') {
      if (*P != '\\') {
        S.push_back(*P++);
        continue;
      }
      if (++P == E)
        return false;
      switch (*P++) {
      case '"':
        S.push_back('"');
        break;
      case '\\':
        S.push_back('\\');
        break;
      case '/':
        S.push_back('/');
        break;
      case 'n':
        S.push_back('\n');
        break;
      case 'r':
        S.push_back('\r');
        break;
      case 't':
        S.push_back('\t');
        break;
      case 'b':
        S.push_back('\b');
        break;
      case 'f':
        S.push_back('\f');
        break;
      case 'u': {
        if (E - P < 4)
          return false;
        char Buf[5] = {P[0], P[1], P[2], P[3], 0};
        long Code = std::strtol(Buf, nullptr, 16);
        P += 4;
        // The recorder only escapes control bytes; decode the Latin-1
        // range and substitute '?' beyond it (good enough for names).
        S.push_back(Code < 0x100 ? static_cast<char>(Code) : '?');
        break;
      }
      default:
        return false;
      }
    }
    if (P == E)
      return false;
    ++P; // closing quote
    return true;
  }
  bool object(JValue &V) {
    V.T = JValue::Obj;
    ++P;
    skipWs();
    if (P != E && *P == '}') {
      ++P;
      return true;
    }
    for (;;) {
      skipWs();
      if (P == E || *P != '"')
        return false;
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (P == E || *P != ':')
        return false;
      ++P;
      JValue Val;
      if (!value(Val))
        return false;
      V.O.emplace_back(std::move(Key), std::move(Val));
      skipWs();
      if (P == E)
        return false;
      if (*P == ',') {
        ++P;
        continue;
      }
      if (*P == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool array(JValue &V) {
    V.T = JValue::Arr;
    ++P;
    skipWs();
    if (P != E && *P == ']') {
      ++P;
      return true;
    }
    for (;;) {
      JValue Val;
      if (!value(Val))
        return false;
      V.A.push_back(std::move(Val));
      skipWs();
      if (P == E)
        return false;
      if (*P == ',') {
        ++P;
        continue;
      }
      if (*P == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Loader
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

} // namespace

bool Timeline::load(const std::string &Path, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail(Err, "timeline: cannot open " + Path);

  std::string Line;
  if (!std::getline(In, Line))
    return fail(Err, "timeline: empty recording " + Path);
  JValue Header;
  if (!JParser(Line).parse(Header) || Header.T != JValue::Obj)
    return fail(Err, "timeline: malformed header line");
  const JValue *Schema = Header.field("schema");
  if (!Schema || Schema->S != "eal-rec-v1")
    return fail(Err, "timeline: not an eal-rec-v1 recording");
  if (const JValue *V = Header.field("format"))
    Format = V->S;
  if (const JValue *V = Header.field("mode"))
    Mode = V->S;
  if (const JValue *V = Header.field("command"))
    Command = V->S;
  if (const JValue *V = Header.field("detail"))
    Detail = V->B;

  // Kinds are matched by name: a recording from a build with a
  // different kind set still replays, unknown kinds are skipped.
  std::vector<RecKind> KindMap;
  if (const JValue *Kinds = Header.field("kinds")) {
    for (const JValue &KV : Kinds->A) {
      RecKind Mapped = RecKind::None;
      for (size_t I = 0; I != static_cast<size_t>(RecKind::NumKinds); ++I)
        if (KV.S == kindName(static_cast<RecKind>(I))) {
          Mapped = static_cast<RecKind>(I);
          break;
        }
      KindMap.push_back(Mapped);
    }
  }

  std::vector<RecEvent> Events;
  JValue Footer;
  bool SawFooter = false;
  if (Format == "binary") {
    RecEvent Ev;
    for (;;) {
      if (!In.read(reinterpret_cast<char *>(&Ev), sizeof(RecEvent)))
        return fail(Err, "timeline: truncated binary recording");
      if (Ev.Kind == 0xFFFF) // sentinel: footer line follows
        break;
      Events.push_back(Ev);
    }
    if (!std::getline(In, Line))
      return fail(Err, "timeline: missing footer after sentinel");
    if (!JParser(Line).parse(Footer) || !Footer.field("footer"))
      return fail(Err, "timeline: malformed footer line");
    SawFooter = true;
  } else {
    size_t LineNo = 1;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.empty())
        continue;
      JValue V;
      if (!JParser(Line).parse(V) || V.T != JValue::Obj)
        return fail(Err,
                    "timeline: malformed line " + std::to_string(LineNo));
      if (V.field("footer")) {
        Footer = std::move(V);
        SawFooter = true;
        break;
      }
      RecEvent Ev;
      if (const JValue *F = V.field("t"))
        Ev.TimeUs = F->asU64();
      if (const JValue *F = V.field("tid"))
        Ev.Tid = static_cast<uint16_t>(F->asU64());
      if (const JValue *F = V.field("k"))
        Ev.Kind = static_cast<uint16_t>(F->asU64());
      if (const JValue *F = V.field("a"))
        Ev.A = F->asU64();
      if (const JValue *F = V.field("b"))
        Ev.B = F->asU64();
      if (const JValue *F = V.field("c"))
        Ev.C = static_cast<uint32_t>(F->asU64());
      Events.push_back(Ev);
    }
  }
  if (!SawFooter)
    return fail(Err, "timeline: recording has no footer (truncated?)");

  if (const JValue *V = Footer.field("names"))
    for (const JValue &NV : V->A)
      Names.push_back(NV.S);
  if (const JValue *V = Footer.field("counters"))
    for (const auto &[K, CV] : V->O)
      Counters[K] = CV.asU64();
  if (const JValue *V = Footer.field("dropped"))
    Dropped = V->asU64();
  if (const JValue *V = Footer.field("trigger"))
    Trigger = V->S;

  // Remap file-local kind ids to ours, dropping unknowns.
  for (RecEvent &Ev : Events)
    Ev.Kind = Ev.Kind < KindMap.size()
                  ? static_cast<uint16_t>(KindMap[Ev.Kind])
                  : static_cast<uint16_t>(RecKind::None);

  replay(Events);
  return true;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

void Timeline::replay(const std::vector<RecEvent> &Events) {
  EventCount = Events.size();
  if (!Events.empty()) {
    FirstUs = Events.front().TimeUs;
    LastUs = Events.back().TimeUs;
  }

  // The speculation pre-run (phase "spec-profile") runs a heap of its
  // own, but the footer's RuntimeStats describe the measured run alone:
  // the replay skips the pre-run's heap events (its cell events are
  // never recorded). Its time bands are collected first, so a recording
  // whose events are not in time order still skips them.
  std::vector<std::pair<uint64_t, uint64_t>> PreRuns;
  for (const RecEvent &Ev : Events)
    if (Ev.Kind == static_cast<uint16_t>(RecKind::PhaseBegin) &&
        name(Ev.A) == "spec-profile")
      PreRuns.push_back({Ev.TimeUs, UINT64_MAX});
    else if (Ev.Kind == static_cast<uint16_t>(RecKind::PhaseEnd) &&
             name(Ev.A) == "spec-profile" && !PreRuns.empty())
      PreRuns.back().second = Ev.TimeUs;

  std::unordered_map<uint64_t, size_t> RibbonBySeq; // AllocSeq -> index
  // Open phases per producer id (innermost last).
  std::unordered_map<uint16_t, std::vector<size_t>> OpenPhases;
  size_t OpenGc = SIZE_MAX;
  int64_t Live[NumTlClasses] = {0, 0, 0};

  auto Point = [&](uint64_t T) {
    if (!Curve.empty() && Curve.back().TimeUs == T) {
      for (size_t I = 0; I != NumTlClasses; ++I)
        Curve.back().Live[I] = Live[I];
      return;
    }
    OccupancyPoint P;
    P.TimeUs = T;
    for (size_t I = 0; I != NumTlClasses; ++I)
      P.Live[I] = Live[I];
    Curve.push_back(P);
  };
  auto Bump = [&](uint8_t Class, int64_t Delta, uint64_t T) {
    if (Class >= NumTlClasses)
      return;
    Live[Class] += Delta;
    if (Live[Class] > PeakLive[Class])
      PeakLive[Class] = Live[Class];
    Point(T);
  };
  auto SiteBump = [&](uint32_t SiteId, uint64_t T) -> SiteOccupancy & {
    SiteOccupancy &S = Sites[SiteId];
    if (S.Live > S.PeakLive) {
      S.PeakLive = S.Live;
      S.PeakUs = T;
    }
    return S;
  };
  auto AddMarker = [&](const RecEvent &Ev, std::string Label) {
    Marker M;
    M.TimeUs = Ev.TimeUs;
    M.Kind = static_cast<RecKind>(Ev.Kind);
    M.Label = std::move(Label);
    M.A = Ev.A;
    M.B = Ev.B;
    M.C = Ev.C;
    Markers.push_back(std::move(M));
  };

  for (const RecEvent &Ev : Events) {
    auto K = static_cast<RecKind>(Ev.Kind);
    // GcBegin through ArenaFree are the heap's lite kinds.
    if (K >= RecKind::GcBegin && K <= RecKind::ArenaFree &&
        std::any_of(PreRuns.begin(), PreRuns.end(), [&](const auto &Band) {
          return Ev.TimeUs >= Band.first && Ev.TimeUs <= Band.second;
        }))
      continue;
    switch (K) {
    case RecKind::RunBegin:
      AddMarker(Ev, name(Ev.A) + "/" + name(Ev.B));
      break;
    case RecKind::RunEnd:
      AddMarker(Ev, Ev.A ? "ok" : "failed");
      break;
    case RecKind::PhaseBegin: {
      PhaseBand B;
      B.Name = name(Ev.A);
      B.BeginUs = Ev.TimeUs;
      OpenPhases[Ev.Tid].push_back(Phases.size());
      Phases.push_back(std::move(B));
      break;
    }
    case RecKind::PhaseEnd: {
      auto &Stack = OpenPhases[Ev.Tid];
      // Close the innermost open phase with this name (phases nest).
      for (size_t I = Stack.size(); I-- > 0;)
        if (Phases[Stack[I]].Name == name(Ev.A)) {
          Phases[Stack[I]].EndUs = Ev.TimeUs;
          Stack.erase(Stack.begin() + static_cast<ptrdiff_t>(I));
          break;
        }
      break;
    }
    case RecKind::GcBegin: {
      GcBand B;
      B.BeginUs = Ev.TimeUs;
      B.LiveBefore = Ev.A;
      B.Capacity = Ev.B;
      OpenGc = GcBands.size();
      GcBands.push_back(B);
      break;
    }
    case RecKind::GcEnd:
      ++GcRuns;
      if (OpenGc != SIZE_MAX) {
        GcBand &B = GcBands[OpenGc];
        B.EndUs = Ev.TimeUs;
        B.Marked = Ev.A;
        B.Swept = Ev.B;
        B.LiveAfter = Ev.C;
        OpenGc = SIZE_MAX;
      }
      break;
    case RecKind::HeapGrow:
      ++HeapGrowths;
      break;
    case RecKind::ArenaOpen:
      ++ArenaOpens;
      break;
    case RecKind::ArenaFree:
      ++ArenaFrees;
      ArenaStackCellsFreed += Ev.A;
      ArenaRegionCellsFreed += Ev.B;
      break;
    case RecKind::CellBirth: {
      uint8_t Class = static_cast<uint8_t>(Ev.C);
      if (Class < NumTlClasses)
        ++BirthsByClass[Class];
      Bump(Class, +1, Ev.TimeUs);
      uint32_t Site = static_cast<uint32_t>(Ev.B);
      SiteOccupancy &S = Sites[Site];
      if (Class < NumTlClasses)
        ++S.Births[Class];
      ++S.Live;
      SiteBump(Site, Ev.TimeUs);
      CellRibbon R;
      R.Seq = Ev.A;
      R.BirthUs = Ev.TimeUs;
      R.BirthSite = R.FinalSite = Site;
      R.BirthClass = R.FinalClass = Class;
      RibbonBySeq[Ev.A] = Ribbons.size();
      Ribbons.push_back(R);
      break;
    }
    case RecKind::CellDeath: {
      uint8_t Class = static_cast<uint8_t>(Ev.C & 0xFF);
      uint32_t Reason = Ev.C >> 8;
      if (Reason == DeathBySweep)
        ++SweepDeaths;
      else if (Class < NumTlClasses)
        ++ArenaDeathsByClass[Class];
      Bump(Class, -1, Ev.TimeUs);
      uint32_t Site = static_cast<uint32_t>(Ev.B);
      SiteOccupancy &S = Sites[Site];
      if (Class < NumTlClasses)
        ++S.Deaths[Class];
      --S.Live;
      auto It = RibbonBySeq.find(Ev.A);
      if (It == RibbonBySeq.end()) {
        ++UnmatchedDeaths; // born before the recording started
        break;
      }
      CellRibbon &R = Ribbons[It->second];
      R.DeathUs = Ev.TimeUs;
      R.DeathReason = static_cast<uint8_t>(Reason);
      R.FinalSite = Site;
      break;
    }
    case RecKind::CellDcons: {
      ++DconsTotal;
      uint32_t NewSite = static_cast<uint32_t>(Ev.B);
      ++Sites[NewSite].Dcons;
      auto It = RibbonBySeq.find(Ev.A);
      if (It != RibbonBySeq.end()) {
        CellRibbon &R = Ribbons[It->second];
        R.FinalSite = NewSite;
        ++R.DconsCount;
      }
      break;
    }
    case RecKind::CellTouch: {
      auto It = RibbonBySeq.find(Ev.A);
      if (It != RibbonBySeq.end()) {
        CellRibbon &R = Ribbons[It->second];
        if (!R.FirstTouchUs)
          R.FirstTouchUs = Ev.TimeUs;
        R.LastTouchUs = Ev.TimeUs;
      }
      break;
    }
    case RecKind::CellMigrate: {
      ++Migrations;
      uint8_t OldClass = static_cast<uint8_t>(Ev.C);
      Bump(OldClass, -1, Ev.TimeUs);
      Bump(TlHeap, +1, Ev.TimeUs);
      auto It = RibbonBySeq.find(Ev.A);
      if (It != RibbonBySeq.end()) {
        CellRibbon &R = Ribbons[It->second];
        R.FinalClass = TlHeap;
        R.Migrated = true;
      }
      break;
    }
    case RecKind::SpecDeopt:
      AddMarker(Ev, name(Ev.A));
      break;
    case RecKind::OracleRefuted:
    case RecKind::LiveRefuted:
      AddMarker(Ev, name(Ev.B));
      break;
    case RecKind::DumpTrigger:
      AddMarker(Ev, name(Ev.A));
      break;
    case RecKind::None:
    case RecKind::NumKinds:
      break;
    }
  }

  // Compact the curve to the cap by striding (keeping the last point).
  if (Curve.size() > MaxCurvePoints) {
    std::vector<OccupancyPoint> Kept;
    Kept.reserve(MaxCurvePoints);
    size_t Stride = (Curve.size() + MaxCurvePoints - 1) / MaxCurvePoints;
    for (size_t I = 0; I < Curve.size(); I += Stride)
      Kept.push_back(Curve[I]);
    if (Kept.back().TimeUs != Curve.back().TimeUs)
      Kept.push_back(Curve.back());
    Curve = std::move(Kept);
  }
}

std::string Timeline::name(uint64_t Id) const {
  return Id < Names.size() ? Names[static_cast<size_t>(Id)]
                           : "<unknown:" + std::to_string(Id) + ">";
}

//===----------------------------------------------------------------------===//
// Reconciliation
//===----------------------------------------------------------------------===//

bool Timeline::reconciles(std::string *Why) const {
  if (Counters.empty())
    return true; // nothing to reconcile against (e.g. mid-run dump)
  bool Ok = true;
  auto Check = [&](const char *Key, uint64_t Replayed, bool Applicable) {
    if (!Applicable)
      return;
    auto It = Counters.find(Key);
    if (It == Counters.end() || It->second == Replayed)
      return;
    Ok = false;
    if (Why) {
      *Why += std::string(Why->empty() ? "" : "; ") + Key + ": counter " +
              std::to_string(It->second) + " != replayed " +
              std::to_string(Replayed);
    }
  };
  // A flight dump is a partial window by design: only a complete stream
  // can replay the whole run.
  bool Full = Mode == "stream";
  Check("gc_runs", GcRuns, Full);
  Check("heap_growths", HeapGrowths, Full);
  Check("stack_cells_freed", ArenaStackCellsFreed, Full);
  Check("region_cells_freed", ArenaRegionCellsFreed, Full);
  // The per-cell tier adds the exact birth/death/reuse accounting.
  Check("heap_cells_allocated", BirthsByClass[TlHeap], Full && Detail);
  Check("stack_cells_allocated", BirthsByClass[TlStack], Full && Detail);
  Check("region_cells_allocated", BirthsByClass[TlRegion], Full && Detail);
  Check("dcons_reuses", DconsTotal, Full && Detail);
  Check("cells_swept", SweepDeaths, Full && Detail);
  Check("stack_cells_freed", ArenaDeathsByClass[TlStack], Full && Detail);
  Check("region_cells_freed", ArenaDeathsByClass[TlRegion], Full && Detail);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

namespace {

std::string siteLabel(uint32_t SiteId) {
  // Matches the runtime's speculative-site tagging (RtValue.h): the
  // high bit marks a cell allocated under a speculative plan.
  constexpr uint32_t SpecSiteBit = 0x80000000u;
  if (SiteId & SpecSiteBit)
    return "spec:" + std::to_string(SiteId & ~SpecSiteBit);
  return std::to_string(SiteId);
}

} // namespace

std::string Timeline::renderText() const {
  std::ostringstream OS;
  OS << "recording: mode=" << Mode << " format=" << Format
     << " command=" << Command << " detail=" << (Detail ? "yes" : "no")
     << " events=" << EventCount << " span=" << FirstUs << ".." << LastUs
     << "us dropped=" << Dropped;
  if (!Trigger.empty())
    OS << " trigger=" << Trigger;
  OS << "\n";

  OS << "births: heap=" << BirthsByClass[TlHeap]
     << " stack=" << BirthsByClass[TlStack]
     << " region=" << BirthsByClass[TlRegion]
     << "  deaths: swept=" << SweepDeaths
     << " arena-stack=" << ArenaDeathsByClass[TlStack]
     << " arena-region=" << ArenaDeathsByClass[TlRegion];
  if (UnmatchedDeaths)
    OS << " (" << UnmatchedDeaths << " unmatched)";
  OS << "\n";
  OS << "dcons re-tags: " << DconsTotal << "  migrations: " << Migrations
     << "  gc cycles: " << GcRuns << "  heap growths: " << HeapGrowths
     << "  arenas: " << ArenaOpens << " opened, " << ArenaFrees << " freed ("
     << ArenaStackCellsFreed << " stack + " << ArenaRegionCellsFreed
     << " region cells)\n";
  OS << "peak live: heap=" << PeakLive[TlHeap]
     << " stack=" << PeakLive[TlStack] << " region=" << PeakLive[TlRegion]
     << "\n";

  if (!Phases.empty()) {
    OS << "phases:";
    for (const PhaseBand &B : Phases) {
      OS << " " << B.Name << "=";
      if (B.EndUs)
        OS << (B.EndUs - B.BeginUs) << "us";
      else
        OS << "open";
    }
    OS << "\n";
  }
  for (const GcBand &B : GcBands)
    OS << "gc band: " << B.BeginUs << ".." << B.EndUs << "us live "
       << B.LiveBefore << "/" << B.Capacity << " -> marked " << B.Marked
       << ", swept " << B.Swept << ", live " << B.LiveAfter << "\n";

  // Top sites by total births.
  std::vector<std::pair<uint32_t, const SiteOccupancy *>> Top;
  for (const auto &[Site, S] : Sites)
    Top.emplace_back(Site, &S);
  std::stable_sort(Top.begin(), Top.end(), [](const auto &A, const auto &B) {
    uint64_t BA = A.second->Births[0] + A.second->Births[1] +
                  A.second->Births[2];
    uint64_t BB = B.second->Births[0] + B.second->Births[1] +
                  B.second->Births[2];
    return BA > BB;
  });
  size_t Shown = 0;
  for (const auto &[Site, S] : Top) {
    if (Shown++ == 8)
      break;
    OS << "site " << siteLabel(Site) << ": births h/s/r " << S->Births[TlHeap]
       << "/" << S->Births[TlStack] << "/" << S->Births[TlRegion]
       << " deaths " << (S->Deaths[0] + S->Deaths[1] + S->Deaths[2])
       << " dcons " << S->Dcons << " peak " << S->PeakLive << "@"
       << S->PeakUs << "us live " << S->Live << "\n";
  }

  for (const Marker &M : Markers)
    OS << "marker @" << M.TimeUs << "us "
       << kindName(M.Kind) << " " << M.Label
       << (M.Kind == RecKind::OracleRefuted ||
                   M.Kind == RecKind::LiveRefuted
               ? " site " + siteLabel(static_cast<uint32_t>(M.A))
               : "")
       << "\n";

  if (Detail) {
    size_t Untouched = 0, Alive = 0;
    for (const CellRibbon &R : Ribbons) {
      if (!R.FirstTouchUs)
        ++Untouched;
      if (!R.DeathUs)
        ++Alive;
    }
    OS << "ribbons: " << Ribbons.size() << " cells (" << Untouched
       << " never touched, " << Alive << " alive at end)\n";
  }

  std::string Why;
  bool Ok = reconciles(&Why);
  OS << "counters reconcile: " << (Ok ? "yes" : "NO") << "\n";
  if (!Ok)
    OS << "  " << Why << "\n";
  return OS.str();
}

std::string Timeline::toJson() const {
  std::ostringstream OS;
  std::string Why;
  bool Ok = reconciles(&Why);
  OS << "{\"schema\":\"eal-timeline-v1\",\"mode\":" << jsonQuote(Mode)
     << ",\"format\":" << jsonQuote(Format)
     << ",\"command\":" << jsonQuote(Command)
     << ",\"detail\":" << (Detail ? "true" : "false")
     << ",\"trigger\":" << jsonQuote(Trigger) << ",\"events\":" << EventCount
     << ",\"first_us\":" << FirstUs << ",\"last_us\":" << LastUs
     << ",\"dropped\":" << Dropped
     << ",\"births\":{\"heap\":" << BirthsByClass[TlHeap]
     << ",\"stack\":" << BirthsByClass[TlStack]
     << ",\"region\":" << BirthsByClass[TlRegion] << "}"
     << ",\"deaths\":{\"swept\":" << SweepDeaths
     << ",\"arena_stack\":" << ArenaDeathsByClass[TlStack]
     << ",\"arena_region\":" << ArenaDeathsByClass[TlRegion]
     << ",\"unmatched\":" << UnmatchedDeaths << "}"
     << ",\"dcons\":" << DconsTotal << ",\"migrations\":" << Migrations
     << ",\"gc_runs\":" << GcRuns << ",\"heap_growths\":" << HeapGrowths
     << ",\"arena_opens\":" << ArenaOpens << ",\"arena_frees\":" << ArenaFrees
     << ",\"peak\":{\"heap\":" << PeakLive[TlHeap]
     << ",\"stack\":" << PeakLive[TlStack]
     << ",\"region\":" << PeakLive[TlRegion] << "}"
     << ",\"reconciles\":" << (Ok ? "true" : "false")
     << ",\"mismatches\":" << jsonQuote(Why);

  OS << ",\"sites\":[";
  bool First = true;
  for (const auto &[Site, S] : Sites) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"site\":" << (Site & 0x7FFFFFFFu)
       << ",\"spec\":" << ((Site & 0x80000000u) ? "true" : "false")
       << ",\"births\":[" << S.Births[0] << ',' << S.Births[1] << ','
       << S.Births[2] << "],\"deaths\":[" << S.Deaths[0] << ',' << S.Deaths[1]
       << ',' << S.Deaths[2] << "],\"dcons\":" << S.Dcons
       << ",\"live\":" << S.Live << ",\"peak\":" << S.PeakLive
       << ",\"peak_us\":" << S.PeakUs << "}";
  }
  OS << "]";

  OS << ",\"curve\":[";
  for (size_t I = 0; I != Curve.size(); ++I) {
    if (I)
      OS << ',';
    OS << '[' << Curve[I].TimeUs << ',' << Curve[I].Live[0] << ','
       << Curve[I].Live[1] << ',' << Curve[I].Live[2] << ']';
  }
  OS << "]";

  OS << ",\"phases\":[";
  for (size_t I = 0; I != Phases.size(); ++I) {
    if (I)
      OS << ',';
    OS << "{\"name\":" << jsonQuote(Phases[I].Name)
       << ",\"begin_us\":" << Phases[I].BeginUs
       << ",\"end_us\":" << Phases[I].EndUs << "}";
  }
  OS << "]";

  OS << ",\"gc\":[";
  for (size_t I = 0; I != GcBands.size(); ++I) {
    const GcBand &B = GcBands[I];
    if (I)
      OS << ',';
    OS << "{\"begin_us\":" << B.BeginUs << ",\"end_us\":" << B.EndUs
       << ",\"live_before\":" << B.LiveBefore
       << ",\"capacity\":" << B.Capacity << ",\"marked\":" << B.Marked
       << ",\"swept\":" << B.Swept << ",\"live_after\":" << B.LiveAfter
       << "}";
  }
  OS << "]";

  OS << ",\"markers\":[";
  for (size_t I = 0; I != Markers.size(); ++I) {
    const Marker &M = Markers[I];
    if (I)
      OS << ',';
    OS << "{\"t\":" << M.TimeUs
       << ",\"kind\":" << jsonQuote(kindName(M.Kind))
       << ",\"label\":" << jsonQuote(M.Label) << ",\"a\":" << M.A
       << ",\"b\":" << M.B << ",\"c\":" << M.C << "}";
  }
  OS << "]";

  OS << ",\"ribbons\":[";
  size_t N = std::min(Ribbons.size(), MaxJsonRibbons);
  for (size_t I = 0; I != N; ++I) {
    const CellRibbon &R = Ribbons[I];
    if (I)
      OS << ',';
    OS << "{\"seq\":" << R.Seq << ",\"birth_us\":" << R.BirthUs
       << ",\"first_touch_us\":" << R.FirstTouchUs
       << ",\"last_touch_us\":" << R.LastTouchUs
       << ",\"death_us\":" << R.DeathUs
       << ",\"site\":" << (R.BirthSite & 0x7FFFFFFFu)
       << ",\"final_site\":" << (R.FinalSite & 0x7FFFFFFFu)
       << ",\"class\":" << jsonQuote(tlClassName(R.BirthClass))
       << ",\"final_class\":" << jsonQuote(tlClassName(R.FinalClass))
       << ",\"dcons\":" << R.DconsCount
       << ",\"migrated\":" << (R.Migrated ? "true" : "false");
    if (R.DeathUs)
      OS << ",\"death_reason\":"
         << jsonQuote(R.DeathReason == DeathBySweep ? "sweep" : "arena");
    OS << "}";
  }
  OS << "],\"ribbons_total\":" << Ribbons.size();

  OS << ",\"counters\":{";
  First = true;
  for (const auto &[K, V] : Counters) {
    if (!First)
      OS << ',';
    First = false;
    OS << jsonQuote(K) << ':' << V;
  }
  OS << "}}\n";
  return OS.str();
}
