//===- BenchUtil.h - Shared benchmark helpers -------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source generators and configuration helpers shared by the bench
/// binaries. Each bench binary reproduces one table/figure/worked example
/// of the paper (see DESIGN.md §4 for the index).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_BENCH_BENCHUTIL_H
#define EAL_BENCH_BENCHUTIL_H

#include "driver/Pipeline.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace eal::bench {

/// The Appendix A partition sort functions (append/split/ps), without a
/// driver expression.
inline std::string sortPrelude() {
  return R"(
letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  split p x l h = if (null x) then cons l (cons h nil)
                  else if (car x) <= p
                       then split p (cdr x) (cons (car x) l) h
                       else split p (cdr x) l (cons (car x) h);
  ps x = if (null x) then nil
         else append (ps (car (split (car x) (cdr x) nil nil)))
                     (cons (car x)
                           (ps (car (cdr (split (car x) (cdr x) nil nil)))))
)";
}

/// A pseudo-random int list literal of length \p N (deterministic).
inline std::string literalList(unsigned N) {
  std::string Out = "[";
  unsigned V = 7;
  for (unsigned I = 0; I != N; ++I) {
    if (I != 0)
      Out += ", ";
    V = (V * 197 + 31) % 1021;
    Out += std::to_string(V);
  }
  Out += "]";
  return Out;
}

/// Partition sort applied to a literal list (the A.3.1 shape: the spine
/// is constructed at the call and can live in ps's activation record).
inline std::string sortLiteralSource(unsigned N) {
  return sortPrelude() + "in ps " + literalList(N) + "\n";
}

/// Partition sort applied to create_list N (the A.3.3 shape: the spine is
/// built by a producer function and goes to a block).
inline std::string sortProducerSource(unsigned N) {
  std::string Source = sortPrelude() +
                       R"(;
  create_list i = if i = 0 then nil
                  else cons (i * 193 mod 1021) (create_list (i - 1))
in ps (create_list )" +
                       std::to_string(N) + ")\n";
  return Source;
}

/// The §1 map/pair example scaled to a producer-built list of \p N
/// two-element rows, folded to an int so rendering stays out of the
/// measurement. Same shape bench_sec1_map_pair studies, big enough to
/// time.
inline std::string mapPairWorkloadSource(unsigned N) {
  return R"(
letrec
  pair x = if (null x) then nil
           else cons (car x) (cons (car x) nil);
  map f l = if (null l) then nil
            else cons (f (car l)) (map f (cdr l));
  build n = if n = 0 then nil
            else cons (cons n (cons (n + 1) nil)) (build (n - 1));
  len l = if (null l) then 0 else 1 + len (cdr l);
  lenall l = if (null l) then 0 else len (car l) + lenall (cdr l)
in lenall (map pair (build )" +
         std::to_string(N) + "))\n";
}

/// Naive reverse over a literal list of length \p N (A.3.2's REV).
inline std::string reverseSource(unsigned N) {
  return std::string(R"(
letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil
          else append (rev (cdr l)) (cons (car l) nil)
in rev )") +
         literalList(N) + "\n";
}

/// Pipeline options for one optimization configuration.
inline PipelineOptions config(bool Reuse, bool Stack, bool Region,
                              size_t HeapCapacity = 4096) {
  PipelineOptions Options;
  Options.Optimize.EnableReuse = Reuse;
  Options.Optimize.EnableStack = Stack;
  Options.Optimize.EnableRegion = Region;
  Options.Run.HeapCapacity = HeapCapacity;
  return Options;
}

//===----------------------------------------------------------------------===//
// BENCH_<name>.json: the machine-readable perf trajectory
//===----------------------------------------------------------------------===//

/// One measured configuration in a bench's JSON report (schema
/// eal-bench-v1, validated by tools/check_json.py).
struct BenchRecord {
  /// Configuration label, e.g. "sort_literal/n=64/stack=on".
  std::string Name;
  /// Problem size.
  uint64_t N = 0;
  /// Wall time of the whole pipeline run, in seconds.
  double WallSeconds = 0;
  /// Best-of-K execute-phase time in seconds, when the bench measured
  /// one (negative = not measured). Extra field on top of the v1
  /// schema floor; the validator tolerates it.
  double ExecuteSeconds = -1;
  /// Storage counters of the run.
  RuntimeStats Stats;
};

/// Runs the pipeline over \p Source under \p Options, timing it, and
/// appends a record to \p Records. Returns the result so sweeps can keep
/// printing their tables from it; failures are reported and recorded
/// with whatever counters accumulated.
inline PipelineResult timedRun(std::vector<BenchRecord> &Records,
                               std::string Name, uint64_t N,
                               const std::string &Source,
                               const PipelineOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  PipelineResult R = runPipeline(Source, Options);
  auto End = std::chrono::steady_clock::now();
  BenchRecord Rec;
  Rec.Name = std::move(Name);
  Rec.N = N;
  Rec.WallSeconds = std::chrono::duration<double>(End - Start).count();
  Rec.Stats = R.Stats;
  Records.push_back(std::move(Rec));
  return R;
}

/// Execute-phase µs of one finished run (-1 when the phase is absent).
inline int64_t executeMicros(const PipelineResult &R) {
  for (const auto &[Name, Micros] : R.PhaseMicros)
    if (Name == "execute")
      return Micros;
  return -1;
}

/// Runs \p Source under \p Options Reps times and returns the best
/// execute-phase time in seconds. Timer noise in this container is
/// large, so min-of-K is the stable statistic; it is also the number
/// tools/bench_diff.py prefers when gating regressions.
inline double bestExecuteSeconds(const std::string &Source,
                                 const PipelineOptions &Options,
                                 unsigned Reps) {
  int64_t Best = -1;
  for (unsigned I = 0; I != Reps; ++I) {
    PipelineResult R = runPipeline(Source, Options);
    int64_t Us = executeMicros(R);
    if (Us >= 0 && (Best < 0 || Us < Best))
      Best = Us;
  }
  return Best < 0 ? -1.0 : static_cast<double>(Best) / 1e6;
}

/// Writes BENCH_<bench>.json into the working directory: the bench's
/// counters + wall times in the schema the perf trajectory expects
/// (docs/OBSERVABILITY.md). Returns false (with a message) on I/O error.
inline bool writeBenchJson(const std::string &Bench,
                           const std::vector<BenchRecord> &Records) {
  std::string Path = "BENCH_" + Bench + ".json";
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "bench: cannot write " << Path << "\n";
    return false;
  }
  Out << "{\n  \"schema\": \"eal-bench-v1\",\n  \"bench\": \"" << Bench
      << "\",\n  \"records\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &Rec = Records[I];
    Out << (I ? "," : "") << "\n    {\n      \"name\": \"" << Rec.Name
        << "\",\n      \"n\": " << Rec.N << ",\n      \"wall_seconds\": "
        << Rec.WallSeconds;
    if (Rec.ExecuteSeconds >= 0)
      Out << ",\n      \"execute_seconds\": " << Rec.ExecuteSeconds;
    Out << ",\n      \"counters\": " << Rec.Stats.toJson(6) << "\n    }";
  }
  Out << "\n  ]\n}\n";
  if (!Out) {
    std::cerr << "bench: write failed for " << Path << "\n";
    return false;
  }
  std::cout << "wrote " << Path << " (" << Records.size() << " records)\n";
  return true;
}

} // namespace eal::bench

#endif // EAL_BENCH_BENCHUTIL_H
