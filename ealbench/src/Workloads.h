//===- Workloads.h - Seeded program pools and their references --*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads. Each is a pool of nml source strings
/// drawn from a seed, and each program carries its expected value,
/// computed here in plain C++ (std::sort for partition sort, 2n for
/// map/pair, the reversed literal for rev, ...) so a wrong answer from
/// eal is caught without trusting eal.
///
//===----------------------------------------------------------------------===//

#ifndef EALBENCH_WORKLOADS_H
#define EALBENCH_WORKLOADS_H

#include "driver/Pipeline.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ealbench {

enum class Workload {
  /// Distinct small programs under `eal run --vm` defaults: the analysis
  /// layers, not the engine, set the time.
  CompileBound,
  /// Small sources with long VM runs (GC-heavy and DCONS-heavy).
  RunBound,
  /// Programs under `eal check --oracle --live-oracle`: lint, site
  /// classification, liveness, the claim table, and the observed
  /// tree-walker run.
  CheckBound,
};

std::optional<Workload> parseWorkload(std::string_view Name);
const char *workloadName(Workload W);

/// One generated program and its reference value.
struct Program {
  /// Family label ("chain", "ps_literal", "example", ...).
  std::string Family;
  /// Family plus parameters ("chain/F=12/d=2").
  std::string Name;
  std::string Source;
  bool IncludeStdlib = false;
  /// The reference rendered as eal prints it (64 elements per list).
  std::string ExpectedShown;
  /// The reference rendered with no element limit.
  std::string ExpectedFull;
};

/// The pool of \p W for \p Seed, in the (seeded) order the closed loop
/// cycles through it. Example programs are read from
/// \p RepoRoot/examples/nml. Returns an empty pool and sets \p Err when a
/// file cannot be read.
std::vector<Program> makeWorkload(Workload W, uint64_t Seed,
                                  const std::string &RepoRoot,
                                  std::string &Err);

/// The seed-independent warm-up set of \p W: the first program of each
/// family of the seed-0 pool, so set-up time does not depend on the seed.
std::vector<Program> warmupPrograms(Workload W, const std::string &RepoRoot,
                                    std::string &Err);

/// The options `eal` uses for \p W's command line (run --vm, [--stdlib],
/// or check --oracle --live-oracle).
eal::PipelineOptions pipelineOptions(Workload W, const Program &P);

} // namespace ealbench

#endif // EALBENCH_WORKLOADS_H
