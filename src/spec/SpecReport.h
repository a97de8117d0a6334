//===- SpecReport.h - Speculation reporting ---------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text and JSON renderings of a speculation plan and its runtime
/// outcome: the `eal spec` report (golden-tested) and the `eal-spec-v1`
/// JSON document validated by tools/check_json.py.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SPEC_SPECREPORT_H
#define EAL_SPEC_SPECREPORT_H

#include "spec/SpecPlan.h"
#include "spec/SpecRuntime.h"

#include <string>

namespace eal {

class AstContext;
class SourceManager;

namespace spec {

/// The `eal spec` report: every speculation with its profile evidence
/// and guarded directives, then the runtime outcome (held / deopted).
/// \p Runtime may be null when the program was planned but not run.
std::string renderSpecReport(const SpecPlan &Plan, const SpecRuntime *Runtime,
                             const AstContext &Ast, const SourceManager &SM);

/// The eal-spec-v1 JSON document for the same data.
std::string specPlanToJson(const SpecPlan &Plan, const SpecRuntime *Runtime,
                           const AstContext &Ast, const SourceManager &SM);

} // namespace spec
} // namespace eal

#endif // EAL_SPEC_SPECREPORT_H
