//===- Trace.h - The obs clock and JSON string quoting ----------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two helpers every `eal::obs` writer shares: the process-wide
/// trace clock that stamps flight-recorder events (obs/Recorder.h) and
/// the string quoting of every exported JSON document. Timed events
/// have one producer, the recorder; `--trace` is one of its encodings
/// (docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SUPPORT_TRACE_H
#define EAL_SUPPORT_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace eal::obs {

/// Microseconds on the process-wide steady trace clock. Zero is the
/// first use in the process, so trace timestamps are small and stable.
int64_t nowMicros();

/// Quotes and escapes \p S as a JSON string literal (with the quotes).
std::string jsonQuote(std::string_view S);

} // namespace eal::obs

#endif // EAL_SUPPORT_TRACE_H
