//===- LargeStack.h - Run a call on a big stack ------------------*- C++ -*-==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every recursive pass (parser, type inference, escape analysis, the
/// compiler, the tree-walker) nests as deep as its input, so deep input
/// (long lists, deeply nested source) needs more stack than a default
/// thread has. runPipeline and Interpreter::runOnLargeStack run their
/// work through this one helper.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_SUPPORT_LARGESTACK_H
#define EAL_SUPPORT_LARGESTACK_H

#include <functional>

namespace eal {

/// Calls \p Body on a 512 MB stack (four times that under
/// AddressSanitizer) and returns when it does; an exception \p Body
/// throws is rethrown here. The stack belongs to the calling thread,
/// which runs \p Body itself and keeps at most the top 8 MB of it
/// resident between calls. Calls \p Body on the current stack when
/// no big stack can be mapped, or when it already runs on one.
void runOnLargeStack(const std::function<void()> &Body);

} // namespace eal

#endif // EAL_SUPPORT_LARGESTACK_H
