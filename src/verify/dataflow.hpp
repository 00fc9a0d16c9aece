#pragma once

#include <vector>

#include "asmparse/asmparse.hpp"
#include "isa/registers.hpp"
#include "verify/cfg.hpp"

namespace microtools::verify {

using isa::RegSet;

// Both analyses take each instruction's uses and defs from its recipe's
// `reads` and `writes` (asmparse::UopRecipe).

/// Per-instruction liveness (backward may-analysis). Returns live-in sets;
/// `retLiveOut` seeds the live-out of every ret instruction (the SysV return
/// register plus callee-saved state). liveOut(i) is the union of live-in
/// over successors(i), plus retLiveOut at a ret.
std::vector<RegSet> liveIn(const asmparse::Program& program, const Cfg& cfg,
                           RegSet retLiveOut);

/// Per-instruction defined-registers (forward must-analysis, intersection
/// over predecessors). Returns defined-in sets; `entryDefined` seeds the
/// function entry. Unreachable instructions report the full set so they do
/// not produce spurious use-before-def diagnostics.
std::vector<RegSet> definedIn(const asmparse::Program& program, const Cfg& cfg,
                              RegSet entryDefined);

}  // namespace microtools::verify
