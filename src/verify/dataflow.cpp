#include "verify/dataflow.hpp"

namespace microtools::verify {

std::vector<RegSet> liveIn(const asmparse::Program& program, const Cfg& cfg,
                           RegSet retLiveOut) {
  const std::size_t n = program.instructions.size();
  std::vector<RegSet> in(n);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = n; i-- > 0;) {
      const asmparse::DecodedInsn& insn = program.instructions[i];
      RegSet out;
      if (insn.desc->kind == isa::InstrKind::Ret) out = retLiveOut;
      for (std::size_t s : cfg.successors[i]) out = out | in[s];
      RegSet next = insn.recipe.reads | (out - insn.recipe.writes);
      if (!(next == in[i])) {
        in[i] = next;
        changed = true;
      }
    }
  }
  return in;
}

std::vector<RegSet> definedIn(const asmparse::Program& program, const Cfg& cfg,
                              RegSet entryDefined) {
  const std::size_t n = program.instructions.size();
  // Must-analysis: start from the full set and intersect downwards; the
  // entry instruction is seeded from the ABI-defined state.
  std::vector<RegSet> in(n, RegSet::all());
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      // Meet over every incoming path: the ABI-defined entry state for the
      // function entry (which can itself be a loop head) and
      // in[p] | writes[p] for each predecessor edge.
      RegSet next = (i == 0) ? entryDefined : RegSet::all();
      if (i != 0 && cfg.predecessors[i].empty()) {
        next = RegSet::all();  // unreachable: stay at top
      } else {
        for (std::size_t p : cfg.predecessors[i]) {
          next = next & (in[p] | program.instructions[p].recipe.writes);
        }
      }
      if (!(next == in[i])) {
        in[i] = next;
        changed = true;
      }
    }
  }
  return in;
}

}  // namespace microtools::verify
