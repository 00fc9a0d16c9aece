#include "verify/costmodel.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/arch.hpp"
#include "support/error.hpp"
#include "verify/dataflow.hpp"

namespace microtools::verify {

namespace {

/// One micro-op of the loop body, as its instruction recipe dispatches it.
struct UopNode {
  isa::ExecUnit unit = isa::ExecUnit::Alu;
  double latency = 1.0;      ///< producer latency seen by dependents
  double occupancy = 1.0;    ///< port-cycles this micro-op holds its pool
  RegSet srcs;
  RegSet writes;             ///< destination register and flags
};

/// Register def-use edge between micro-ops. `distance` counts iteration
/// boundaries the value crosses (0: within one iteration, 1: loop-carried).
struct DepEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  double weight = 0.0;  ///< producer latency
  int distance = 0;
};

struct BodyGraph {
  std::vector<UopNode> nodes;
  std::vector<DepEdge> edges;
  /// Dispatch-slot demand per instruction, in program order. A fused
  /// load+compute pair is atomic: both slots must land in one cycle.
  struct SlotDemand {
    int slots = 0;
    bool atomic = false;
  };
  std::vector<SlotDemand> demands;
};

/// The micro-ops of one loop iteration [loop.headIndex, loop.branchIndex]
/// from their recipes, with loads priced at the machine's L1 hit latency.
/// A register use binds to the closest earlier writer in the iteration,
/// else to the iteration's final writer at distance 1 (the straight-line
/// body makes that reaching def exact).
BodyGraph buildBodyGraph(const asmparse::Program& program,
                         const LoopInfo& loop,
                         const sim::MachineConfig& machine) {
  BodyGraph graph;
  for (std::size_t pc = loop.headIndex; pc <= loop.branchIndex; ++pc) {
    const asmparse::UopRecipe& recipe = program.instructions[pc].recipe;
    // A nop has no micro-op but still takes a dispatch slot.
    graph.demands.push_back({std::max<int>(recipe.count, 1),
                             recipe.mem == asmparse::UopRecipe::Mem::Fused});
    for (int k = 0; k < recipe.count; ++k) {
      const asmparse::MicroOp& op = recipe.uops[static_cast<std::size_t>(k)];
      UopNode node{op.unit,
                   op.unit == isa::ExecUnit::Load
                       ? static_cast<double>(machine.l1.latencyCycles)
                       : static_cast<double>(op.latency),
                   static_cast<double>(op.occupancy), op.srcs, {}};
      node.writes.add(op.dst);
      if (op.writesFlags) node.writes.add(RegSet::kFlags);
      if (k > 0) {  // a fused load-op's compute consumes the load
        std::size_t load = graph.nodes.size() - 1;
        graph.edges.push_back(
            {load, graph.nodes.size(), graph.nodes[load].latency, 0});
      }
      graph.nodes.push_back(node);
    }
  }

  std::array<std::int64_t, RegSet::kSlots> finalWriter;
  finalWriter.fill(-1);
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    graph.nodes[n].writes.forEach([&](int s) {
      finalWriter[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(n);
    });
  }
  std::array<std::int64_t, RegSet::kSlots> lastWriter;
  lastWriter.fill(-1);
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    graph.nodes[n].srcs.forEach([&](int s) {
      std::int64_t writer = lastWriter[static_cast<std::size_t>(s)];
      int distance = 0;
      if (writer < 0) {
        writer = finalWriter[static_cast<std::size_t>(s)];
        distance = 1;
      }
      if (writer < 0) return;  // loop-invariant input
      std::size_t from = static_cast<std::size_t>(writer);
      graph.edges.push_back({from, n, graph.nodes[from].latency, distance});
    });
    graph.nodes[n].writes.forEach([&](int s) {
      lastWriter[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(n);
    });
  }
  return graph;
}

/// Dispatch cycles one iteration needs at best: greedy issue-width packing
/// with the fused load+compute pair kept in one cycle, mirroring the
/// simulator's frontend (which additionally ends the cycle at the taken
/// backward branch, so consecutive iterations never share a cycle).
double frontendCycles(const BodyGraph& graph,
                      const sim::MachineConfig& machine) {
  int cycles = 1;
  int used = 0;
  for (const BodyGraph::SlotDemand& d : graph.demands) {
    int slots = d.slots;
    if (slots == 0) continue;
    if (d.atomic) {
      if (used + slots > machine.issueWidth) {
        ++cycles;
        used = 0;
      }
      used += slots;
      continue;
    }
    for (int i = 0; i < slots; ++i) {
      if (used + 1 > machine.issueWidth) {
        ++cycles;
        used = 0;
      }
      ++used;
    }
  }
  return static_cast<double>(cycles);
}

/// True when the dependence graph still admits a positive-weight cycle with
/// edge weights (latency - lambda * distance): some recurrence has mean
/// latency strictly above lambda cycles/iteration.
bool hasCycleAboveLambda(const BodyGraph& graph, double lambda) {
  std::vector<double> dist(graph.nodes.size(), 0.0);
  std::size_t sweeps = graph.nodes.size() + 1;
  for (std::size_t it = 0; it < sweeps; ++it) {
    bool changed = false;
    for (const DepEdge& e : graph.edges) {
      double cand = dist[e.from] + e.weight - lambda * e.distance;
      if (cand > dist[e.to] + 1e-12) {
        dist[e.to] = cand;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

/// Maximum dependence-cycle mean (recurrence MII), as a sound lower bound:
/// binary search keeps the returned value strictly below the true maximum
/// ratio, never above. Loop-carried distances are all 1 in a straight-line
/// body, and distance-0 edges point forward, so every cycle crosses an
/// iteration boundary and the ratio is finite.
double recurrenceBound(const BodyGraph& graph) {
  if (!hasCycleAboveLambda(graph, 0.0)) return 0.0;
  double hi = 1.0;
  for (const DepEdge& e : graph.edges) hi += e.weight;
  double lo = 0.0;
  for (int i = 0; i < 64 && hi - lo > 1e-9; ++i) {
    double mid = 0.5 * (lo + hi);
    (hasCycleAboveLambda(graph, mid) ? lo : hi) = mid;
  }
  return lo;
}

/// True when some load micro-op sits on a dependence cycle (all cycles are
/// loop-carried, see recurrenceBound).
bool loadOnCycle(const BodyGraph& graph) {
  std::size_t n = graph.nodes.size();
  std::vector<std::vector<std::size_t>> succ(n);
  for (const DepEdge& e : graph.edges) succ[e.from].push_back(e.to);
  for (std::size_t start = 0; start < n; ++start) {
    if (graph.nodes[start].unit != isa::ExecUnit::Load) continue;
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> stack = succ[start];
    bool found = false;
    while (!stack.empty() && !found) {
      std::size_t v = stack.back();
      stack.pop_back();
      if (v == start) {
        found = true;
        break;
      }
      if (seen[v]) continue;
      seen[v] = true;
      for (std::size_t s : succ[v]) stack.push_back(s);
    }
    if (found) return true;
  }
  return false;
}

/// Predicts one single-block loop found by findLoops.
CyclePrediction predictLoop(const asmparse::Program& program,
                            const LoopInfo& loop,
                            const sim::MachineConfig& machine) {
  CyclePrediction pred;
  pred.headIndex = loop.headIndex;
  pred.branchIndex = loop.branchIndex;
  pred.headLine = program.instructions[loop.headIndex].line;

  BodyGraph graph = buildBodyGraph(program, loop, machine);
  pred.uops = graph.nodes.size();
  pred.frontendBound = frontendCycles(graph, machine);

  std::array<double, isa::kExecUnitCount> occupancy{};
  for (const UopNode& node : graph.nodes) {
    occupancy[static_cast<std::size_t>(node.unit)] += node.occupancy;
  }
  pred.binding = "frontend";
  double best = pred.frontendBound;
  for (int u = 0; u < isa::kExecUnitCount; ++u) {
    auto unit = static_cast<isa::ExecUnit>(u);
    PortPressure pressure{std::string(isa::execUnitName(unit)),
                          occupancy[static_cast<std::size_t>(u)],
                          machine.ports(unit)};
    if (pressure.occupancy > 0.0) {
      pred.throughputBound = std::max(pred.throughputBound, pressure.bound());
      if (pressure.bound() > best) {
        best = pressure.bound();
        pred.binding = pressure.unit;
      }
      pred.pressure.push_back(std::move(pressure));
    }
  }

  pred.latencyBound = recurrenceBound(graph);
  if (pred.latencyBound > best) {
    best = pred.latencyBound;
    pred.binding = "latency";
  }
  pred.loadCarried = loadOnCycle(graph);
  pred.valid = true;
  return pred;
}

}  // namespace

double CyclePrediction::cyclesLowerBound() const {
  return std::max({frontendBound, throughputBound, latencyBound});
}

CyclePrediction predictProgram(const asmparse::Program& program,
                               const sim::MachineConfig& machine) {
  CyclePrediction pred;
  Cfg cfg;
  try {
    cfg = buildCfg(program);
  } catch (const ParseError& e) {
    pred.warnings.push_back(e.message());
    return pred;
  }
  LoopScan scan = findLoops(program, cfg);
  if (scan.loops.size() != 1 || !scan.unanalyzedBranches.empty()) {
    pred.warnings.push_back(
        scan.loops.empty()
            ? "no recognized single-block loop"
            : "control flow beyond one single-block loop; bounds not computed");
    return pred;
  }
  return predictLoop(program, scan.loops.front(), machine);
}

CyclePrediction predictAssembly(std::string_view asmText,
                                const sim::MachineConfig& machine) {
  try {
    return predictProgram(asmparse::parseAssembly(asmText), machine);
  } catch (const ParseError& e) {
    CyclePrediction pred;
    pred.warnings.push_back("parse error: " + e.message());
    return pred;
  }
}

}  // namespace microtools::verify
