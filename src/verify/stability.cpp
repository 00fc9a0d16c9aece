#include "verify/stability.hpp"

#include "sim/arch.hpp"
#include "support/error.hpp"
#include "verify/cfg.hpp"

namespace microtools::verify {

StabilityReport analyzeStability(const asmparse::Program& program,
                                 const sim::MachineConfig& machine,
                                 const CyclePrediction& prediction,
                                 const StabilityOptions& options) {
  StabilityReport report;

  try {
    Cfg cfg = buildCfg(program);
    LoopScan scan = findLoops(program, cfg);
    if (scan.loops.size() == 1 && scan.unanalyzedBranches.empty()) {
      const LoopInfo& loop = scan.loops.front();
      report.regularLoop = loop.inductionReg.has_value() &&
                           loop.delta.has_value() && !loop.writeAfterTest;
    }
  } catch (const ParseError&) {
    return report;  // unknown branch target: nothing is provable
  }

  report.fitsL1 = options.footprintBytes > 0 &&
                  options.footprintBytes <= machine.l1.sizeBytes;
  report.steadyDependences = prediction.valid && !prediction.loadCarried;
  return report;
}

StabilityReport analyzeStability(std::string_view asmText,
                                 const sim::MachineConfig& machine,
                                 const StabilityOptions& options) {
  try {
    asmparse::Program program = asmparse::parseAssembly(asmText);
    return analyzeStability(program, machine, predictProgram(program, machine),
                            options);
  } catch (const ParseError&) {
    return {};
  }
}

}  // namespace microtools::verify
