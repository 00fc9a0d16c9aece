#include "launcher/predict.hpp"

#include <limits>
#include <utility>

#include "asmparse/asmparse.hpp"
#include "launcher/arch_registry.hpp"
#include "support/error.hpp"
#include "verify/stability.hpp"

namespace microtools::launcher {

StaticAnnotator::StaticAnnotator(sim::MachineConfig machine,
                                 std::uint64_t footprintBytes)
    : machine_(std::move(machine)), footprint_(footprintBytes) {}

void StaticAnnotator::annotate(const CampaignVariant& variant,
                               VariantResult& out) {
  const Entry& e = entry(variant);
  out.predCpiLo = e.predCpiLo;
  out.predBound = e.bound;
}

double StaticAnnotator::predictedCpi(const CampaignVariant& variant) {
  return entry(variant).predCpiLo;
}

bool StaticAnnotator::stable(const CampaignVariant& variant) {
  return entry(variant).stable;
}

const StaticAnnotator::Entry& StaticAnnotator::entry(
    const CampaignVariant& variant) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(variant.name);
  if (it != cache_.end()) return it->second;
  Entry e;
  e.predCpiLo = std::numeric_limits<double>::quiet_NaN();
  if (variant.kind == "asm") {
    try {
      asmparse::Program program = asmparse::parseAssembly(variant.source);
      verify::CyclePrediction pred = verify::predictProgram(program, machine_);
      if (pred.valid) {
        e.predCpiLo = pred.cyclesLowerBound();
        e.bound = pred.binding;
      }
      verify::StabilityOptions stability;
      stability.footprintBytes = footprint_;
      e.stable =
          verify::analyzeStability(program, machine_, pred, stability)
              .stable();
    } catch (const ParseError&) {
      // Unparseable variants fail later with a real diagnostic; the
      // annotation just stays empty.
    }
  }
  return cache_.emplace(variant.name, std::move(e)).first->second;
}

std::shared_ptr<StaticAnnotator> makeStaticAnnotator(
    const std::string& arch, const KernelRequest& request) {
  std::uint64_t footprint = 0;
  for (const ArraySpec& a : request.arrays) footprint += a.bytes;
  return std::make_shared<StaticAnnotator>(archByName(arch).config, footprint);
}

void installPredict(CampaignOptions& campaign,
                    const std::shared_ptr<StaticAnnotator>& annotator) {
  if (!annotator) return;
  campaign.predict = [annotator](const CampaignVariant& v,
                                 VariantResult& out) {
    annotator->annotate(v, out);
  };
}

}  // namespace microtools::launcher
