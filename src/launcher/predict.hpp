#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "launcher/campaign.hpp"
#include "sim/arch.hpp"

namespace microtools::launcher {

/// Shared static-analysis engine behind the campaign `predict` hook and the
/// planner's `predictedCpi`/`stable` hooks. Memoized by variant name: the
/// halving planner re-applies its hooks every round, and parsing the same
/// kernel four times per round would be pure waste. Thread-safe because the
/// campaign resolves predictions on its own thread while the planner drives
/// the ordering hooks from another.
class StaticAnnotator {
 public:
  StaticAnnotator(sim::MachineConfig machine, std::uint64_t footprintBytes);

  /// Fills predCpiLo/predBound (left NaN/"" when the variant is not asm,
  /// does not parse, or has no valid bound). Measured fields are untouched.
  void annotate(const CampaignVariant& variant, VariantResult& out);

  /// The cycles/iteration lower bound (NaN when unboundable).
  double predictedCpi(const CampaignVariant& variant);

  /// The muOpTime-style verdict: true only when all three stability
  /// criteria are proven.
  bool stable(const CampaignVariant& variant);

 private:
  struct Entry {
    double predCpiLo;
    std::string bound;
    bool stable = false;
  };

  const Entry& entry(const CampaignVariant& variant);

  sim::MachineConfig machine_;
  std::uint64_t footprint_ = 0;
  std::mutex mutex_;
  std::map<std::string, Entry> cache_;
};

/// Builds the annotator for a run, priced against the named simulated
/// machine (see microlauncher --list-arch) with the kernel request's summed
/// array bytes as the stability footprint. The bound is priced from `arch`
/// even for the native backend: the sim's machine description is the only
/// one the repo carries, and the bound is a bound, not an estimate.
std::shared_ptr<StaticAnnotator> makeStaticAnnotator(
    const std::string& arch, const KernelRequest& request);

/// Installs the campaign `predict` hook (no-op on nullptr).
void installPredict(CampaignOptions& campaign,
                    const std::shared_ptr<StaticAnnotator>& annotator);

}  // namespace microtools::launcher
