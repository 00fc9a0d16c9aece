#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "launcher/campaign.hpp"

namespace microtools::launcher {

// ---------------------------------------------------------------------------
// Search-driven exploration planner (successive halving)
// ---------------------------------------------------------------------------
//
// The paper's pipeline measures every generated variant at full fidelity.
// For interactive best-variant queries that is wasteful: most variants are
// clearly slower after a handful of repetitions. The planner screens the
// whole space with a cheap low-repetition pass, then repeatedly keeps the
// best half (by median cycles/iteration, with a CV-aware tie guard so noise
// never eliminates a statistically indistinguishable variant) and
// re-measures the survivors at a doubled repetition budget, until the
// survivor set runs at the full baseline protocol. Each round is an
// ordinary campaign, so caching, verify pre-flight, perf counters and CSV
// streaming all compose unchanged; rows are tagged with their round in the
// campaign CSV's `round` column.

/// How `explore` (and campaign mode) walks the variant space.
enum class SearchMode {
  Full,     ///< exhaustive sweep: every variant at the baseline protocol
  Halving,  ///< successive halving: screen cheap, keep best half, repeat
};

/// Parses a --search value ("full"|"halving"); throws ParseError otherwise.
SearchMode searchModeFromName(const std::string& name);

/// A user-facing search budget: "none" (run to completion), a wall-clock
/// allowance in seconds, or a count of fresh variant measurements.
struct Budget {
  enum class Kind { None, Seconds, Variants };
  Kind kind = Kind::None;
  double seconds = 0.0;       ///< Kind::Seconds
  long long variants = 0;     ///< Kind::Variants — fresh measurements only
};

/// Parses a --budget value: "<number>s" (e.g. "30s", "2.5s") is a
/// wall-clock budget in seconds; a plain positive integer (e.g. "16") is a
/// budget of fresh variant measurements (cache hits and resumed rows are
/// free — a warm rerun is never truncated). Empty string = no budget.
/// Throws ParseError on anything else.
Budget parseBudget(const std::string& text);

/// Planner knobs, layered on top of the baseline CampaignOptions.
struct PlannerOptions {
  /// Outer repetitions (and repetition budget) of the round-0 screening
  /// pass. 1 is enough on low-noise backends; raise it when screening
  /// medians are too noisy to halve on.
  int screenRepetitions = 1;

  /// CV tie guard: a variant just past the elimination cut survives when
  /// its median is within `tieCvMultiplier` combined standard errors of the
  /// last kept variant's median (stats::withinNoise). Never eliminates on
  /// an undefined (NaN) CV.
  double tieCvMultiplier = 3.0;

  Budget budget;  ///< stop-with-best-so-far contract (see Budget)

  /// Static cost-model hooks (optional; `explore --no-predict` leaves them
  /// empty). `predictedCpi` returns the port-level cycles/iteration lower
  /// bound of a variant (NaN when the analyzer cannot bound it); when set,
  /// the round-0 screening pass measures variants in ascending predicted
  /// order, so a variant budget truncates the *predicted-slow* tail instead
  /// of an arbitrary suffix. Later rounds keep measured rank order.
  std::function<double(const CampaignVariant&)> predictedCpi;

  /// Returns true when the μOpTime-style stability analysis proves a
  /// variant's measurement distribution is tight (regular single-block
  /// loop, L1-resident footprint, no loop-carried load dependence). Stable
  /// variants screen with `stableScreenRepetitions` outer reps in round 0
  /// instead of `screenRepetitions` — their median does not move, so the
  /// extra repetitions are pure waste. Unstable variants are untouched, and
  /// every round past screening runs the full schedule regardless.
  std::function<bool(const CampaignVariant&)> stable;

  /// Round-0 repetition cap for provably-stable variants (see `stable`).
  /// Only applies when it is an actual reduction over screenRepetitions.
  int stableScreenRepetitions = 1;

  /// Path of a previously interrupted halving CSV. Rows already terminal
  /// for a round are not re-measured: the campaign skips them and the
  /// planner backfills their metrics from the CSV so ranking still works.
  std::string resumeCsv;
};

/// Per-round accounting, reported back to the CLI and bench.
struct RoundSummary {
  int round = 0;
  int outerRepetitions = 0;  ///< protocol outer reps this round ran with
  int maxRepetitions = 0;    ///< adaptive repetition budget this round
  std::size_t scheduled = 0; ///< variants this round measured (or resolved)
  std::size_t measured = 0;  ///< fresh backend measurements
  std::size_t cacheHits = 0;
  std::size_t resumed = 0;   ///< rows backfilled from the resumed CSV
  std::size_t failures = 0;  ///< status error/timeout
  long long workRepetitions = 0;  ///< executed outer reps, fresh rows only
  bool finalRound = false;   ///< ran the untouched baseline protocol
  bool truncated = false;    ///< variant budget cut this round short
};

/// Outcome of a successive-halving run.
struct PlannerResult {
  /// Rows of the last completed round — the winner set at the highest
  /// fidelity reached (full baseline when stopReason == "complete", the
  /// best-so-far screening/refinement rows when the budget ran out).
  std::vector<VariantResult> results;
  std::vector<RoundSummary> rounds;
  bool budgetExhausted = false;
  std::string stopReason;  ///< "complete" | "budget exhausted (time)" |
                           ///< "budget exhausted (variants)" |
                           ///< "all variants failed"
  int finalRound = -1;     ///< round index that ran the baseline protocol
  std::size_t fullFidelityVariants = 0;  ///< variants in that final round
  long long workRepetitions = 0;  ///< total fresh outer reps, all rounds
  std::size_t measured = 0;       ///< total fresh measurements
  std::size_t cacheHits = 0;
  std::size_t resumed = 0;
  std::size_t failures = 0;
};

/// Installs measurement-cache hooks on one round's CampaignOptions. The
/// planner rebuilds the hooks every round because cacheKey() hashes the
/// round's protocol: screening entries and full-fidelity entries must never
/// serve each other, while the final round's keys are identical to an
/// exhaustive sweep's (warm interop both ways).
using CacheBinder = std::function<void(CampaignOptions& roundOptions)>;

/// The intermediate adaptive-repetition budgets of a halving schedule:
/// screenRepetitions, doubling, strictly below fullOuter (the final round
/// runs the untouched baseline options instead). Empty when screening
/// already meets the baseline. Exposed for tests.
std::vector<int> halvingBudgets(int screenRepetitions, int fullOuter);

/// Ranks one round's rows by median cycles/iteration (NaN-last, mean then
/// name as tie-breaks; non-ok rows never rank) and returns the indices of
/// the survivors in rank order: the best half (at least one), extended past
/// the cut by the CV tie guard. Empty when no row ranked (all failed).
/// Exposed for tests.
std::vector<std::size_t> selectSurvivors(
    const std::vector<VariantResult>& rows, double tieCvMultiplier);

/// Reads the terminal rows of one round from a halving campaign CSV,
/// keyed by variant name, with the ranking metrics (median/mean/min/max,
/// CV, repetitions, convergence, cache provenance) reconstructed — what
/// resume uses to rank rows it did not re-measure. Exposed for tests.
std::map<std::string, VariantResult> readRoundResults(
    const std::string& csvPath, int round);

/// Runs the successive-halving loop over `variants`. Each round drives an
/// ordinary CampaignRunner built from `base` with the round's protocol
/// (outer = min(base outer, budget), maxRepetitions = budget) and round
/// tag; the final round runs `base` untouched. `bindCache` (optional)
/// installs per-round cache hooks; `sink` (optional) receives every row of
/// every round, tagged via the `round` CSV column.
PlannerResult runSuccessiveHalving(const std::vector<CampaignVariant>& variants,
                                   const KernelRequest& request,
                                   const BackendFactory& factory,
                                   const CampaignOptions& base,
                                   const PlannerOptions& planner,
                                   const CacheBinder& bindCache = nullptr,
                                   CampaignCsvSink* sink = nullptr);

}  // namespace microtools::launcher
