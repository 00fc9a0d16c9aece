#include "launcher/planner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>

#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

SearchMode searchModeFromName(const std::string& name) {
  if (name == "full") return SearchMode::Full;
  if (name == "halving") return SearchMode::Halving;
  throw ParseError("--search must be full or halving (got '" + name + "')");
}

Budget parseBudget(const std::string& text) {
  Budget budget;
  if (text.empty()) return budget;
  if (text.back() == 's') {
    auto seconds = strings::parseDouble(text.substr(0, text.size() - 1));
    if (!seconds || !(*seconds > 0.0)) {
      throw ParseError("--budget seconds must be a positive number, e.g. "
                       "'30s' (got '" + text + "')");
    }
    budget.kind = Budget::Kind::Seconds;
    budget.seconds = *seconds;
    return budget;
  }
  auto variants = strings::parseInt(text);
  if (!variants || *variants <= 0) {
    throw ParseError("--budget must be '<seconds>s' or a positive variant-"
                     "measurement count (got '" + text + "')");
  }
  budget.kind = Budget::Kind::Variants;
  budget.variants = *variants;
  return budget;
}

std::vector<int> halvingBudgets(int screenRepetitions, int fullOuter) {
  std::vector<int> budgets;
  for (int b = screenRepetitions; b < fullOuter; b *= 2) budgets.push_back(b);
  return budgets;
}

std::vector<std::size_t> selectSurvivors(
    const std::vector<VariantResult>& rows, double tieCvMultiplier) {
  std::vector<std::size_t> ranked;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].status == "ok") ranked.push_back(i);
  }
  std::stable_sort(
      ranked.begin(), ranked.end(), [&rows](std::size_t a, std::size_t b) {
        const stats::Summary& sa = rows[a].measurement.cyclesPerIteration;
        const stats::Summary& sb = rows[b].measurement.cyclesPerIteration;
        if (stats::nanLastLess(sa.median, sb.median)) return true;
        if (stats::nanLastLess(sb.median, sa.median)) return false;
        if (stats::nanLastLess(sa.mean, sb.mean)) return true;
        if (stats::nanLastLess(sb.mean, sa.mean)) return false;
        return rows[a].name < rows[b].name;
      });
  if (ranked.empty()) return ranked;

  std::size_t keep = std::max<std::size_t>(1, ranked.size() / 2);
  if (keep < ranked.size()) {
    // CV tie guard: a variant just past the cut whose median is inside the
    // combined noise envelope of the last kept one is statistically
    // indistinguishable — eliminating it would be a coin flip, so it
    // survives too. A NaN CV makes the comparison undecidable: survive.
    const VariantResult& edge = rows[ranked[keep - 1]];
    double edgeMedian = edge.measurement.cyclesPerIteration.median;
    while (keep < ranked.size()) {
      const VariantResult& next = rows[ranked[keep]];
      if (!stats::withinNoise(edgeMedian, edge.finalCv,
                              next.measurement.cyclesPerIteration.median,
                              next.finalCv, tieCvMultiplier)) {
        break;
      }
      ++keep;
    }
  }
  ranked.resize(keep);
  return ranked;
}

namespace {

/// Column lookup helper over a parsed CSV header.
std::ptrdiff_t columnOf(const std::vector<std::string>& header,
                        const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace

std::map<std::string, VariantResult> readRoundResults(
    const std::string& csvPath, int round) {
  std::map<std::string, VariantResult> rows;
  std::ifstream in(csvPath, std::ios::binary);
  if (!in) return rows;

  std::string line;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (strings::startsWith(strings::trim(line), "#")) continue;
    header = csv::parseLine(line);
    break;
  }
  if (header.empty()) return rows;
  std::ptrdiff_t seqCol = columnOf(header, "sequence");
  std::ptrdiff_t roundCol = columnOf(header, "round");
  std::ptrdiff_t nameCol = columnOf(header, "variant");
  std::ptrdiff_t statusCol = columnOf(header, "status");
  std::ptrdiff_t minCol = columnOf(header, "cycles_per_iteration_min");
  std::ptrdiff_t meanCol = columnOf(header, "cycles_per_iteration_mean");
  std::ptrdiff_t medianCol = columnOf(header, "cycles_per_iteration_median");
  std::ptrdiff_t maxCol = columnOf(header, "cycles_per_iteration_max");
  std::ptrdiff_t cvCol = columnOf(header, "cv");
  std::ptrdiff_t repsCol = columnOf(header, "repetitions");
  std::ptrdiff_t convergedCol = columnOf(header, "converged");
  std::ptrdiff_t cachedCol = columnOf(header, "cached");
  std::ptrdiff_t errorCol = columnOf(header, "error");
  std::ptrdiff_t predCpiCol = columnOf(header, "pred_cpi_lo");
  std::ptrdiff_t predBoundCol = columnOf(header, "pred_bound");
  if (seqCol < 0 || roundCol < 0 || nameCol < 0 || statusCol < 0) return rows;

  auto cell = [](const std::vector<std::string>& cells, std::ptrdiff_t col) {
    return col >= 0 ? cells[static_cast<std::size_t>(col)] : std::string();
  };
  auto numeric = [&cell](const std::vector<std::string>& cells,
                         std::ptrdiff_t col) {
    auto parsed = strings::parseDouble(cell(cells, col));
    return parsed ? *parsed : std::numeric_limits<double>::quiet_NaN();
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (strings::startsWith(strings::trim(line), "#")) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    if (cells.size() < header.size()) continue;  // crash-torn remnant
    auto rowRound = strings::parseInt(cell(cells, roundCol));
    if (!rowRound || *rowRound != round) continue;
    auto seq = strings::parseInt(cell(cells, seqCol));
    if (!seq || *seq < 0) continue;
    const std::string& status = cell(cells, statusCol);
    if (status != "ok" && status != "error" && status != "timeout" &&
        status != "skipped") {
      continue;
    }
    VariantResult r;
    r.sequence = static_cast<std::size_t>(*seq);
    r.round = round;
    r.name = cell(cells, nameCol);
    r.status = status;
    r.error = cell(cells, errorCol);
    if (status == "ok") {
      stats::Summary& s = r.measurement.cyclesPerIteration;
      s.min = numeric(cells, minCol);
      s.mean = numeric(cells, meanCol);
      s.median = numeric(cells, medianCol);
      s.max = numeric(cells, maxCol);
      s.cv = numeric(cells, cvCol);
      r.finalCv = s.cv;
    }
    if (auto reps = strings::parseInt(cell(cells, repsCol))) {
      r.repetitions = static_cast<int>(*reps);
    }
    r.converged = cell(cells, convergedCol) == "1";
    r.cached = cell(cells, cachedCol) == "1";
    // Static cost-model columns are optional (older CSVs lack them);
    // backfilled rows keep whatever the interrupted run predicted.
    r.predCpiLo = numeric(cells, predCpiCol);
    r.predBound = cell(cells, predBoundCol);
    rows[r.name] = std::move(r);
  }
  return rows;
}

PlannerResult runSuccessiveHalving(const std::vector<CampaignVariant>& variants,
                                   const KernelRequest& request,
                                   const BackendFactory& factory,
                                   const CampaignOptions& base,
                                   const PlannerOptions& planner,
                                   const CacheBinder& bindCache,
                                   CampaignCsvSink* sink) {
  if (variants.empty()) {
    throw McError("successive halving requires at least one variant");
  }
  if (planner.screenRepetitions < 1) {
    throw McError("successive halving requires --screen-reps >= 1");
  }
  int fullOuter = std::max(1, base.protocol.outerRepetitions);

  auto start = std::chrono::steady_clock::now();
  auto elapsedSeconds = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  PlannerResult out;
  std::vector<CampaignVariant> survivors = variants;
  if (planner.predictedCpi) {
    // Seed the screening round in ascending predicted cycles/iteration
    // (NaN-unboundable variants last, original order preserved within
    // ties). Ranking past round 0 is measured, so this only decides which
    // variants a --budget truncation drops: the predicted-slow tail.
    std::vector<double> predicted(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      predicted[i] = planner.predictedCpi(survivors[i]);
    }
    std::vector<std::size_t> order(survivors.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&predicted](std::size_t a, std::size_t b) {
                       return stats::nanLastLess(predicted[a], predicted[b]);
                     });
    std::vector<CampaignVariant> seeded;
    seeded.reserve(order.size());
    for (std::size_t idx : order) seeded.push_back(survivors[idx]);
    survivors = std::move(seeded);
  }
  long long freshMeasured = 0;  // fresh variant measurements, all rounds
  int budget = planner.screenRepetitions;
  int round = 0;

  while (true) {
    // A one-variant survivor set refines nothing at intermediate fidelity:
    // jump straight to the final full-budget round.
    bool finalRound = budget >= fullOuter || survivors.size() <= 1;

    // Budget preflight. Round 0 always runs (a planner that measures
    // nothing has no best-so-far to report); later rounds stop cleanly on
    // an exhausted budget, keeping the previous round's rows as the answer.
    if (round > 0 && planner.budget.kind == Budget::Kind::Seconds &&
        elapsedSeconds() >= planner.budget.seconds) {
      out.budgetExhausted = true;
      out.stopReason = "budget exhausted (time)";
      break;
    }
    CampaignOptions roundOptions = base;
    if (!finalRound) {
      // Screening/refinement fidelity: the adaptive budget IS the round
      // budget, and the protocol cannot ask for more outer reps than that.
      roundOptions.protocol.outerRepetitions = std::min(fullOuter, budget);
      roundOptions.maxRepetitions = budget;
    }
    roundOptions.round = round;
    if (round == 0 && !finalRound && planner.stable &&
        planner.stableScreenRepetitions >= 1 &&
        planner.stableScreenRepetitions <
            roundOptions.protocol.outerRepetitions) {
      // Stability-directed screening: provably-stable variants need fewer
      // repetitions to produce the same median, so round 0 caps them at
      // stableScreenRepetitions. Installed before bindCache so the cache
      // key hashes the effective (capped) protocol — a stable variant's
      // screening row must never alias an uncapped entry.
      roundOptions.repOverride = [stable = planner.stable,
                                  cap = planner.stableScreenRepetitions](
                                     const CampaignVariant& v) {
        return stable(v) ? cap : 0;
      };
    }
    if (!planner.resumeCsv.empty()) {
      roundOptions.completed = readCompletedVariants(planner.resumeCsv, round);
    }
    if (bindCache) bindCache(roundOptions);

    bool truncated = false;
    std::vector<CampaignVariant> scheduled = survivors;
    if (planner.budget.kind == Budget::Kind::Variants) {
      long long remaining = planner.budget.variants - freshMeasured;
      if (round > 0 && remaining <= 0) {
        out.budgetExhausted = true;
        out.stopReason = "budget exhausted (variants)";
        break;
      }
      // Only fresh measurements consume the budget: rows already terminal
      // in the resumed CSV and cache hits are free, so probe both before
      // deciding anything is out of contract. Truncation keeps the longest
      // best-ranked prefix whose fresh work fits the allowance — a fully
      // warm rerun probes entirely free and is never truncated.
      long long fresh = 0;
      std::size_t fit = scheduled.size();
      for (std::size_t i = 0; i < scheduled.size(); ++i) {
        bool free = roundOptions.completed.count({i, scheduled[i].name}) > 0;
        if (!free && roundOptions.cacheLookup) {
          VariantResult probe;
          free = roundOptions.cacheLookup(scheduled[i], probe);
        }
        if (!free && ++fresh > remaining) {
          fit = i;
          break;
        }
      }
      if (fit < scheduled.size()) {
        scheduled.resize(fit);
        truncated = true;
      }
    }

    CampaignRunner runner(factory, roundOptions);
    std::vector<VariantResult> rows = runner.run(scheduled, request, sink);

    RoundSummary summary;
    summary.round = round;
    summary.outerRepetitions = roundOptions.protocol.outerRepetitions;
    summary.maxRepetitions =
        std::max(roundOptions.maxRepetitions,
                 roundOptions.protocol.outerRepetitions);
    summary.scheduled = rows.size();
    summary.finalRound = finalRound;
    summary.truncated = truncated;

    // Backfill rows the campaign skipped because the resumed CSV already
    // holds them: their metrics come from the file, so ranking (and the
    // final report) treat them exactly like freshly measured rows.
    if (!roundOptions.completed.empty()) {
      std::map<std::string, VariantResult> recorded =
          readRoundResults(planner.resumeCsv, round);
      for (VariantResult& r : rows) {
        if (r.status != "skipped" ||
            !roundOptions.completed.count({r.sequence, r.name})) {
          continue;
        }
        auto it = recorded.find(r.name);
        if (it == recorded.end()) continue;
        std::size_t sequence = r.sequence;
        r = it->second;
        r.sequence = sequence;
        r.note = "resumed from halving CSV";
        ++summary.resumed;
      }
    }

    for (const VariantResult& r : rows) {
      if (r.note == "resumed from halving CSV") continue;  // counted above
      if (r.cached) {
        ++summary.cacheHits;
      } else if (r.status != "skipped") {
        ++summary.measured;
        summary.workRepetitions += r.repetitions;
      }
      if (r.status == "error" || r.status == "timeout") ++summary.failures;
    }

    freshMeasured += static_cast<long long>(summary.measured);
    out.workRepetitions += summary.workRepetitions;
    out.measured += summary.measured;
    out.cacheHits += summary.cacheHits;
    out.resumed += summary.resumed;
    out.failures += summary.failures;
    out.rounds.push_back(summary);
    out.results = rows;  // best-so-far: the latest (highest-fidelity) rows

    if (finalRound) {
      out.finalRound = round;
      out.fullFidelityVariants = rows.size();
    }
    if (truncated) {
      out.budgetExhausted = true;
      out.stopReason = "budget exhausted (variants)";
      break;
    }
    if (finalRound) {
      out.stopReason = "complete";
      break;
    }

    std::vector<std::size_t> keep = selectSurvivors(rows, planner.tieCvMultiplier);
    if (keep.empty()) {
      out.stopReason = "all variants failed";
      break;
    }
    std::vector<CampaignVariant> next;
    next.reserve(keep.size());
    for (std::size_t idx : keep) next.push_back(scheduled[idx]);
    survivors = std::move(next);
    budget *= 2;
    ++round;
  }
  return out;
}

}  // namespace microtools::launcher
