#include "launcher/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "support/csv.hpp"
#include "support/envinfo.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

namespace {

/// One parsed campaign CSV: env snapshot plus, per variant (in first-seen
/// order), the metric samples and per-row CVs of its ok rows.
struct ParsedCsv {
  env::EnvSnapshot env;
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> metricSamples;
  std::map<std::string, std::vector<double>> rowCvs;
};

ParsedCsv parseCampaignCsv(const std::string& path,
                           const std::string& metric) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw McError("bench-diff: cannot read '" + path + "'");
  std::ostringstream oss;
  oss << in.rdbuf();
  std::string text = oss.str();

  ParsedCsv parsed;
  parsed.env = env::fromCsvComments(text);

  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> header;
  while (std::getline(lines, line)) {
    if (strings::startsWith(strings::trim(line), "#")) continue;
    if (strings::trim(line).empty()) continue;
    header = csv::parseLine(line);
    break;
  }
  auto column = [&header](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  std::ptrdiff_t nameCol = column("variant");
  std::ptrdiff_t statusCol = column("status");
  std::ptrdiff_t metricCol = column(metric);
  std::ptrdiff_t cvCol = column("cv");
  if (nameCol < 0 || statusCol < 0) {
    throw McError("bench-diff: '" + path + "' is not a campaign CSV "
                  "(missing variant/status columns)");
  }
  if (metricCol < 0) {
    throw McError("bench-diff: '" + path + "' has no '" + metric +
                  "' column");
  }

  std::size_t need =
      static_cast<std::size_t>(std::max({nameCol, statusCol, metricCol})) + 1;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (strings::startsWith(strings::trim(line), "#")) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    if (cells.size() < need) continue;  // truncated row from a crash
    if (cells[static_cast<std::size_t>(statusCol)] != "ok") continue;
    auto value =
        strings::parseDouble(cells[static_cast<std::size_t>(metricCol)]);
    if (!value || !std::isfinite(*value)) continue;  // empty counter cell
    const std::string& name = cells[static_cast<std::size_t>(nameCol)];
    if (!parsed.metricSamples.count(name)) parsed.order.push_back(name);
    parsed.metricSamples[name].push_back(*value);
    if (cvCol >= 0 && cells.size() > static_cast<std::size_t>(cvCol)) {
      auto cv = strings::parseDouble(cells[static_cast<std::size_t>(cvCol)]);
      if (cv && std::isfinite(*cv)) parsed.rowCvs[name].push_back(*cv);
    }
  }
  return parsed;
}

VariantRollup rollup(const std::vector<double>& samples,
                     const std::vector<double>& rowCvs) {
  VariantRollup r;
  r.samples = samples.size();
  if (samples.empty()) return r;
  stats::Summary summary = stats::summarize(samples);
  r.median = summary.median;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::size_t idx = (sorted.size() * 95 + 99) / 100;  // ceil(0.95 * n)
  idx = idx > 0 ? idx - 1 : 0;
  r.p95 = sorted[std::min(idx, sorted.size() - 1)];
  double acrossCv = std::isfinite(summary.cv) ? summary.cv : 0.0;
  double withinCv = 0.0;
  if (!rowCvs.empty()) {
    std::vector<double> cvs = rowCvs;
    auto mid = cvs.begin() + static_cast<std::ptrdiff_t>(cvs.size() / 2);
    std::nth_element(cvs.begin(), mid, cvs.end());
    withinCv = *mid;
  }
  r.cv = std::max(acrossCv, withinCv);
  return r;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return strings::format("%.17g", v);
}

}  // namespace

BenchDiffReport benchDiff(const std::string& oldPath,
                          const std::string& newPath,
                          const BenchDiffOptions& options) {
  if (options.relThreshold < 0 || options.cvMultiplier < 0) {
    throw McError("bench-diff thresholds must be >= 0");
  }
  ParsedCsv before = parseCampaignCsv(oldPath, options.metric);
  ParsedCsv after = parseCampaignCsv(newPath, options.metric);

  BenchDiffReport report;
  report.metric = options.metric;

  for (const std::string& name : before.order) {
    if (!after.metricSamples.count(name)) report.onlyOld.push_back(name);
  }
  for (const std::string& name : after.order) {
    if (!before.metricSamples.count(name)) report.onlyNew.push_back(name);
  }

  // Environment drift between the two files is reported, never fatal: a
  // governor or kernel change does not invalidate the comparison, but the
  // reader must see it next to any verdict.
  for (const env::EnvField& f : before.env.fields) {
    std::string now = after.env.get(f.key);
    if (!now.empty() && now != f.value && f.key != "loadavg") {
      report.envChanges.push_back(f.key + ": " + f.value + " -> " + now);
    }
  }

  for (const std::string& name : before.order) {
    auto it = after.metricSamples.find(name);
    if (it == after.metricSamples.end()) continue;
    BenchDiffEntry entry;
    entry.name = name;
    entry.before = rollup(before.metricSamples[name], before.rowCvs[name]);
    entry.after = rollup(it->second, after.rowCvs[name]);

    // Relative delta on the medians; a zero baseline is compared absolutely
    // (both zero: identical; zero -> nonzero: infinite relative change).
    if (entry.before.median != 0.0) {
      entry.delta =
          (entry.after.median - entry.before.median) / entry.before.median;
    } else {
      entry.delta = entry.after.median == 0.0
                        ? 0.0
                        : std::numeric_limits<double>::infinity();
    }
    double pooledCv = std::sqrt(entry.before.cv * entry.before.cv +
                                entry.after.cv * entry.after.cv);
    entry.allowed =
        std::max(options.relThreshold, options.cvMultiplier * pooledCv);
    if (entry.delta > entry.allowed) {
      entry.verdict = "regression";
      ++report.regressions;
    } else if (entry.delta < -entry.allowed) {
      entry.verdict = "improved";
      ++report.improvements;
    } else {
      entry.verdict = "ok";
    }
    report.entries.push_back(std::move(entry));
  }

  if (report.entries.empty()) {
    throw McError(
        "bench-diff: the two files share no variant with ok rows; nothing "
        "to compare");
  }
  return report;
}

std::string renderBenchDiffTable(const BenchDiffReport& report) {
  std::ostringstream out;
  out << strings::format("%-32s %12s %12s %8s %8s  %s\n", "variant",
                         "old median", "new median", "delta", "allowed",
                         "verdict");
  for (const BenchDiffEntry& e : report.entries) {
    out << strings::format("%-32s %12.4f %12.4f %+7.1f%% %7.1f%%  %s\n",
                           e.name.c_str(), e.before.median, e.after.median,
                           e.delta * 100.0, e.allowed * 100.0,
                           e.verdict.c_str());
  }
  for (const std::string& name : report.onlyOld) {
    out << "only in old: " << name << "\n";
  }
  for (const std::string& name : report.onlyNew) {
    out << "only in new: " << name << "\n";
  }
  for (const std::string& change : report.envChanges) {
    out << "env changed: " << change << "\n";
  }
  out << strings::format(
      "bench-diff (%s): %zu compared, %zu regression(s), %zu improvement(s)\n",
      report.metric.c_str(), report.entries.size(), report.regressions,
      report.improvements);
  return out.str();
}

std::string renderBenchDiffJson(const BenchDiffReport& report) {
  std::ostringstream out;
  out << "{\n  \"metric\": \"" << strings::jsonEscape(report.metric)
      << "\",\n";
  out << "  \"regressions\": " << report.regressions << ",\n";
  out << "  \"improvements\": " << report.improvements << ",\n";
  out << "  \"entries\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchDiffEntry& e = report.entries[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"variant\": \"" << strings::jsonEscape(e.name) << "\""
        << ", \"old_median\": " << jsonNumber(e.before.median)
        << ", \"new_median\": " << jsonNumber(e.after.median)
        << ", \"old_p95\": " << jsonNumber(e.before.p95)
        << ", \"new_p95\": " << jsonNumber(e.after.p95)
        << ", \"old_cv\": " << jsonNumber(e.before.cv)
        << ", \"new_cv\": " << jsonNumber(e.after.cv)
        << ", \"delta\": " << jsonNumber(e.delta)
        << ", \"allowed\": " << jsonNumber(e.allowed)
        << ", \"verdict\": \"" << e.verdict << "\"}";
  }
  out << (report.entries.empty() ? "]" : "\n  ]") << ",\n";
  auto nameList = [&out](const char* key,
                         const std::vector<std::string>& names) {
    out << "  \"" << key << "\": [";
    for (std::size_t i = 0; i < names.size(); ++i) {
      out << (i ? ", " : "") << "\"" << strings::jsonEscape(names[i]) << "\"";
    }
    out << "]";
  };
  nameList("only_old", report.onlyOld);
  out << ",\n";
  nameList("only_new", report.onlyNew);
  out << ",\n";
  nameList("env_changes", report.envChanges);
  out << "\n}\n";
  return out.str();
}

}  // namespace microtools::launcher
