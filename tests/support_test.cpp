#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/envinfo.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace microtools {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(strings::trim("  hello \t\n"), "hello");
  EXPECT_EQ(strings::trim("hello"), "hello");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim(" \t "), "");
}

TEST(Strings, TrimKeepsInteriorWhitespace) {
  EXPECT_EQ(strings::trim("  a b  "), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(strings::split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(strings::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(strings::split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmptyFields) {
  EXPECT_EQ(strings::splitWhitespace("  a  \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(strings::splitWhitespace("   ").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::startsWith("movaps", "mov"));
  EXPECT_FALSE(strings::startsWith("mov", "movaps"));
  EXPECT_TRUE(strings::endsWith("kernel.s", ".s"));
  EXPECT_FALSE(strings::endsWith(".s", "kernel.s"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(strings::toLower("MovAPS %XMM0"), "movaps %xmm0");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::join({"one"}, ","), "one");
}

TEST(Strings, ParseIntAcceptsDecimalAndHex) {
  EXPECT_EQ(strings::parseInt("42"), 42);
  EXPECT_EQ(strings::parseInt("-17"), -17);
  EXPECT_EQ(strings::parseInt("0x10"), 16);
  EXPECT_EQ(strings::parseInt("  8 "), 8);
}

TEST(Strings, ParseIntRejectsGarbage) {
  EXPECT_FALSE(strings::parseInt("12ab"));
  EXPECT_FALSE(strings::parseInt(""));
  EXPECT_FALSE(strings::parseInt("four"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*strings::parseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*strings::parseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(strings::parseDouble("2.5x"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(strings::replaceAll("aaa", "a", "aa"), "aaaaaa");
  EXPECT_EQ(strings::replaceAll("abc", "", "x"), "abc");
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::format("u%d_%s", 3, "seq"), "u3_seq");
  EXPECT_EQ(strings::format("%.2f", 1.5), "1.50");
}

TEST(Strings, JsonEscapeNamesTheShortEscapesAndHexesOtherControls) {
  EXPECT_EQ(strings::jsonEscape("plain"), "plain");
  EXPECT_EQ(strings::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(strings::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(strings::jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(strings::jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(strings::jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(strings::jsonEscape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(strings::jsonEscape("\x1f"), "\\u001f");
}

// ---------------------------------------------------------------------------
// csv
// ---------------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  csv::Table table({"a", "b"});
  table.beginRow().add("x").add(1).commit();
  table.beginRow().add("y").add(2.5, 1).commit();
  EXPECT_EQ(table.toString(), "a,b\nx,1\ny,2.5\n");
}

TEST(Csv, QuotesSpecialFields) {
  EXPECT_EQ(csv::quoteField("plain"), "plain");
  EXPECT_EQ(csv::quoteField("a,b"), "\"a,b\"");
  EXPECT_EQ(csv::quoteField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv::quoteField("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RejectsWrongColumnCount) {
  csv::Table table({"a", "b"});
  EXPECT_THROW(table.addRow({"only-one"}), McError);
}

TEST(Csv, RejectsEmptyHeader) {
  EXPECT_THROW(csv::Table({}), McError);
}

TEST(Csv, RowAccess) {
  csv::Table table({"a"});
  table.addRow({"1"});
  table.addRow({"2"});
  EXPECT_EQ(table.rowCount(), 2u);
  EXPECT_EQ(table.row(1)[0], "2");
}

TEST(Csv, ParseLineSplitsPlainFields) {
  EXPECT_EQ(csv::parseLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(csv::parseLine("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(csv::parseLine(""), (std::vector<std::string>{""}));
  EXPECT_EQ(csv::parseLine("a,"), (std::vector<std::string>{"a", ""}));
}

TEST(Csv, ParseLineHonorsQuoting) {
  EXPECT_EQ(csv::parseLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(csv::parseLine("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(csv::parseLine("\"\",y"), (std::vector<std::string>{"", "y"}));
}

TEST(Csv, ParseLineInvertsQuoteField) {
  std::vector<std::string> fields{"plain", "a,b", "say \"hi\"", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    line += (i ? "," : "") + csv::quoteField(fields[i]);
  }
  EXPECT_EQ(csv::parseLine(line), fields);
}

TEST(Csv, ParseLineToleratesTrailingCarriageReturn) {
  EXPECT_EQ(csv::parseLine("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  stats::Accumulator acc;
  for (double v : {2.0, 4.0, 6.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
}

TEST(Stats, AccumulatorEmptyThrows) {
  stats::Accumulator acc;
  EXPECT_THROW(acc.min(), McError);
  EXPECT_THROW(acc.mean(), McError);
}

TEST(Stats, VarianceOfSingleSampleIsZero) {
  stats::Accumulator acc;
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(stats::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(stats::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(stats::median({7.0}), 7.0);
}

TEST(Stats, MedianEmptyThrows) {
  EXPECT_THROW(stats::median({}), McError);
}

TEST(Stats, SummarizeMatchesAccumulator) {
  std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  stats::Summary s = stats::summarize(samples);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, CvIsRelativeSpread) {
  stats::Summary s = stats::summarize({10.0, 10.0, 10.0});
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
}

TEST(Stats, CvOfZeroMeanIsNanNotZero) {
  // stddev/mean is undefined for a zero mean; returning 0.0 here used to
  // make all-zero sample sets look "perfectly stable" to the adaptive loop.
  stats::Accumulator acc;
  for (int i = 0; i < 3; ++i) acc.add(0.0);
  EXPECT_TRUE(std::isnan(acc.cv()));

  stats::Accumulator mixed;  // mean 0 with nonzero spread
  mixed.add(-1.0);
  mixed.add(1.0);
  EXPECT_TRUE(std::isnan(mixed.cv()));

  // Nothing measured yet is just as undefined as a zero mean: 0.0 would
  // read as "perfectly converged" before a single sample arrived.
  stats::Accumulator empty;
  EXPECT_TRUE(std::isnan(empty.cv()));
}

TEST(Stats, NanLastLessIsATotalOrderWithNanAtTheEnd) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(stats::nanLastLess(1.0, 2.0));
  EXPECT_FALSE(stats::nanLastLess(2.0, 1.0));
  EXPECT_FALSE(stats::nanLastLess(1.0, 1.0));  // irreflexive

  // Every number sorts before NaN, never the other way around.
  EXPECT_TRUE(stats::nanLastLess(1.0, kNan));
  EXPECT_FALSE(stats::nanLastLess(kNan, 1.0));

  // NaNs are equivalent to each other — exactly the property the raw `<`
  // lacks (NaN < x and x < NaN are both false, so NaN is "equal" to
  // everything, breaking transitivity of equivalence in std::sort).
  EXPECT_FALSE(stats::nanLastLess(kNan, kNan));

  std::vector<double> values = {kNan, 3.0, kNan, 1.0, 2.0};
  std::sort(values.begin(), values.end(),
            [](double a, double b) { return stats::nanLastLess(a, b); });
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
  EXPECT_DOUBLE_EQ(values[2], 3.0);
  EXPECT_TRUE(std::isnan(values[3]));
  EXPECT_TRUE(std::isnan(values[4]));
}

TEST(Stats, WithinNoiseComparesAgainstCombinedStandardError) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // 10.0 vs 10.2 at 5% CV each: sigma = 0.5 / 0.51, combined ~0.714 —
  // a 0.2 gap is well inside 3 sigma.
  EXPECT_TRUE(stats::withinNoise(10.0, 0.05, 10.2, 0.05, 3.0));
  // 10.0 vs 30.0 is ~9.4 combined sigmas apart: clearly distinguishable.
  EXPECT_FALSE(stats::withinNoise(10.0, 0.05, 30.0, 0.05, 3.0));
  // Zero CV means zero noise: only exact equality is "within noise".
  EXPECT_TRUE(stats::withinNoise(5.0, 0.0, 5.0, 0.0, 3.0));
  EXPECT_FALSE(stats::withinNoise(5.0, 0.0, 5.0001, 0.0, 3.0));
  // Any undefined input makes the comparison undecidable: report "within
  // noise" so callers never act (eliminate a variant) on a NaN.
  EXPECT_TRUE(stats::withinNoise(kNan, 0.0, 5.0, 0.0, 3.0));
  EXPECT_TRUE(stats::withinNoise(5.0, kNan, 6.0, 0.0, 3.0));
  EXPECT_TRUE(stats::withinNoise(5.0, 0.0, kNan, 0.0, 3.0));
  EXPECT_TRUE(stats::withinNoise(5.0, 0.0, 6.0, kNan, 3.0));
}

// ---------------------------------------------------------------------------
// hash
// ---------------------------------------------------------------------------

TEST(Hash, EmptyDigestIsOffsetBasis) {
  EXPECT_EQ(hash::Fnv1a().value(), hash::Fnv1a::kOffsetBasis);
  EXPECT_EQ(hash::Fnv1a().value(), 0xcbf29ce484222325ull);
}

TEST(Hash, MatchesKnownFnv1aVectors) {
  // Reference digests of the 64-bit FNV-1a test vectors.
  EXPECT_EQ(hash::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, DeterministicAndOrderSensitive) {
  auto digest = [](auto&& fill) {
    hash::Fnv1a h;
    fill(h);
    return h.value();
  };
  std::uint64_t a =
      digest([](hash::Fnv1a& h) { h.str("x").u64(1).boolean(true); });
  std::uint64_t b =
      digest([](hash::Fnv1a& h) { h.str("x").u64(1).boolean(true); });
  std::uint64_t c =
      digest([](hash::Fnv1a& h) { h.u64(1).str("x").boolean(true); });
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Hash, StringMixerSeparatesAdjacentFields) {
  // Without the length prefix these two would concatenate identically.
  std::uint64_t ab_c = hash::Fnv1a().str("ab").str("c").value();
  std::uint64_t a_bc = hash::Fnv1a().str("a").str("bc").value();
  EXPECT_NE(ab_c, a_bc);
}

TEST(Hash, DoubleMixerNormalizesNegativeZero) {
  EXPECT_EQ(hash::Fnv1a().f64(-0.0).value(), hash::Fnv1a().f64(0.0).value());
  EXPECT_NE(hash::Fnv1a().f64(1.0).value(), hash::Fnv1a().f64(2.0).value());
}

TEST(Hash, HexIsSixteenLowercaseDigits) {
  std::string hex = hash::Fnv1a().str("sample").hex();
  EXPECT_EQ(hex.size(), 16u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  EXPECT_EQ(hash::toHex(0), "0000000000000000");
  EXPECT_EQ(hash::toHex(0xdeadbeefull), "00000000deadbeef");
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng;
  EXPECT_THROW(rng.nextBelow(0), McError);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(3);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.nextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sawLo |= (v == -2);
    sawHi |= (v == 2);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NextInRangeBadBoundsThrow) {
  Rng rng;
  EXPECT_THROW(rng.nextInRange(3, 2), McError);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---------------------------------------------------------------------------
// cli
// ---------------------------------------------------------------------------

TEST(Cli, ParsesStringIntDoubleFlag) {
  cli::Parser p("t");
  p.addString("name", "n").addInt("count", "c").addDouble("ratio", "r");
  p.addFlag("fast", "f");
  ASSERT_TRUE(p.parse({"--name", "x", "--count=3", "--ratio", "2.5",
                       "--fast"}));
  EXPECT_EQ(p.getString("name"), "x");
  EXPECT_EQ(p.getInt("count"), 3);
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 2.5);
  EXPECT_TRUE(p.getFlag("fast"));
}

TEST(Cli, DefaultsApply) {
  cli::Parser p("t");
  p.addInt("count", "c", 7);
  ASSERT_TRUE(p.parse(std::vector<std::string>{}));
  EXPECT_EQ(p.getInt("count"), 7);
  EXPECT_TRUE(p.has("count"));
}

TEST(Cli, MissingRequiredThrowsOnAccess) {
  cli::Parser p("t");
  p.addString("name", "n");
  ASSERT_TRUE(p.parse(std::vector<std::string>{}));
  EXPECT_FALSE(p.has("name"));
  EXPECT_THROW(p.getString("name"), McError);
}

TEST(Cli, UnknownOptionThrows) {
  cli::Parser p("t");
  EXPECT_THROW(p.parse({"--nope"}), ParseError);
}

TEST(Cli, IntValidation) {
  cli::Parser p("t");
  p.addInt("count", "c");
  EXPECT_THROW(p.parse({"--count", "abc"}), ParseError);
}

TEST(Cli, MissingValueThrows) {
  cli::Parser p("t");
  p.addString("name", "n");
  EXPECT_THROW(p.parse({"--name"}), ParseError);
}

TEST(Cli, RepeatedCollectsAll) {
  cli::Parser p("t");
  p.addRepeated("plugin", "p");
  ASSERT_TRUE(p.parse({"--plugin", "a.so", "--plugin=b.so"}));
  EXPECT_EQ(p.getRepeated("plugin"),
            (std::vector<std::string>{"a.so", "b.so"}));
}

TEST(Cli, PositionalArguments) {
  cli::Parser p("t");
  p.addFlag("v", "verbose");
  ASSERT_TRUE(p.parse({"input.xml", "--v", "more"}));
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"input.xml", "more"}));
}

TEST(Cli, FlagRejectsValue) {
  cli::Parser p("t");
  p.addFlag("fast", "f");
  EXPECT_THROW(p.parse({"--fast=yes"}), ParseError);
}

TEST(Cli, DuplicateRegistrationThrows) {
  cli::Parser p("t");
  p.addInt("n", "x");
  EXPECT_THROW(p.addString("n", "y"), McError);
}

TEST(Cli, WrongTypeAccessThrows) {
  cli::Parser p("t");
  p.addInt("n", "x", 1);
  ASSERT_TRUE(p.parse(std::vector<std::string>{}));
  EXPECT_THROW(p.getString("n"), McError);
}

TEST(Cli, HelpTextMentionsOptionsAndDefaults) {
  cli::Parser p("mytool", "Does things.");
  p.addInt("count", "How many", 5);
  std::string help = p.helpText();
  EXPECT_NE(help.find("mytool"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("default: 5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

TEST(Error, ParseErrorCarriesLine) {
  ParseError e("bad token", 12);
  EXPECT_EQ(e.line(), 12u);
  EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos);
}

TEST(EnvInfo, CaptureHasStableShape) {
  env::EnvSnapshot snapshot = env::captureEnv();
  // Every snapshot carries the same keys — missing sources degrade to
  // "unknown", they are never omitted.
  for (const char* key : {"cpu_model", "cpu_count", "governor", "turbo",
                          "loadavg", "kernel", "hostname"}) {
    EXPECT_FALSE(snapshot.get(key).empty()) << key;
  }
  EXPECT_NE(snapshot.get("cpu_count"), "unknown");
}

TEST(EnvInfo, SetReplacesAndStripsNewlines) {
  env::EnvSnapshot snapshot;
  snapshot.set("compiler", "gcc\n12.3");
  EXPECT_EQ(snapshot.get("compiler"), "gcc 12.3");
  snapshot.set("compiler", "clang 17");
  EXPECT_EQ(snapshot.get("compiler"), "clang 17");
  EXPECT_EQ(snapshot.fields.size(), 1u);
  EXPECT_EQ(snapshot.get("absent"), "");
}

TEST(EnvInfo, CsvCommentsRoundTrip) {
  env::EnvSnapshot snapshot;
  snapshot.set("cpu_model", "Test CPU @ 2.0GHz");
  snapshot.set("scaling_governor", "performance");
  std::string comments = env::toCsvComments(snapshot);
  EXPECT_NE(comments.find("# env.cpu_model=Test CPU @ 2.0GHz\n"),
            std::string::npos);

  // Round-trips when embedded in a full CSV, with non-env lines ignored.
  std::string csvText = comments +
                        "sequence,variant,status\n"
                        "0,alpha,ok\n"
                        "# a stray comment that is not an env line\n";
  env::EnvSnapshot parsed = env::fromCsvComments(csvText);
  EXPECT_EQ(parsed.get("cpu_model"), "Test CPU @ 2.0GHz");
  EXPECT_EQ(parsed.get("scaling_governor"), "performance");
  EXPECT_EQ(parsed.fields.size(), 2u);
}

TEST(Error, CheckDescriptionThrowsWithMessage) {
  EXPECT_NO_THROW(checkDescription(true, "fine"));
  try {
    checkDescription(false, "broken invariant");
    FAIL() << "expected DescriptionError";
  } catch (const DescriptionError& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace microtools
