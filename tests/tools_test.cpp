// End-to-end tests of the two command-line tools, exercising the same
// binaries a user runs. Each test shells out to the built executables.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/strings.hpp"
#include "test_helpers.hpp"

#ifndef MT_MICROCREATOR_PATH
#error "MT_MICROCREATOR_PATH must be defined by the build"
#endif
#ifndef MT_MICROLAUNCHER_PATH
#error "MT_MICROLAUNCHER_PATH must be defined by the build"
#endif
#ifndef MT_MICROTOOLS_PATH
#error "MT_MICROTOOLS_PATH must be defined by the build"
#endif

namespace microtools {
namespace {

struct CommandResult {
  int exitCode = -1;
  std::string output;
};

CommandResult run(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, pipe)) result.output += buffer;
  int status = pclose(pipe);
  result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string writeTempXml(const std::string& content, const char* name) {
  // ctest runs each TEST as its own process, possibly in parallel; a
  // per-process path keeps concurrent tests from reading each other's
  // half-written files.
  std::string path = ::testing::TempDir() + "/" +
                     std::to_string(::getpid()) + "_" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xmlPath_ = writeTempXml(testing::figure6Xml(1, 4), "tools_test.xml");
    outDir_ = ::testing::TempDir() + "/tools_test_out_" +
              std::to_string(::getpid());
  }

  std::string xmlPath_;
  std::string outDir_;
};

TEST_F(ToolsTest, CreatorGeneratesExpectedCount) {
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                        " --output " + outDir_);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("generated 30 benchmark program(s)"),
            std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, CreatorNamesOnly) {
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                        " --names-only");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("loadstore_u1_seqL"), std::string::npos);
  EXPECT_NE(r.output.find("loadstore_u4_seqSSSS"), std::string::npos);
}

TEST_F(ToolsTest, CreatorListPassesShowsNineteen) {
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH) + " --list-passes");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("19. CodeEmission"), std::string::npos);
  EXPECT_NE(r.output.find("1. ValidateDescription"), std::string::npos);
}

TEST_F(ToolsTest, CreatorMaxOverrideCapsOutput) {
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                        " --max 7 --dry-run");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("generated 7 benchmark program(s)"),
            std::string::npos);
}

TEST_F(ToolsTest, CreatorRejectsMissingInput) {
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH));
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("no input file"), std::string::npos);
}

TEST_F(ToolsTest, CreatorReportsXmlErrors) {
  std::string bad = writeTempXml("<kernel><instruction>", "tools_bad.xml");
  CommandResult r = run(std::string(MT_MICROCREATOR_PATH) + " " + bad);
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST_F(ToolsTest, LauncherMeasuresGeneratedKernelOnSim) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u4_seqLLLL.s" +
                        " --array-bytes 16384 --inner 2 --outer 3");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("cycles_per_iteration_min"), std::string::npos);
  // 16384/4 elements, 16 per trip, +1 (do-while).
  EXPECT_NE(r.output.find(",257,"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, LauncherRejectsPinOutsideTheSimulatedMachine) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  for (const char* pin : {"12", "-1"}) {
    CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                          outDir_ + "/loadstore_u1_seqL.s" +
                          " --array-bytes 16384 --inner 2 --outer 3 --pin " +
                          pin);
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("has 12 cores"), std::string::npos) << r.output;
  }
}

TEST_F(ToolsTest, LauncherNativeBackend) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u2_seqLL.s" +
                        " --backend native --array-bytes 8192 --inner 2 "
                        "--outer 2");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find(",257,"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, LauncherListArch) {
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --list-arch");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("nehalem_x5650_2s"), std::string::npos);
  EXPECT_NE(r.output.find("figures 15, 16"), std::string::npos);
}

TEST_F(ToolsTest, LauncherForkMode) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u4_seqLLLL.s" +
                        " --cores 2 --fork-calls 1 --array-bytes 8192");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("process,"), std::string::npos);
  // Two result rows (plus header).
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 3);
}

TEST_F(ToolsTest, LauncherOpenMpMode) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u1_seqL.s" +
                        " --openmp --threads 2 --omp-repetitions 2 "
                        "--array-bytes 65536");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("threads,"), std::string::npos);
}

TEST_F(ToolsTest, LauncherAlignmentSweep) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u1_seqL.s" +
                        " --sweep-alignment --align-max 256 --align-step 64 "
                        "--array-bytes 8192 --inner 1 --outer 2");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("offset0"), std::string::npos);
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 5);
}

TEST_F(ToolsTest, LauncherCsvToFile) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  std::string csvPath = ::testing::TempDir() + "/tools_test.csv";
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --input " +
                        outDir_ + "/loadstore_u1_seqL.s" +
                        " --array-bytes 8192 --csv " + csvPath);
  EXPECT_EQ(r.exitCode, 0);
  std::ifstream in(csvPath);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("cycles_per_iteration_min"), std::string::npos);
  std::remove(csvPath.c_str());
}

TEST_F(ToolsTest, LauncherCampaignMode) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) + " --campaign " +
                        outDir_ + " --jobs 2 --array-bytes 8192 --inner 1 "
                        "--outer 2 --max-repetitions 6");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("sequence,round,variant,status"), std::string::npos)
      << r.output;
  // One row per generated variant (30) plus the header.
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 31)
      << r.output;
  // The overhead clamp guarantees no negative cycles/iteration anywhere.
  EXPECT_EQ(r.output.find(",-"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, LauncherCampaignRejectsMissingDirectory) {
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) +
                        " --campaign /nonexistent_campaign_dir");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("campaign directory not found"), std::string::npos);
}

TEST_F(ToolsTest, LauncherStandaloneProgram) {
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) +
                        " --standalone 'true' --cores 2");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("processes,2"), std::string::npos);
  EXPECT_NE(r.output.find("failures,0"), std::string::npos);
}

TEST_F(ToolsTest, LauncherRejectsUnknownBackend) {
  CommandResult r = run(std::string(MT_MICROLAUNCHER_PATH) +
                        " --input x.s --backend gpu");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("--backend must be sim or native"),
            std::string::npos);
}

TEST_F(ToolsTest, LauncherCampaignResumeSkipsCompletedRows) {
  ASSERT_EQ(run(std::string(MT_MICROCREATOR_PATH) + " " + xmlPath_ +
                " --output " + outDir_)
                .exitCode,
            0);
  std::string csvPath = ::testing::TempDir() + "/tools_resume.csv";
  std::remove(csvPath.c_str());
  std::string command = std::string(MT_MICROLAUNCHER_PATH) + " --campaign " +
                        outDir_ + " --jobs 2 --array-bytes 8192 --inner 1 "
                        "--outer 2 --max-repetitions 6 --csv " + csvPath;

  CommandResult first = run(command);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("0 skipped (resumed or failed verification)"),
            std::string::npos)
      << first.output;
  auto countLines = [&] {
    std::ifstream in(csvPath);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') ++n;  // skip the env preamble
    }
    return n;
  };
  int linesAfterFirst = countLines();
  EXPECT_EQ(linesAfterFirst, 31);  // header + 30 variants

  // The restart must skip everything and leave the CSV untouched.
  CommandResult second = run(command);
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("30 skipped (resumed or failed verification)"),
            std::string::npos)
      << second.output;
  EXPECT_EQ(countLines(), linesAfterFirst);
  std::remove(csvPath.c_str());
}

TEST_F(ToolsTest, ExploreSecondRunIsFullyCached) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_explore.xml");
  std::string cacheDir = ::testing::TempDir() + "/tools_explore_cache";
  std::filesystem::remove_all(cacheDir);
  std::string command = std::string(MT_MICROTOOLS_PATH) + " explore " +
                        small + " --array-bytes 16384 --inner 1 --outer 3 "
                        "--max-repetitions 6 --top 5 --cache " + cacheDir;

  CommandResult first = run(command);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("0 cache hit(s), 2 measured"),
            std::string::npos)
      << first.output;
  EXPECT_NE(first.output.find("rank,variant,cycles_per_iteration_min"),
            std::string::npos)
      << first.output;

  CommandResult second = run(command);
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("2 cache hit(s), 0 measured"),
            std::string::npos)
      << second.output;
  std::filesystem::remove_all(cacheDir);
}

TEST_F(ToolsTest, ExploreStreamWithParallelGenerationMatchesBatch) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_stream.xml");
  std::string cacheDir = ::testing::TempDir() + "/tools_stream_cache";
  std::filesystem::remove_all(cacheDir);
  std::string command = std::string(MT_MICROTOOLS_PATH) + " explore " +
                        small + " --stream --generate-jobs 4 "
                        "--array-bytes 16384 --inner 1 --outer 3 "
                        "--max-repetitions 6 --top 5 --cache " + cacheDir;

  CommandResult first = run(command);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("0 cache hit(s), 2 measured"),
            std::string::npos)
      << first.output;

  // The warm rerun is fully served by the in-memory cache index: the
  // telemetry line must report zero per-variant record file reads.
  CommandResult second = run(command);
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("2 cache hit(s), 0 measured"),
            std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("2 hit(s), 0 miss(es), 0 corrupt, "
                               "0 record file read(s)"),
            std::string::npos)
      << second.output;
  std::filesystem::remove_all(cacheDir);
}

TEST_F(ToolsTest, ExploreStreamRejectsHalvingSearch) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_streamh.xml");
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " explore " +
                        small + " --stream --search halving --no-cache "
                        "--array-bytes 16384 --inner 1 --outer 3");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("--stream requires the full sweep"),
            std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, CreatorGenerateJobsKeepsNamesIdentical) {
  CommandResult serial = run(std::string(MT_MICROCREATOR_PATH) + " " +
                             xmlPath_ + " --names-only");
  CommandResult parallel = run(std::string(MT_MICROCREATOR_PATH) + " " +
                               xmlPath_ + " --names-only --generate-jobs 4");
  EXPECT_EQ(serial.exitCode, 0);
  EXPECT_EQ(parallel.exitCode, 0);
  EXPECT_EQ(parallel.output, serial.output);
}

TEST_F(ToolsTest, ExploreWritesCampaignCsvAndReportFile) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_explore2.xml");
  std::string csvPath = ::testing::TempDir() + "/tools_explore.csv";
  std::string reportPath = ::testing::TempDir() + "/tools_explore_report.csv";
  std::remove(csvPath.c_str());
  std::remove(reportPath.c_str());
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " explore " +
                        small + " --no-cache --array-bytes 16384 --inner 1 "
                        "--outer 3 --max-repetitions 6 --csv " + csvPath +
                        " --report " + reportPath);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  std::ifstream csvIn(csvPath);
  ASSERT_TRUE(csvIn.good());
  std::string csvText((std::istreambuf_iterator<char>(csvIn)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(csvText.find("sequence,round,variant,status"), std::string::npos);
  // The static-prediction columns ride along on every campaign CSV.
  EXPECT_NE(csvText.find("pred_cpi_lo,pred_bound,pred_err"),
            std::string::npos)
      << csvText;
  std::ifstream reportIn(reportPath);
  ASSERT_TRUE(reportIn.good());
  std::string reportText((std::istreambuf_iterator<char>(reportIn)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(reportText.find("rank,variant"), std::string::npos);
  std::remove(csvPath.c_str());
  std::remove(reportPath.c_str());
}

TEST_F(ToolsTest, ServeDaemonShardsExploreWorkerOverUnixSocket) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_serve.xml");
  std::string dir = ::testing::TempDir() + "/tools_serve_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string addr = "unix:" + dir + "/serve.sock";

  // One shell script drives the whole lifecycle: daemon up, wait for the
  // ready line, one --connect worker, SIGTERM, drained summary.
  std::ostringstream script;
  script << "set -e\n"
         << "'" << MT_MICROTOOLS_PATH << "' serve --listen '" << addr
         << "' --cache '" << dir << "/cache' --csv '" << dir
         << "/campaign.csv' --report '" << dir << "/report.csv' > '" << dir
         << "/serve.log' 2>&1 &\n"
         << "pid=$!\n"
         << "for i in $(seq 1 100); do\n"
         << "  grep -q 'serve: listening on' '" << dir
         << "/serve.log' && break\n"
         << "  sleep 0.1\n"
         << "done\n"
         << "'" << MT_MICROTOOLS_PATH << "' explore '" << small
         << "' --connect '" << addr << "' --worker-name smoke "
         << "--array-bytes 16384 --inner 1 --outer 3 --max-repetitions 6\n"
         << "kill -TERM \"$pid\"\n"
         << "wait \"$pid\"\n"
         << "cat '" << dir << "/serve.log'\n";
  std::string scriptPath = dir + "/smoke.sh";
  std::ofstream(scriptPath) << script.str();

  CommandResult r = run("sh '" + scriptPath + "'");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  // The worker's summary names the daemon instead of a local cache...
  EXPECT_NE(r.output.find("service: " + addr), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("2 lease(s) measured"), std::string::npos)
      << r.output;
  // ...and the daemon drained cleanly with per-worker telemetry.
  EXPECT_NE(r.output.find("serve: drained; 1 campaign(s) finalized"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("serve: worker smoke:"), std::string::npos)
      << r.output;
  std::ifstream report(dir + "/report.csv");
  ASSERT_TRUE(report.good()) << "daemon wrote no ranked report";
  std::string reportText((std::istreambuf_iterator<char>(report)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(reportText.find("rank,variant"), std::string::npos) << reportText;
  std::filesystem::remove_all(dir);
}

TEST_F(ToolsTest, MicrotoolsUsageAndUnknownSubcommand) {
  CommandResult bare = run(std::string(MT_MICROTOOLS_PATH));
  EXPECT_EQ(bare.exitCode, 2);
  EXPECT_NE(bare.output.find("usage: microtools"), std::string::npos);

  CommandResult help = run(std::string(MT_MICROTOOLS_PATH) + " help");
  EXPECT_EQ(help.exitCode, 0);
  EXPECT_NE(help.output.find("explore"), std::string::npos);

  CommandResult unknown = run(std::string(MT_MICROTOOLS_PATH) + " frobnicate");
  EXPECT_EQ(unknown.exitCode, 2);
  EXPECT_NE(unknown.output.find("unknown subcommand"), std::string::npos);

  CommandResult explore =
      run(std::string(MT_MICROTOOLS_PATH) + " explore --help");
  EXPECT_EQ(explore.exitCode, 0);
  EXPECT_NE(explore.output.find("--no-cache"), std::string::npos);
}

TEST_F(ToolsTest, LintVerifiesEveryGeneratedVariantCleanly) {
  // The CI smoke check: every variant MicroCreator generates from the
  // bundled example must lint with zero error-level diagnostics.
  CommandResult r =
      run(std::string(MT_MICROTOOLS_PATH) + " lint " + xmlPath_);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("lint: 30 unit(s), 0 error(s)"), std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, LintFlagsBadAssemblyWithRuleIdAndExitCode) {
  std::string bad = writeTempXml(
      "microkernel:\n"
      "  mov $7, %rbx\n"
      "  mov $5, %eax\n"
      "  ret\n",
      "tools_lint_bad.s");
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " lint " + bad);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("MT-ABI01"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;

  CommandResult json =
      run(std::string(MT_MICROTOOLS_PATH) + " lint --json " + bad);
  EXPECT_EQ(json.exitCode, 1) << json.output;
  EXPECT_NE(json.output.find("\"rule\":\"MT-ABI01\""), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"severity\":\"error\""), std::string::npos)
      << json.output;
  // Located errors carry the documented column field (the mnemonic starts
  // after two leading spaces).
  EXPECT_NE(json.output.find("\"column\":3"), std::string::npos)
      << json.output;
}

TEST_F(ToolsTest, LintRequiresAnInput) {
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " lint");
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("no input"), std::string::npos);
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

TEST_F(ToolsTest, AnalyzeReportsABoundForEveryGeneratedVariant) {
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " analyze " +
                        xmlPath_ + " --array-bytes 8192");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("pred_cpi"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("analyze: 30 unit(s), 0 without a valid bound"),
            std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, AnalyzeJsonEmitsTheDocumentedSchema) {
  std::string small =
      writeTempXml(testing::figure6Xml(1, 2, false), "tools_analyze.xml");
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " analyze --json " +
                        small + " --array-bytes 8192");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  // One JSON object per line, one line per generated variant.
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 2)
      << r.output;
  for (const char* key :
       {"\"source\":", "\"pred_cpi_lo\":", "\"bound\":", "\"frontend_bound\":",
        "\"throughput_bound\":", "\"latency_bound\":", "\"load_carried\":",
        "\"ports\":", "\"occupancy\":", "\"stability\":", "\"regular_loop\":",
        "\"fits_l1\":", "\"steady_dependences\":", "\"score\":",
        "\"warnings\":"}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n" << r.output;
  }
  // One 8 KiB array against a 32 KiB L1, a regular streaming loop: the
  // stability verdict must come back provably stable.
  EXPECT_NE(r.output.find("\"stable\":true"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, AnalyzeUnboundableUnitWarnsAndExitsOne) {
  std::string straight = writeTempXml(
      "microkernel:\n xor %eax, %eax\n ret\n", "tools_analyze_flat.s");
  CommandResult r =
      run(std::string(MT_MICROTOOLS_PATH) + " analyze " + straight);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("no recognized single-block loop"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 without a valid bound"), std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, AnalyzeRequiresAnInput) {
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " analyze");
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("no input"), std::string::npos);
}

// ---------------------------------------------------------------------------
// bench-diff
// ---------------------------------------------------------------------------

/// Writes a minimal campaign CSV: one ok row per (name, median) pair, all
/// with the given per-row cv, preceded by optional "# env.*" comment lines.
std::string writeCampaignCsv(
    const char* fileName,
    const std::vector<std::pair<std::string, double>>& rows, double cv = 0.001,
    const std::string& preamble = "") {
  std::ostringstream csv;
  csv << preamble;
  csv << "sequence,variant,status,cycles_per_iteration_median,cv\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    csv << i << "," << rows[i].first << ",ok," << rows[i].second << "," << cv
        << "\n";
  }
  return writeTempXml(csv.str(), fileName);
}

TEST_F(ToolsTest, BenchDiffSelfCompareExitsZero) {
  std::string a = writeCampaignCsv("bd_self.csv",
                                   {{"alpha", 2.0}, {"beta", 4.0}});
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " + a +
                        " " + a);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("2 compared, 0 regression(s), 0 improvement(s)"),
            std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, BenchDiffFlagsRegressionWithNonzeroExit) {
  std::string oldCsv = writeCampaignCsv("bd_reg_old.csv", {{"alpha", 2.0}});
  std::string newCsv = writeCampaignCsv("bd_reg_new.csv", {{"alpha", 2.5}});
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                        oldCsv + " " + newCsv);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("regression"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 regression(s)"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, BenchDiffImprovementExitsZero) {
  std::string oldCsv = writeCampaignCsv("bd_imp_old.csv", {{"alpha", 2.5}});
  std::string newCsv = writeCampaignCsv("bd_imp_new.csv", {{"alpha", 2.0}});
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                        oldCsv + " " + newCsv);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("improved"), std::string::npos) << r.output;
}

TEST_F(ToolsTest, BenchDiffToleratesDeltaInsideMeasurementNoise) {
  // +8% exceeds the 5% base threshold, but both runs carry a 5% per-row CV:
  // allowed = max(0.05, 3 * sqrt(0.05^2 + 0.05^2)) ~ 21%, so the delta is
  // noise, not a regression.
  std::string oldCsv =
      writeCampaignCsv("bd_noise_old.csv", {{"alpha", 2.0}}, 0.05);
  std::string newCsv =
      writeCampaignCsv("bd_noise_new.csv", {{"alpha", 2.16}}, 0.05);
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                        oldCsv + " " + newCsv);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("0 regression(s)"), std::string::npos) << r.output;

  // The same delta with quiet data IS a regression.
  std::string quietOld =
      writeCampaignCsv("bd_quiet_old.csv", {{"alpha", 2.0}}, 0.001);
  std::string quietNew =
      writeCampaignCsv("bd_quiet_new.csv", {{"alpha", 2.16}}, 0.001);
  CommandResult quiet = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                            quietOld + " " + quietNew);
  EXPECT_EQ(quiet.exitCode, 1) << quiet.output;
}

TEST_F(ToolsTest, BenchDiffReportsDisjointVariantsAndEnvDrift) {
  std::string oldCsv = writeCampaignCsv(
      "bd_disj_old.csv", {{"alpha", 2.0}, {"gone", 3.0}}, 0.001,
      "# env.scaling_governor=performance\n");
  std::string newCsv = writeCampaignCsv(
      "bd_disj_new.csv", {{"alpha", 2.0}, {"added", 5.0}}, 0.001,
      "# env.scaling_governor=powersave\n");
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                        oldCsv + " " + newCsv);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("only in old: gone"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("only in new: added"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "env changed: scaling_governor: performance -> powersave"),
            std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, BenchDiffJsonReport) {
  std::string oldCsv = writeCampaignCsv("bd_json_old.csv", {{"alpha", 2.0}});
  std::string newCsv = writeCampaignCsv("bd_json_new.csv", {{"alpha", 2.5}});
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff --json "
                        + oldCsv + " " + newCsv);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("\"metric\": \"cycles_per_iteration_median\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"variant\": \"alpha\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"verdict\": \"regression\""), std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, BenchDiffUsageAndBadInputExitTwo) {
  CommandResult one = run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " +
                          "/nonexistent-a.csv");
  EXPECT_EQ(one.exitCode, 2);
  EXPECT_NE(one.output.find("exactly two CSV files"), std::string::npos)
      << one.output;

  std::string a = writeCampaignCsv("bd_usage.csv", {{"alpha", 2.0}});
  CommandResult missing = run(std::string(MT_MICROTOOLS_PATH) +
                              " bench-diff " + a + " /nonexistent-b.csv");
  EXPECT_EQ(missing.exitCode, 2);
  EXPECT_NE(missing.output.find("cannot read"), std::string::npos)
      << missing.output;

  // Two valid files with no variant in common cannot be compared.
  std::string b = writeCampaignCsv("bd_other.csv", {{"omega", 9.0}});
  CommandResult disjoint =
      run(std::string(MT_MICROTOOLS_PATH) + " bench-diff " + a + " " + b);
  EXPECT_EQ(disjoint.exitCode, 2);
  EXPECT_NE(disjoint.output.find("share no variant"), std::string::npos)
      << disjoint.output;
}

TEST_F(ToolsTest, BenchDiffCustomMetricAndThreshold) {
  std::ostringstream csvOld, csvNew;
  csvOld << "sequence,variant,status,ipc\n0,alpha,ok,2.0\n";
  csvNew << "sequence,variant,status,ipc\n0,alpha,ok,2.2\n";
  std::string a = writeTempXml(csvOld.str(), "bd_metric_old.csv");
  std::string b = writeTempXml(csvNew.str(), "bd_metric_new.csv");
  // ipc has no cv column; with --threshold 0.02 a +10% shift is flagged.
  CommandResult r = run(std::string(MT_MICROTOOLS_PATH) +
                        " bench-diff --metric ipc --threshold 0.02 " + a +
                        " " + b);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("bench-diff (ipc):"), std::string::npos)
      << r.output;
}

TEST_F(ToolsTest, HelpPagesWork) {
  CommandResult creator = run(std::string(MT_MICROCREATOR_PATH) + " --help");
  EXPECT_EQ(creator.exitCode, 0);
  EXPECT_NE(creator.output.find("--list-passes"), std::string::npos);
  CommandResult launcher =
      run(std::string(MT_MICROLAUNCHER_PATH) + " --help");
  EXPECT_EQ(launcher.exitCode, 0);
  EXPECT_NE(launcher.output.find("--nbvectors"), std::string::npos);
}

}  // namespace
}  // namespace microtools
