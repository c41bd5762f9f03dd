/**
 * @file
 * Run-ledger and crash-flight-recorder tests: NDJSON envelope
 * structure, golden bytes for every event kind, the cross-thread
 * payload determinism contract, heartbeat wall-only events, provenance
 * digests, replay-command quoting, ring wrap/recycling, and the crash
 * paths (panic hook + dump content) via death tests. Also here: the
 * report/ledger provenance match, string-escaping parity across the
 * report, ledger and Chrome trace, and BenchContext's startup checks
 * (output paths, numeric flag values, unknown flags).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "core/machine_config.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/run_ledger.hh"

namespace csim {
namespace {

std::string
tempPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "/csim_ledger_" + tag +
        "_" + std::to_string(::getpid());
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
fieldOf(const std::string &line, const std::string &marker)
{
    const std::size_t at = line.find(marker);
    EXPECT_NE(at, std::string::npos) << line;
    if (at == std::string::npos)
        return "";
    return line.substr(at + marker.size());
}

/** The payload object's exact bytes (it is the envelope's last
 *  field). */
std::string
payloadOf(const std::string &line)
{
    std::string tail = fieldOf(line, "\"payload\":");
    EXPECT_FALSE(tail.empty());
    if (!tail.empty())
        tail.pop_back(); // envelope's closing brace
    return tail;
}

std::string
kindOf(const std::string &line)
{
    const std::string tail = fieldOf(line, "\"kind\":\"");
    return tail.substr(0, tail.find('"'));
}

/** The line with every value of its "wall" object replaced by '#':
 *  wall values are flat numbers that vary run to run, while their keys
 *  and order are part of the format. */
std::string
maskWall(const std::string &line)
{
    const std::string marker = "\"wall\":{";
    const std::size_t at = line.find(marker);
    EXPECT_NE(at, std::string::npos) << line;
    if (at == std::string::npos)
        return line;
    std::string out = line.substr(0, at + marker.size());
    std::size_t i = at + marker.size();
    bool in_value = false;
    for (; i < line.size() && line[i] != '}'; ++i) {
        if (line[i] == ':') {
            out += ":#";
            in_value = true;
        } else if (line[i] == ',') {
            out += ',';
            in_value = false;
        } else if (!in_value) {
            out += line[i];
        }
    }
    return out + line.substr(i);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

Provenance
testProvenance()
{
    Provenance prov;
    prov.gitSha = "cafef00dcafe";
    prov.buildType = "Test";
    prov.buildFlags = "-O2";
    prov.cmdline = "test_ledger --fake";
    return prov;
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.instructions = 3000;
    cfg.seeds = {1, 2};
    return cfg;
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::clustered(2),
                   PolicyKind::Focused);
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::ModN);
    return spec;
}

// ---------------------------------------------------------------- //
// RunLedger structure

TEST(RunLedger, HeadEnvelopeAndSequencing)
{
    const std::string path = tempPath("head");
    {
        RunLedger ledger(path, "test_bench", testProvenance());
        ledger.jobBegin(0, "gzip/2x4w/focused", 1, "0123456789abcdef");
        ledger.jobEnd(0, "gzip/2x4w/focused", 1, 1000, 2000,
                      "fedcba9876543210");
    }
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(kindOf(lines[0]), "head");
    EXPECT_NE(lines[0].find("\"gitSha\":\"cafef00dcafe\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"benchmark\":\"test_bench\""),
              std::string::npos);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string prefix =
            "{\"ledger\":1,\"seq\":" + std::to_string(i) + ",";
        EXPECT_EQ(lines[i].substr(0, prefix.size()), prefix);
        // Every event carries a wall offset and a payload object.
        EXPECT_NE(lines[i].find("\"wall\":{\"tMs\":"),
                  std::string::npos);
        EXPECT_NE(lines[i].find("\"payload\":{"), std::string::npos);
    }
    EXPECT_NE(lines[2].find("\"cpi\":2"), std::string::npos);
    std::remove(path.c_str());
}

TEST(RunLedgerDeathTest, UnwritablePathIsFatalAtConstruction)
{
    EXPECT_DEATH(
        RunLedger("/nonexistent_dir_for_csim_test/x.ndjson", "bench",
                  testProvenance()),
        "--ledger-out");
}

TEST(RunLedger, HeartbeatsAreWallOnly)
{
    const std::string path = tempPath("beat");
    {
        RunLedger ledger(path, "test_bench", testProvenance());
        ledger.progress().jobsTotal.store(10);
        ledger.progress().jobsDone.store(4);
        ledger.progress().instructionsDone.store(123456);
        ledger.startHeartbeat(5);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        ledger.stopHeartbeat();
    }
    std::size_t beats = 0;
    for (const std::string &line : readLines(path)) {
        if (kindOf(line) != "heartbeat")
            continue;
        ++beats;
        // The payload must be empty: heartbeats are wall-clock-only
        // and excluded from the determinism contract.
        EXPECT_EQ(payloadOf(line), "{}") << line;
        EXPECT_NE(line.find("\"jobsDone\":4"), std::string::npos);
        EXPECT_NE(line.find("\"jobsTotal\":10"), std::string::npos);
        EXPECT_NE(line.find("\"instructions\":123456"),
                  std::string::npos);
        EXPECT_NE(line.find("\"etaSeconds\":"), std::string::npos);
        EXPECT_NE(line.find("\"rssBytes\":"), std::string::npos);
    }
    EXPECT_GE(beats, 2u);
    std::remove(path.c_str());
}

TEST(RunLedger, GoldenEventBytes)
{
    // One exact line per event kind, wall values masked: pins key
    // order, escaping and number formats of the whole ledger format.
    const std::string path = tempPath("golden");
    Provenance prov = testProvenance();
    prov.hostProf = true;
    prov.env = {{"CSIM_LOG", "debug"}, {"CSIM_THREADS", "2"}};
    {
        RunLedger ledger(path, "golden_bench", prov);
        ledger.sweepBegin(0, 2, 4, 3);
        ledger.jobBegin(0, "gzip/2x4w/focused", 7, "0123456789abcdef");
        ledger.jobEnd(0, "gzip/2x4w/focused", 7, 3000, 4500,
                      "fedcba9876543210");
        ledger.cellEnd(0, "gzip/2x4w/focused", 2, 6000, 7001,
                       "00000000deadbeef");
        ledger.sweepEnd(0, 2, 4, 1.25);
        ledger.traceHashes({{"gzip|7|3000", "1111222233334444"},
                            {"mcf|7|3000", "aaaabbbbccccdddd"}});
        ledger.benchEnd(1, 2, 3, 2.5);
        // Heartbeats start only now, so the first one is seq 8.
        ledger.startHeartbeat(1);
        for (int i = 0; i < 500; ++i) {
            const std::vector<std::string> so_far = readLines(path);
            if (so_far.size() > 8)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ledger.stopHeartbeat();
    }
    const std::vector<std::string> lines = readLines(path);
    const std::vector<std::string> expected = {
        "{\"ledger\":1,\"seq\":0,\"kind\":\"head\",\"wall\":{\"tMs\":#},"
        "\"payload\":{\"benchmark\":\"golden_bench\","
        "\"ledgerSchemaVersion\":1,\"provenance\":{"
        "\"gitSha\":\"cafef00dcafe\",\"buildType\":\"Test\","
        "\"buildFlags\":\"-O2\",\"hostProf\":true,"
        "\"cmdline\":\"test_ledger --fake\","
        "\"env\":{\"CSIM_LOG\":\"debug\",\"CSIM_THREADS\":\"2\"}}}}",

        "{\"ledger\":1,\"seq\":1,\"kind\":\"sweepBegin\","
        "\"wall\":{\"tMs\":#,\"threads\":#},"
        "\"payload\":{\"sweep\":0,\"cells\":2,\"jobs\":4}}",

        "{\"ledger\":1,\"seq\":2,\"kind\":\"jobBegin\","
        "\"wall\":{\"tMs\":#},"
        "\"payload\":{\"sweep\":0,\"cell\":\"gzip/2x4w/focused\","
        "\"seed\":7,\"configDigest\":\"0123456789abcdef\"}}",

        "{\"ledger\":1,\"seq\":3,\"kind\":\"jobEnd\","
        "\"wall\":{\"tMs\":#},"
        "\"payload\":{\"sweep\":0,\"cell\":\"gzip/2x4w/focused\","
        "\"seed\":7,\"instructions\":3000,\"cycles\":4500,\"cpi\":1.5,"
        "\"statsDigest\":\"fedcba9876543210\"}}",

        "{\"ledger\":1,\"seq\":4,\"kind\":\"cellEnd\","
        "\"wall\":{\"tMs\":#},"
        "\"payload\":{\"sweep\":0,\"cell\":\"gzip/2x4w/focused\","
        "\"seeds\":2,\"instructions\":6000,\"cycles\":7001,"
        "\"cpi\":1.16683333333,"
        "\"statsDigest\":\"00000000deadbeef\"}}",

        "{\"ledger\":1,\"seq\":5,\"kind\":\"sweepEnd\","
        "\"wall\":{\"tMs\":#,\"wallSeconds\":#},"
        "\"payload\":{\"sweep\":0,\"cells\":2,\"jobs\":4}}",

        "{\"ledger\":1,\"seq\":6,\"kind\":\"traces\","
        "\"wall\":{\"tMs\":#},"
        "\"payload\":{\"traces\":["
        "{\"key\":\"gzip|7|3000\",\"hash\":\"1111222233334444\"},"
        "{\"key\":\"mcf|7|3000\",\"hash\":\"aaaabbbbccccdddd\"}]}}",

        "{\"ledger\":1,\"seq\":7,\"kind\":\"benchEnd\","
        "\"wall\":{\"tMs\":#,\"wallSeconds\":#},"
        "\"payload\":{\"grids\":1,\"runs\":2,\"scalars\":3}}",

        "{\"ledger\":1,\"seq\":8,\"kind\":\"heartbeat\","
        "\"wall\":{\"tMs\":#,\"jobsDone\":#,\"jobsTotal\":#,"
        "\"instructions\":#,\"hostMips\":#,\"etaSeconds\":#,"
        "\"rssBytes\":#},\"payload\":{}}",
    };
    ASSERT_GT(lines.size(), expected.size() - 1);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(maskWall(lines[i]), expected[i]) << "line " << i;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Determinism contract across sweep thread counts

/** (ordered, concurrent) payload views, mirroring check_ledger.py:
 *  single-thread-emitted kinds keep file order, worker-emitted kinds
 *  (jobBegin/jobEnd) are compared as a sorted multiset, heartbeats
 *  are ignored. */
std::pair<std::vector<std::string>, std::vector<std::string>>
deterministicView(const std::string &path)
{
    std::vector<std::string> ordered, concurrent;
    for (const std::string &line : readLines(path)) {
        const std::string kind = kindOf(line);
        if (kind == "heartbeat")
            continue;
        if (kind == "jobBegin" || kind == "jobEnd")
            concurrent.push_back(payloadOf(line));
        else
            ordered.push_back(payloadOf(line));
    }
    std::sort(concurrent.begin(), concurrent.end());
    return {ordered, concurrent};
}

TEST(RunLedger, PayloadsByteIdenticalAcrossThreadCounts)
{
    const std::string path1 = tempPath("t1");
    const std::string path4 = tempPath("t4");
    for (const auto &[path, threads] :
         {std::pair<std::string, unsigned>{path1, 1u}, {path4, 4u}}) {
        RunLedger ledger(path, "test_bench", testProvenance());
        SweepRunner runner(threads);
        runner.setLedger(&ledger);
        runner.run(smallSpec());
    }
    const auto [ordered1, concurrent1] = deterministicView(path1);
    const auto [ordered4, concurrent4] = deterministicView(path4);
    EXPECT_FALSE(ordered1.empty());
    // jobBegin + jobEnd for every (cell, seed) unit.
    EXPECT_EQ(concurrent1.size(), 2u * smallSpec().cells.size() *
                                      smallConfig().seeds.size());
    EXPECT_EQ(ordered1, ordered4);
    EXPECT_EQ(concurrent1, concurrent4);
    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

// ---------------------------------------------------------------- //
// Digests and replay quoting

TEST(RunLedger, StatsDigestCommitsToEveryStat)
{
    StatsRegistry reg;
    Counter &a = reg.addCounter("a", "");
    reg.addCounter("b", "");
    const std::string before = statsDigest(reg.snapshot());
    EXPECT_EQ(before.size(), 16u);
    EXPECT_EQ(before, statsDigest(reg.snapshot())); // stable
    a += 1;
    EXPECT_NE(before, statsDigest(reg.snapshot()));
}

TEST(RunLedger, ConfigDigestTracksEveryKnob)
{
    ExperimentConfig cfg = smallConfig();
    const std::string base = configDigest(cfg);
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, configDigest(cfg));
    ExperimentConfig other = cfg;
    other.instructions += 1;
    EXPECT_NE(base, configDigest(other));
    other = cfg;
    other.seeds.push_back(9);
    EXPECT_NE(base, configDigest(other));
    other = cfg;
    other.stallThreshold = 0.34;
    EXPECT_NE(base, configDigest(other));
    other = cfg;
    other.regions = 4;
    other.regionLen = 100;
    EXPECT_NE(base, configDigest(other));
}

TEST(RunLedger, ReplayCommandQuoting)
{
    const char *argv[] = {"bench", "--seeds", "1,2", "a b",
                          "don't", "--json=/tmp/x.json"};
    EXPECT_EQ(replayCommandLine(6, const_cast<char **>(argv)),
              "bench --seeds 1,2 'a b' 'don'\\''t' "
              "--json=/tmp/x.json");
}

TEST(RunLedger, CollectProvenanceCapturesEnvOverrides)
{
    ::unsetenv("CSIM_LOG");
    Provenance prov = collectProvenance("cmd");
    for (const auto &[name, value] : prov.env)
        EXPECT_NE(name, "CSIM_LOG");
    ::setenv("CSIM_LOG", "debug", 1);
    prov = collectProvenance("cmd");
    bool found = false;
    for (const auto &[name, value] : prov.env)
        if (name == "CSIM_LOG") {
            found = true;
            EXPECT_EQ(value, "debug");
        }
    EXPECT_TRUE(found);
    ::unsetenv("CSIM_LOG");
    EXPECT_EQ(prov.cmdline, "cmd");
    EXPECT_FALSE(prov.gitSha.empty());
}

// ---------------------------------------------------------------- //
// Flight recorder

class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override { FlightRecorder::reset(); }
    void TearDown() override { FlightRecorder::reset(); }
};

TEST_F(FlightRecorderTest, DumpContainsRingContextAndReplay)
{
    FlightRecorder::install("bench_xyz --seeds 1,2");
    FlightRecorder::note("event-alpha");
    FlightRecorder::note("event-beta");
    FlightRecorder::setContext("cell=gzip/2x4w seed=1");
    const std::string dump = FlightRecorder::dumpToString("test");
    EXPECT_NE(dump.find("flight recorder dump (reason: test)"),
              std::string::npos);
    EXPECT_NE(dump.find("replay: bench_xyz --seeds 1,2"),
              std::string::npos);
    EXPECT_NE(dump.find("event-alpha"), std::string::npos);
    EXPECT_NE(dump.find("event-beta"), std::string::npos);
    EXPECT_NE(dump.find("context: cell=gzip/2x4w seed=1"),
              std::string::npos);
    EXPECT_NE(dump.find("[-1] event-beta"), std::string::npos);
    EXPECT_NE(dump.find("[-2] event-alpha"), std::string::npos);
}

TEST_F(FlightRecorderTest, RingKeepsOnlyLastEntries)
{
    FlightRecorder::install("cmd");
    const std::size_t total = FlightRecorder::ringEntries + 5;
    for (std::size_t i = 0; i < total; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "entry-%03zu", i);
        FlightRecorder::note(buf);
    }
    const std::string dump = FlightRecorder::dumpToString("wrap");
    EXPECT_EQ(dump.find("entry-000"), std::string::npos);
    EXPECT_EQ(dump.find("entry-004"), std::string::npos);
    char first_kept[64], last[64];
    std::snprintf(first_kept, sizeof(first_kept), "entry-%03zu",
                  total - FlightRecorder::ringEntries);
    std::snprintf(last, sizeof(last), "entry-%03zu", total - 1);
    EXPECT_NE(dump.find(first_kept), std::string::npos);
    EXPECT_NE(dump.find(last), std::string::npos);
}

TEST_F(FlightRecorderTest, NotInstalledRecordsNothing)
{
    FlightRecorder::note("should-not-appear");
    FlightRecorder::install("cmd");
    const std::string dump = FlightRecorder::dumpToString("empty");
    EXPECT_EQ(dump.find("should-not-appear"), std::string::npos);
}

TEST_F(FlightRecorderTest, WorkerThreadRingsRecycle)
{
    FlightRecorder::install("cmd");
    // More sequential threads than ring slots: each releases its slot
    // on exit, so every one must get a live ring.
    for (std::size_t i = 0; i < FlightRecorder::maxThreads + 8; ++i) {
        std::thread([] {
            FlightRecorder::note("worker-event");
            FlightRecorder::setContext("worker-context");
        }).join();
    }
    // After all threads exited, their rings are cleared and released.
    const std::string dump = FlightRecorder::dumpToString("recycled");
    EXPECT_EQ(dump.find("worker-event"), std::string::npos);
}

// EXPECT_DEATH matches with POSIX EREs in which '.' need not match
// newlines, so each property of the multi-line dump gets its own
// death test.
TEST_F(FlightRecorderTest, PanicDumpAnnouncesReason)
{
    FlightRecorder::install("replay-me --flag");
    FlightRecorder::note("last-event-before-death");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "flight recorder dump");
}

TEST_F(FlightRecorderTest, PanicDumpCarriesReplayCommand)
{
    FlightRecorder::install("replay-me --flag");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "replay: replay-me --flag");
}

TEST_F(FlightRecorderTest, PanicDumpCarriesRingEvents)
{
    FlightRecorder::install("replay-me --flag");
    FlightRecorder::note("last-event-before-death");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "last-event-before-death");
}

TEST_F(FlightRecorderTest, FatalDumpsToo)
{
    FlightRecorder::install("replay-me");
    EXPECT_DEATH(CSIM_FATAL("bad config for test"),
                 "flight recorder dump");
}

TEST_F(FlightRecorderTest, DumpFileWrittenOnDeath)
{
    const std::string dump_path = tempPath("crashdump");
    std::remove(dump_path.c_str());
    FlightRecorder::install("replay-me --here", dump_path);
    FlightRecorder::note("persisted-event");
    // The death-test child writes the dump file; the parent reads it.
    EXPECT_DEATH(CSIM_PANIC("induced"), "flight recorder");
    std::ifstream in(dump_path);
    ASSERT_TRUE(static_cast<bool>(in)) << dump_path;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("replay: replay-me --here"),
              std::string::npos);
    EXPECT_NE(content.find("persisted-event"), std::string::npos);
    std::remove(dump_path.c_str());
}

// ---------------------------------------------------------------- //
// BenchContext wiring

TEST(BenchContextLedgerDeathTest, UnwritableLedgerPathIsFatal)
{
    const char *argv[] = {"bench", "--ledger-out",
                          "/nonexistent_dir_for_csim_test/l.ndjson"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "--ledger-out path "
                 "'/nonexistent_dir_for_csim_test/l.ndjson' is not "
                 "writable");
}

TEST(BenchContextLedgerDeathTest, UnwritableTraceOutPathIsFatal)
{
    const char *argv[] = {"bench", "--trace-out",
                          "/nonexistent_dir_for_csim_test/t.json"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "--trace-out path "
                 "'/nonexistent_dir_for_csim_test/t.json' is not "
                 "writable");
}

TEST(BenchContextLedgerDeathTest, BadHeartbeatPeriodIsFatal)
{
    const char *argv[] = {"bench", "--heartbeat-ms", "fast"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "bad --heartbeat-ms 'fast'");
    const char *argv0[] = {"bench", "--heartbeat-ms", "0"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv0)),
                 "bad --heartbeat-ms '0'");
}

TEST(BenchContextLedgerDeathTest, NumericFlagsAcceptDigitsOnly)
{
    // strtoull alone would wrap "-1" to 2^64-1 and skip leading
    // blanks; every numeric flag must reject them, and overflow, by
    // name.
    for (const char *flag :
         {"--instructions", "--profile-interval", "--region-len",
          "--warmup", "--regions", "--heartbeat-ms"}) {
        for (const char *bad :
             {"-1", " 7", "7 ", "18446744073709551616",
              "99999999999999999999999"}) {
            const char *argv[] = {"bench", flag, bad};
            EXPECT_DEATH(BenchContext("bench", 3,
                                      const_cast<char **>(argv)),
                         std::string("bad ") + flag + " '" + bad + "'")
                << flag << " " << bad;
        }
    }
}

TEST(BenchContextLedgerDeathTest, SeedEntriesAcceptDigitsOnly)
{
    for (const char *bad : {"1,-2", "1, 2", "18446744073709551616"}) {
        const char *argv[] = {"bench", "--seeds", bad};
        EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                     "bad --seeds entry")
            << bad;
    }
}

TEST(BenchContext, NumericFlagsTakeTheFullRange)
{
    const char *argv[] = {"bench", "--instructions",
                          "18446744073709551615", "--seeds",
                          "0,18446744073709551615"};
    BenchContext ctx("bench", 5, const_cast<char **>(argv));
    ExperimentConfig cfg;
    ctx.apply(cfg);
    EXPECT_EQ(cfg.instructions, 18446744073709551615ull);
    ASSERT_EQ(cfg.seeds.size(), 2u);
    EXPECT_EQ(cfg.seeds[0], 0u);
    EXPECT_EQ(cfg.seeds[1], 18446744073709551615ull);
}

TEST(BenchContextDeathTest, UnknownFlagIsFatal)
{
    // Removed flags (the closed-loop adaptive manager's) must fail as
    // loudly as any misspelling, never be silently ignored.
    const char *adaptive[] = {"bench", "--adaptive"};
    EXPECT_DEATH(BenchContext("bench", 2, const_cast<char **>(adaptive)),
                 "unknown or incomplete argument '--adaptive'");
    const char *interval[] = {"bench", "--adaptive-interval", "5"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(interval)),
                 "unknown or incomplete argument '--adaptive-interval'");
    const char *bogus[] = {"bench", "--bogus"};
    EXPECT_DEATH(BenchContext("bench", 2, const_cast<char **>(bogus)),
                 "unknown or incomplete argument '--bogus'");
    const char *legacy[] = {"bench", "--legacy-step"};
    EXPECT_DEATH(BenchContext("bench", 2, const_cast<char **>(legacy)),
                 "unknown or incomplete argument '--legacy-step'");
}

TEST(BenchContextDeathTest, RegionLenWithoutRegionsIsFatal)
{
    const char *argv[] = {"bench", "--region-len", "100"};
    EXPECT_EXIT(BenchContext("bench", 3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1),
                "--region-len requires --regions");
}

TEST(BenchContextDeathTest, WarmupNotShorterThanTraceIsFatal)
{
    // A CLI value must stop in the harness with a diagnostic, never
    // reach the timing core's phase-budget assert (an abort) or leave
    // an empty measured phase (a NaN CPI at exit 0). The traces hold
    // at most --instructions instructions.
    for (const char *warmup : {"5000", "2000"}) {
        const char *argv[] = {"bench", "--instructions", "2000",
                              "--seeds", "1", "--threads", "1",
                              "--warmup", warmup};
        BenchContext ctx("bench", 9, const_cast<char **>(argv));
        SweepSpec spec = smallSpec();
        ctx.apply(spec.cfg);
        EXPECT_EXIT(ctx.runner().run(spec), ::testing::ExitedWithCode(1),
                    "fatal: phase '.*' needs .* instructions .*"
                    "-instruction trace .*--warmup")
            << warmup;
    }
}

TEST(BenchContextLedger, EndToEndLedgerAndProvenance)
{
    const std::string ledger_path = tempPath("bench");
    const std::string json_path = tempPath("bench_json");
    {
        const std::string threads = "2";
        const char *argv[] = {"test_ledger_bench",
                              "--ledger-out", ledger_path.c_str(),
                              "--json", json_path.c_str(),
                              "--threads", threads.c_str()};
        BenchContext ctx("test_ledger_bench", 7,
                         const_cast<char **>(argv));
        ASSERT_NE(ctx.ledger(), nullptr);
        EXPECT_TRUE(FlightRecorder::installed());
        SweepSpec spec = smallSpec();
        ctx.apply(spec.cfg);
        const SweepOutcome outcome = ctx.runner().run(spec);
        ctx.addSweepRuns(outcome);
        EXPECT_EQ(ctx.finish(), 0);
    }
    FlightRecorder::reset();

    const std::vector<std::string> lines = readLines(ledger_path);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(kindOf(lines.front()), "head");
    std::size_t traces = 0, bench_end = 0, cell_end = 0;
    for (const std::string &line : lines) {
        const std::string kind = kindOf(line);
        traces += kind == "traces";
        bench_end += kind == "benchEnd";
        cell_end += kind == "cellEnd";
    }
    EXPECT_EQ(traces, 1u);
    EXPECT_EQ(bench_end, 1u);
    EXPECT_EQ(cell_end, smallSpec().cells.size());

    const std::string report = readFile(json_path);
    EXPECT_NE(report.find("\"schemaVersion\":7"), std::string::npos);
    EXPECT_NE(report.find("\"provenance\":{"), std::string::npos);
    EXPECT_NE(report.find("\"traceHashes\":{"), std::string::npos);
    EXPECT_NE(report.find("\"cmdline\":"), std::string::npos);

    // The report's provenance is the ledger head's, key for key and
    // byte for byte, plus "traceHashes" as its last key.
    std::string head_prov =
        fieldOf(payloadOf(lines.front()), "\"provenance\":");
    ASSERT_FALSE(head_prov.empty());
    head_prov.pop_back(); // the payload's closing brace
    std::string report_prov = fieldOf(report, "\"provenance\":");
    report_prov =
        report_prov.substr(0, report_prov.find(",\"traceHashes\":"));
    EXPECT_EQ(report_prov + "}", head_prov);
    EXPECT_NE(head_prov.find("\"cmdline\":\"test_ledger_bench "),
              std::string::npos);
    std::remove(ledger_path.c_str());
    std::remove(json_path.c_str());
}

TEST(JsonEscaping, SameBytesInReportLedgerAndChromeTrace)
{
    // A quote, a backslash, a newline and a bare control character:
    // every artifact must encode them with the same bytes.
    const std::string label = "odd\"label\\with\nnewline\x01";
    const std::string escaped =
        "\"odd\\\"label\\\\with\\nnewline\\u0001\"";

    const std::string json_path = tempPath("escape_json");
    {
        const char *argv[] = {"escape_bench", "--json", json_path.c_str()};
        BenchContext ctx("escape_bench", 3, const_cast<char **>(argv));
        ctx.addRunStats(label, StatsSnapshot{});
        EXPECT_EQ(ctx.finish(), 0);
    }
    EXPECT_NE(readFile(json_path).find("\"label\":" + escaped),
              std::string::npos);
    std::remove(json_path.c_str());

    const std::string ledger_path = tempPath("escape_ledger");
    {
        RunLedger ledger(ledger_path, "escape_bench", testProvenance());
        ledger.jobBegin(0, label, 1, "0123456789abcdef");
    }
    const std::vector<std::string> lines = readLines(ledger_path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"cell\":" + escaped + ","),
              std::string::npos)
        << lines[1];
    std::remove(ledger_path.c_str());

    std::ostringstream trace;
    writeChromeTrace(trace, {ChromeTraceRun{label, IntervalSeries{}, {}}});
    EXPECT_NE(trace.str().find("\"args\":{\"name\":" + escaped + "}"),
              std::string::npos)
        << trace.str();
}

} // namespace
} // namespace csim
