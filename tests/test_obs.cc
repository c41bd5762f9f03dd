/**
 * @file
 * Observability tests: the stats registry (registration, panics,
 * snapshot merge), its integration into TimingSim, the O3PipeView
 * pipeline tracer (exact golden output on a hand-analysable program,
 * lifecycle ordering on a paper example), and the JSON report
 * round-trip through BenchContext + FigureGrid::toJson.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "mem/latency_annotator.hh"
#include "obs/pipe_trace.hh"
#include "obs/stats_registry.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "workloads/micro.hh"

namespace csim {
namespace {

const auto r = Program::r;

Trace
prepare(const Program &p, std::uint64_t n = 100000)
{
    Emulator emu(p);
    Trace t = emu.run(n);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

SimResult
runMono(const Trace &trace)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    return TimingSim(MachineConfig::monolithic(), trace, steer, age).run();
}

// ------------------------------------------------------------------ //
// StatsRegistry / StatsSnapshot

TEST(StatsRegistry, CountersAndFormulas)
{
    StatsRegistry reg;
    Counter &a = reg.addCounter("a.count");
    Counter &b = reg.addCounter("a.other");
    reg.addFormula("a.ratio", [&] {
        return b.value() ? static_cast<double>(a.value()) /
            static_cast<double>(b.value()) : 0.0;
    });

    ++a;
    a += 4;
    b.inc(2);

    EXPECT_TRUE(reg.has("a.count"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_EQ(reg.size(), 3u);

    StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("a.count"), 5.0);
    EXPECT_EQ(snap.value("a.other"), 2.0);
    EXPECT_DOUBLE_EQ(snap.value("a.ratio"), 2.5);
    EXPECT_EQ(snap.at("a.count").kind, StatKind::Counter);
    EXPECT_EQ(snap.at("a.ratio").kind, StatKind::Formula);

    // The snapshot is frozen; later counting doesn't affect it.
    a += 100;
    EXPECT_EQ(snap.value("a.count"), 5.0);
}

TEST(StatsRegistry, Distributions)
{
    StatsRegistry reg;
    Histogram &h = reg.addDistribution("d", 4, 0.0, 4.0);
    h.add(0.5);
    h.add(2.5);
    h.add(2.6);

    StatsSnapshot snap = reg.snapshot();
    const StatValue &v = snap.at("d");
    EXPECT_EQ(v.kind, StatKind::Distribution);
    ASSERT_EQ(v.buckets.size(), 4u);
    EXPECT_EQ(v.buckets[0], 1u);
    EXPECT_EQ(v.buckets[2], 2u);
    EXPECT_EQ(v.value, 3.0);  // total samples
    EXPECT_EQ(v.lo, 0.0);
    EXPECT_EQ(v.hi, 4.0);
}

TEST(StatsRegistryDeathTest, DuplicateNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatsRegistry reg;
    reg.addCounter("dup");
    EXPECT_DEATH(reg.addCounter("dup"), "dup");
}

TEST(StatsRegistryDeathTest, MalformedNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatsRegistry reg;
    EXPECT_DEATH(reg.addCounter(""), "name");
    EXPECT_DEATH(reg.addCounter(".leading"), "name");
    EXPECT_DEATH(reg.addCounter("trailing."), "name");
    EXPECT_DEATH(reg.addCounter("a..b"), "name");
    EXPECT_DEATH(reg.addCounter("sp ace"), "name");
}

TEST(StatsSnapshot, MergeSemantics)
{
    StatsRegistry r1, r2;
    r1.addCounter("c").inc(3);
    r2.addCounter("c").inc(5);
    r1.addFormula("f", [] { return 1.0; });
    r2.addFormula("f", [] { return 3.0; });
    r1.addDistribution("d", 2, 0.0, 2.0).add(0.5);
    r2.addDistribution("d", 2, 0.0, 2.0).add(1.5);
    r2.addCounter("only2").inc(7);

    StatsSnapshot s = r1.snapshot();
    s.merge(r2.snapshot());

    EXPECT_EQ(s.value("c"), 8.0);             // counters sum
    EXPECT_DOUBLE_EQ(s.value("f"), 2.0);      // formulas average
    EXPECT_EQ(s.at("d").buckets[0], 1u);      // buckets sum
    EXPECT_EQ(s.at("d").buckets[1], 1u);
    EXPECT_EQ(s.value("only2"), 7.0);         // unknown names adopted
    EXPECT_EQ(s.at("c").mergeCount, 2u);

    // Three-way formula merge stays the running mean.
    StatsRegistry r3;
    r3.addFormula("f", [] { return 8.0; });
    s.merge(r3.snapshot());
    EXPECT_DOUBLE_EQ(s.value("f"), 4.0);      // (1 + 3 + 8) / 3
}

TEST(StatsSnapshotDeathTest, MergeGeometryMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatsRegistry r1, r2;
    r1.addDistribution("d", 2, 0.0, 2.0);
    r2.addDistribution("d", 4, 0.0, 2.0);
    StatsSnapshot s = r1.snapshot();
    EXPECT_DEATH(s.merge(r2.snapshot()), "d");
}

// ------------------------------------------------------------------ //
// TimingSim integration

TEST(StatsIntegration, RegistryMatchesLegacyFields)
{
    Program p;
    for (int i = 0; i < 256; ++i)
        p.addi(r(1 + (i % 8)), r(1 + ((i + 1) % 8)), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimResult res =
        TimingSim(MachineConfig::clustered(4), t, steer, age).run();

    // The legacy SimResult fields are copies of registry counters.
    EXPECT_EQ(res.stats.value("sim.globalValues"),
              static_cast<double>(res.globalValues));
    EXPECT_EQ(res.stats.value("sim.cycles"),
              static_cast<double>(res.cycles));
    EXPECT_EQ(res.stats.value("sim.instructions"),
              static_cast<double>(res.instructions));
    EXPECT_DOUBLE_EQ(res.stats.value("sim.cpi"), res.cpi());

    // Core counters exist and the registry is comfortably rich.
    EXPECT_GE(res.stats.size(), 10u);
    EXPECT_TRUE(res.stats.has("fetch.stallCycles"));
    EXPECT_TRUE(res.stats.has("steer.reason.noProducer"));
    EXPECT_TRUE(res.stats.has("sim.cluster0.issue.int"));
    EXPECT_TRUE(res.stats.has("sim.cluster3.window.occupancy"));

    // Every committed instruction was steered for exactly one reason.
    double reasons = 0.0;
    for (const char *s : {"monolithic", "noProducer", "collocated",
                          "loadBalanced", "proactiveLb"})
        reasons += res.stats.value(std::string("steer.reason.") + s);
    EXPECT_EQ(reasons, static_cast<double>(res.instructions));

    // Issue-port counts sum to the committed instruction count.
    double issued = 0.0;
    for (unsigned c = 0; c < 4; ++c)
        for (const char *port : {"int", "fp", "mem"})
            issued += res.stats.value("sim.cluster" +
                                      std::to_string(c) + ".issue." +
                                      port);
    EXPECT_EQ(issued, static_cast<double>(res.instructions));
}

TEST(StatsIntegration, AggregateMergesSeeds)
{
    ExperimentConfig cfg;
    cfg.instructions = 2000;
    cfg.seeds = {1, 2};
    AggregateResult agg = runAggregate(
        "gcc", MachineConfig::clustered(2), PolicyKind::FocusedLoc,
        cfg);
    EXPECT_GE(agg.stats.size(), 10u);
    EXPECT_EQ(agg.stats.at("sim.cycles").mergeCount, 2u);
    EXPECT_EQ(agg.stats.value("sim.instructions"),
              static_cast<double>(agg.instructions));
    EXPECT_EQ(agg.stats.value("sim.cycles"),
              static_cast<double>(agg.cycles));
    // The policy stack's predictor/trainer stats ride along.
    EXPECT_TRUE(agg.stats.has("predict.crit.trains"));
    EXPECT_TRUE(agg.stats.has("predict.loc.trains"));
    EXPECT_TRUE(agg.stats.has("train.chunks"));
}

// ------------------------------------------------------------------ //
// Pipeline tracer

TEST(PipeTrace, GoldenSingleInstruction)
{
    // One independent addi on the monolithic machine; every timestamp
    // is derivable by hand: fetched cycle 0, leaves the 13-stage
    // front end at 13, issues at 14, completes (1-cycle op) at 15,
    // commits the cycle after.
    Program p;
    p.addi(r(1), r(2), 7);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t.size(), 1u);

    SimResult res = runMono(t);
    ASSERT_EQ(res.instructions, 1u);

    std::ostringstream out;
    writePipeTrace(out, t, res.timing);
    EXPECT_EQ(out.str(),
              "O3PipeView:fetch:0:0x00001000:0:0:addi c0 crit=0 "
              "loc=0\n"
              "O3PipeView:decode:13\n"
              "O3PipeView:rename:13\n"
              "O3PipeView:dispatch:13\n"
              "O3PipeView:issue:14\n"
              "O3PipeView:complete:15\n"
              "O3PipeView:retire:16:store:0\n");
}

TEST(PipeTrace, OrderingOnPaperExample)
{
    // Fig. 9's serial dependence chain on the 8x1w machine: the
    // stage ordering fetch <= dispatch <= issue <= complete < retire
    // must hold for every traced instruction.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 2000;
    wcfg.seed = 1;
    Trace t = buildMicroSerialChain(wcfg);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimResult res =
        TimingSim(MachineConfig::clustered(8), t, steer, age).run();
    std::ostringstream out;
    writePipeTrace(out, t, res.timing);

    // Parse the stream back and re-check the ordering record by
    // record (the tracer asserts it too, but the text is the API).
    std::istringstream in(out.str());
    std::string line;
    std::uint64_t records = 0;
    std::uint64_t fetch = 0, dispatch = 0, issue = 0, complete = 0;
    while (std::getline(in, line)) {
        std::uint64_t cyc = 0;
        if (std::sscanf(line.c_str(), "O3PipeView:fetch:%" SCNu64,
                        &cyc) == 1) {
            fetch = cyc;
        } else if (std::sscanf(line.c_str(),
                               "O3PipeView:dispatch:%" SCNu64,
                               &cyc) == 1) {
            dispatch = cyc;
        } else if (std::sscanf(line.c_str(),
                               "O3PipeView:issue:%" SCNu64,
                               &cyc) == 1) {
            issue = cyc;
        } else if (std::sscanf(line.c_str(),
                               "O3PipeView:complete:%" SCNu64,
                               &cyc) == 1) {
            complete = cyc;
        } else if (std::sscanf(line.c_str(),
                               "O3PipeView:retire:%" SCNu64,
                               &cyc) == 1) {
            EXPECT_LE(fetch, dispatch);
            EXPECT_LE(dispatch, issue);
            EXPECT_LE(issue, complete);
            EXPECT_LT(complete, cyc);
            ++records;
        }
    }
    EXPECT_EQ(records, res.instructions);
}

TEST(PipeTrace, SamplingWindow)
{
    Program p;
    for (int i = 0; i < 50; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    PipeTraceOptions w;
    w.startInst = 10;
    w.endInst = 20;
    std::ostringstream out;
    writePipeTrace(out, t, runMono(t).timing, w);
    const std::string text = out.str();

    // Ten 7-line records.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 70);
    // Sequence numbers 10..19 only.
    EXPECT_EQ(text.find(":0:9:"), std::string::npos);
    EXPECT_NE(text.find(":0:10:"), std::string::npos);
    EXPECT_NE(text.find(":0:19:"), std::string::npos);
    EXPECT_EQ(text.find(":0:20:"), std::string::npos);
}

TEST(PipeTrace, CycleWindowGolden)
{
    Program p;
    for (int i = 0; i < 50; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);

    // Reference: the ungated trace, split into its 7-line records.
    std::ostringstream full;
    writePipeTrace(full, t, res.timing);
    std::vector<std::string> lines;
    {
        std::istringstream in(full.str());
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size() % 7, 0u);

    // Parse each record's fetch cycle (first numeric field of its
    // fetch line) and pick a window that is a proper, non-empty
    // subset of the observed fetch cycles.
    std::vector<Cycle> fetches;
    for (std::size_t i = 0; i < lines.size(); i += 7)
        fetches.push_back(std::stoull(lines[i].substr(
            std::string("O3PipeView:fetch:").size())));
    PipeTraceOptions w;
    w.startCycle = fetches[fetches.size() / 4];
    w.endCycle = fetches[3 * fetches.size() / 4];
    ASSERT_LT(w.startCycle, w.endCycle);

    // Golden gated output: records whose fetch lies in the window.
    std::string golden;
    for (std::size_t i = 0; i < lines.size(); i += 7) {
        if (fetches[i / 7] < w.startCycle ||
            fetches[i / 7] >= w.endCycle)
            continue;
        for (std::size_t j = 0; j < 7; ++j)
            golden += lines[i + j] + "\n";
    }
    EXPECT_FALSE(golden.empty());
    EXPECT_LT(golden.size(), full.str().size());

    std::ostringstream gated;
    writePipeTrace(gated, t, res.timing, w);
    EXPECT_EQ(gated.str(), golden);

    // Both gates compose: the cycle window ANDs with the inst window.
    PipeTraceOptions both = w;
    both.startInst = 0;
    both.endInst = 1;
    std::ostringstream none;
    writePipeTrace(none, t, res.timing, both);
    EXPECT_TRUE(none.str().empty());  // inst 0 fetches at cycle 0
}

// ------------------------------------------------------------------ //
// JSON report round-trip

TEST(JsonReport, WriterEscapesAndNests)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("s").value("a\"b\\c\nd");
    w.key("arr").beginArray().value(std::uint64_t{1}).value(2.5)
        .value(true).null().endArray();
    w.key("inf").value(1.0 / 0.0);
    w.endObject();
    EXPECT_EQ(out.str(),
              "{\"s\":\"a\\\"b\\\\c\\nd\","
              "\"arr\":[1,2.5,true,null],"
              "\"inf\":null}");
}

TEST(JsonReport, BenchContextRoundTrip)
{
    const std::string path =
        testing::TempDir() + "test_obs_report.json";

    const char *argv[] = {"test_bench", "--json", path.c_str(),
                          "--instructions", "1234", "--seeds", "4,5"};
    BenchContext ctx("test_bench", 7, const_cast<char **>(argv));

    ExperimentConfig cfg;
    ctx.apply(cfg);
    EXPECT_EQ(cfg.instructions, 1234u);
    ASSERT_EQ(cfg.seeds.size(), 2u);
    EXPECT_EQ(cfg.seeds[0], 4u);
    EXPECT_EQ(cfg.seeds[1], 5u);

    FigureGrid grid("t", {"c1", "c2"});
    grid.set("wl", "c1", 1.5);
    grid.set("wl", "c2", 2.5);
    ctx.addGrid(grid);
    ctx.addScalar("answer", 42.0);

    StatsRegistry reg;
    reg.addCounter("x.count").inc(9);
    reg.addDistribution("x.dist", 2, 0.0, 2.0).add(0.5);
    ctx.addRunStats("wl/1x8w/test", reg.snapshot());

    EXPECT_EQ(ctx.finish(), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();

    // Structural spot checks on the emitted document.
    EXPECT_NE(json.find("\"schemaVersion\":7"), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"test_bench\""),
              std::string::npos);
    EXPECT_NE(json.find("\"threads\":"), std::string::npos);
    EXPECT_NE(json.find("\"wallSeconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"title\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"c1\":1.5"), std::string::npos);
    EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"wl/1x8w/test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"x.count\":9"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":[1,0]"), std::string::npos);
    std::remove(path.c_str());
}

TEST(JsonReport, GridAccessors)
{
    FigureGrid grid("g", {"a", "b"});
    grid.set("r1", "a", 1.0);
    EXPECT_EQ(grid.title(), "g");
    ASSERT_EQ(grid.rows().size(), 1u);
    EXPECT_EQ(grid.rows()[0], "r1");
    EXPECT_TRUE(grid.has("r1", "a"));
    EXPECT_FALSE(grid.has("r1", "b"));
    EXPECT_EQ(grid.at("r1", "a"), 1.0);
}

} // anonymous namespace
} // namespace csim
