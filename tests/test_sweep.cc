/**
 * @file
 * Sweep engine tests: TraceCache build-once/hit semantics,
 * SweepRunner determinism across thread counts (bit-identical
 * aggregates, including the merged stats snapshots), equivalence with
 * the legacy sequential entry points, and BenchContext's --threads
 * front end.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"

namespace csim {
namespace {

WorkloadConfig
smallWorkload(std::uint64_t seed, std::uint64_t instructions = 4000)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = seed;
    return cfg;
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.instructions = 4000;
    cfg.seeds = {1, 2};
    return cfg;
}

// ---------------------------------------------------------------- //
// TraceCache

TEST(TraceCache, BuildsOnceAndHits)
{
    TraceCache cache;
    auto a = cache.get("gzip", smallWorkload(1));
    auto b = cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(a.get(), b.get());  // shared, not rebuilt
    EXPECT_EQ(cache.requests(), 2u);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_GT(cache.bytesHeld(), 0u);
}

TEST(TraceCache, DistinctKeysBuildSeparately)
{
    TraceCache cache;
    auto a = cache.get("gzip", smallWorkload(1));
    auto b = cache.get("gzip", smallWorkload(2));        // seed
    auto c = cache.get("mcf", smallWorkload(1));         // workload
    auto d = cache.get("gzip", smallWorkload(1, 2000));  // length
    EXPECT_EQ(cache.builds(), 4u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
}

TEST(TraceCache, ContentHashKeyPinsTheTraceModel)
{
    // The key renders the fixed L1 (32 KB, 4-way, 64 B lines), the
    // 3-cycle load-to-use plus 20-cycle L2 and the 16-bit gshare, so
    // provenance traceHashes stay comparable across builds.
    TraceCache cache;
    cache.get("gzip", smallWorkload(1, 3000));
    const std::string key = "gzip|1|3000|32768,4,64|3,20|16";
    const auto hashes = cache.contentHashes();
    ASSERT_EQ(hashes.size(), 1u);
    EXPECT_EQ(hashes[0].first, key);
    EXPECT_EQ(hashes[0].second, fnvHex(fnv1a64(key)));
}

TEST(TraceCache, CachedTraceMatchesFreshBuild)
{
    TraceCache cache;
    auto cached = cache.get("vpr", smallWorkload(3));
    Trace fresh = buildAnnotatedTrace("vpr", smallWorkload(3));
    ASSERT_EQ(cached->size(), fresh.size());
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*cached)[i].pc, fresh[i].pc);
        EXPECT_EQ((*cached)[i].mispredicted, fresh[i].mispredicted);
    }
}

TEST(TraceCache, HoldsEveryKeyItBuilt)
{
    TraceCache cache;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        cache.get("gzip", smallWorkload(seed));
    EXPECT_EQ(cache.builds(), 4u);
    EXPECT_EQ(cache.entries(), 4u);
}

TEST(TraceCache, ClearDropsEntries)
{
    TraceCache cache;
    auto held = cache.get("gzip", smallWorkload(1));
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytesHeld(), 0u);
    // A cell still holding the trace keeps it alive past clear().
    EXPECT_GT(held->size(), 0u);
    cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(TraceCache, StatsSnapshotCarriesRegistry)
{
    TraceCache cache;
    cache.get("gzip", smallWorkload(1));
    cache.get("gzip", smallWorkload(1));
    StatsSnapshot snap = cache.statsSnapshot();
    // The eight stats tools/check_bench_json.py requires of the
    // report's "traceCache" run entry.
    EXPECT_EQ(snap.size(), 8u);
    EXPECT_GT(snap.value("traceCache.bytesBuilt"), 0.0);
    EXPECT_EQ(snap.value("traceCache.requests"), 2.0);
    EXPECT_EQ(snap.value("traceCache.builds"), 1.0);
    EXPECT_EQ(snap.value("traceCache.hits"), 1.0);
    EXPECT_DOUBLE_EQ(snap.value("traceCache.hitRate"), 0.5);
    EXPECT_GT(snap.value("traceCache.bytesHeld"), 0.0);
    EXPECT_GT(snap.value("traceCache.peakBytes"), 0.0);
    EXPECT_EQ(snap.value("traceCache.entriesHeld"), 1.0);
}

TEST(TraceCache, TimeSnapshotTracksBuildLatency)
{
    TraceCache cache;
    (void)cache.get("gzip", smallWorkload(1));
    (void)cache.get("gzip", smallWorkload(1));
    const StatsSnapshot t = cache.timeSnapshot();
    EXPECT_GT(t.value("traceCache.time.buildNs"), 0.0);
    EXPECT_TRUE(t.has("traceCache.time.lockWaitNs"));
    EXPECT_TRUE(t.has("traceCache.time.hitWaitNs"));
    EXPECT_GT(t.value("traceCache.time.buildMsMean"), 0.0);
    // Wall times are nondeterministic, so they must stay out of the
    // cache's deterministic stats snapshot.
    EXPECT_FALSE(cache.statsSnapshot().has("traceCache.time.buildNs"));
}

// ---------------------------------------------------------------- //
// SweepSpec

TEST(SweepSpec, CrossTimingIsWorkloadMajor)
{
    SweepSpec spec;
    spec.crossTiming({"gzip", "mcf"},
                     {MachineConfig::monolithic(),
                      MachineConfig::clustered(4)},
                     {PolicyKind::ModN});
    ASSERT_EQ(spec.cells.size(), 4u);
    EXPECT_EQ(spec.cells[0].label(), "gzip/1x8w/mod-n");
    EXPECT_EQ(spec.cells[1].label(), "gzip/4x2w/mod-n");
    EXPECT_EQ(spec.cells[2].label(), "mcf/1x8w/mod-n");
    EXPECT_EQ(spec.cells[3].label(), "mcf/4x2w/mod-n");
}

TEST(SweepSpec, LabelsAndPerCellConfig)
{
    SweepSpec spec;
    spec.cfg.instructions = 123;
    const std::size_t a =
        spec.addIdeal("vpr", MachineConfig::clustered(2),
                      ListSchedOptions::Priority::Loc);
    SweepCell override_cell;
    override_cell.workload = "gcc";
    override_cell.machine = MachineConfig::clustered(8);
    override_cell.policy = PolicyKind::FocusedLocStall;
    ExperimentConfig special;
    special.instructions = 456;
    override_cell.cfg = special;
    const std::size_t b = spec.add(override_cell);

    EXPECT_EQ(spec.cells[a].label(), "vpr/2x4w/ideal-loc");
    EXPECT_EQ(spec.cells[b].label(), "gcc/8x1w/focused+loc+stall");
    EXPECT_EQ(spec.cellConfig(a).instructions, 123u);
    EXPECT_EQ(spec.cellConfig(b).instructions, 456u);
}

// ---------------------------------------------------------------- //
// SweepRunner

void
expectSnapshotsEqual(const StatsSnapshot &a, const StatsSnapshot &b)
{
    ASSERT_EQ(a.size(), b.size());
    const auto &ea = a.entries();
    const auto &eb = b.entries();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].first, eb[i].first);
        const StatValue &va = ea[i].second;
        const StatValue &vb = eb[i].second;
        EXPECT_EQ(va.kind, vb.kind) << ea[i].first;
        EXPECT_EQ(va.value, vb.value) << ea[i].first;
        EXPECT_EQ(va.buckets, vb.buckets) << ea[i].first;
        EXPECT_EQ(va.mergeCount, vb.mergeCount) << ea[i].first;
    }
}

void
expectResultsEqual(const AggregateResult &a, const AggregateResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    for (std::size_t c = 0; c < numCpCategories; ++c)
        EXPECT_EQ(a.categoryCycles[c], b.categoryCycles[c]);
    EXPECT_EQ(a.contentionEventsCritical, b.contentionEventsCritical);
    EXPECT_EQ(a.contentionEventsOther, b.contentionEventsOther);
    EXPECT_EQ(a.fwdEventsLoadBal, b.fwdEventsLoadBal);
    EXPECT_EQ(a.fwdEventsDyadic, b.fwdEventsDyadic);
    EXPECT_EQ(a.fwdEventsOther, b.fwdEventsOther);
    EXPECT_EQ(a.globalValues, b.globalValues);
    expectSnapshotsEqual(a.stats, b.stats);
}

void
expectPhasesEqual(const std::vector<PhaseResult> &a,
                  const std::vector<PhaseResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].isWarmup, b[i].isWarmup);
        EXPECT_EQ(a[i].instructions, b[i].instructions);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        expectSnapshotsEqual(a[i].stats, b[i].stats);
    }
}

SweepSpec
mixedSpec()
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::Focused);
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    spec.addIdeal("mcf", MachineConfig::clustered(2));
    // A per-cell override exercises cellConfig plumbing.
    SweepCell special;
    special.workload = "gzip";
    special.machine = MachineConfig::clustered(2);
    special.policy = PolicyKind::LoadBal;
    ExperimentConfig cfg = smallConfig();
    cfg.seeds = {7};
    special.cfg = cfg;
    spec.add(special);
    return spec;
}

TEST(SweepRunner, ParallelMatchesSequentialBitForBit)
{
    const SweepSpec spec = mixedSpec();
    SweepRunner seq(1);
    SweepRunner par(4);
    const SweepOutcome a = seq.run(spec);
    const SweepOutcome b = par.run(spec);

    EXPECT_EQ(a.threads, 1u);
    EXPECT_EQ(b.threads, 4u);
    ASSERT_EQ(a.results.size(), spec.cells.size());
    ASSERT_EQ(b.results.size(), spec.cells.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
        expectResultsEqual(a.results[i], b.results[i]);
}

TEST(SweepRunner, RegionSampledRunsAreThreadCountInvariant)
{
    // Region-sampled cells must merge region (and seed) results in a
    // fixed order, so a parallel sweep reproduces the sequential one
    // bit for bit — including the merged phase reports.
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.cfg.instructions = 8000;
    spec.cfg.regions = 3;
    spec.cfg.regionLen = 400;
    spec.cfg.regionWarmup = 150;
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::Focused);
    spec.addTiming("mcf", MachineConfig::monolithic(),
                   PolicyKind::ModN);

    SweepRunner seq(1);
    SweepRunner par(4);
    const SweepOutcome a = seq.run(spec);
    const SweepOutcome b = par.run(spec);
    ASSERT_EQ(a.results.size(), spec.cells.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        expectResultsEqual(a.results[i], b.results[i]);
        expectPhasesEqual(a.results[i].phases, b.results[i].phases);
        // Two seeds x three regions of like-named phases fold into
        // exactly one warmup and one measure entry.
        ASSERT_EQ(a.results[i].phases.size(), 2u);
        EXPECT_EQ(a.results[i].phases[0].name, "warmup");
        EXPECT_EQ(a.results[i].phases[1].name, "measure");
        EXPECT_EQ(a.results[i].phases[1].instructions,
                  a.results[i].instructions);
        EXPECT_EQ(a.results[i].phases[0].instructions,
                  2u * 3u * 150u);
    }
}

TEST(SweepRunner, MatchesLegacySequentialAggregates)
{
    const ExperimentConfig cfg = smallConfig();
    SweepSpec spec;
    spec.cfg = cfg;
    const std::size_t timing = spec.addTiming(
        "gzip", MachineConfig::clustered(4), PolicyKind::Focused);
    const std::size_t ideal =
        spec.addIdeal("mcf", MachineConfig::clustered(2));

    SweepRunner runner(2);
    const SweepOutcome out = runner.run(spec);

    const AggregateResult legacy_timing = runAggregate(
        "gzip", MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    const AggregateResult legacy_ideal = runIdealAggregate(
        "mcf", MachineConfig::clustered(2), cfg);
    expectResultsEqual(out.at(timing), legacy_timing);
    expectResultsEqual(out.at(ideal), legacy_ideal);
}

TEST(SweepRunner, SharesTracesAcrossCells)
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.crossTiming({"gzip"},
                     {MachineConfig::monolithic(),
                      MachineConfig::clustered(4)},
                     {PolicyKind::ModN, PolicyKind::LoadBal});
    SweepRunner runner(2);
    (void)runner.run(spec);
    // 4 cells x 2 seeds = 8 jobs but only 2 distinct traces.
    EXPECT_EQ(runner.cache().requests(), 8u);
    EXPECT_EQ(runner.cache().builds(), 2u);
    EXPECT_EQ(runner.cache().hits(), 6u);
}

TEST(SweepRunner, ExternalCacheIsUsed)
{
    TraceCache cache;
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    SweepRunner runner(2, &cache);
    EXPECT_EQ(&runner.cache(), &cache);
    (void)runner.run(spec);
    EXPECT_EQ(cache.builds(), 2u);  // one per seed
}

TEST(SweepRunner, ParallelForCoversAllIndicesOnce)
{
    SweepRunner runner(4);
    std::vector<int> touched(257, 0);
    runner.parallelFor(touched.size(), [&](std::size_t i) {
        ++touched[i];  // each index owned by exactly one job
    });
    for (std::size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i], 1) << i;
}

TEST(SweepRunner, WallTimeAndCellsRecorded)
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    SweepRunner runner(1);
    const SweepOutcome out = runner.run(spec);
    ASSERT_EQ(out.cells.size(), 1u);
    EXPECT_EQ(out.cells[0].label(), "gzip/1x8w/mod-n");
    EXPECT_GE(out.wallSeconds, 0.0);
    EXPECT_GT(out.at(0).instructions, 0u);
}

TEST(SweepRunner, DefaultThreadsReadsEnv)
{
    ASSERT_EQ(setenv("CSIM_THREADS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::defaultThreads(), 3u);
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
    EXPECT_GE(SweepRunner::defaultThreads(), 1u);
}

TEST(SweepRunnerDeathTest, MalformedEnvThreadCountIsFatal)
{
    // A malformed CSIM_THREADS must never silently fall back to a
    // default thread count.
    ASSERT_EQ(setenv("CSIM_THREADS", "junk", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(setenv("CSIM_THREADS", "0", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(setenv("CSIM_THREADS", "-2", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
}

TEST(ParseThreadCount, AcceptsPositiveDecimals)
{
    EXPECT_EQ(parseThreadCount("1", "--threads"), 1u);
    EXPECT_EQ(parseThreadCount("48", "--threads"), 48u);
    EXPECT_EQ(parseThreadCount("65536", "--threads"), 65536u);
}

TEST(ParseThreadCountDeathTest, RejectsGarbage)
{
    EXPECT_DEATH(parseThreadCount("", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("0", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("-1", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("+4", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("4x", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("0x10", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount(" 4", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("65537", "--threads"), "65537");
    EXPECT_DEATH(parseThreadCount("99999999999999999999", "src"),
                 "src");
}

// ---------------------------------------------------------------- //
// BenchContext front end

TEST(BenchContextThreads, FlagOverridesDefault)
{
    const char *argv[] = {"bench", "--threads", "5"};
    BenchContext ctx("bench", 3, const_cast<char **>(argv));
    EXPECT_EQ(ctx.threads(), 5u);
    EXPECT_EQ(ctx.runner().threads(), 5u);
    EXPECT_EQ(&ctx.runner().cache(), &ctx.traceCache());
}

TEST(BenchContextThreads, EnvDefaultWhenFlagAbsent)
{
    ASSERT_EQ(setenv("CSIM_THREADS", "2", 1), 0);
    const char *argv[] = {"bench"};
    BenchContext ctx("bench", 1, const_cast<char **>(argv));
    EXPECT_EQ(ctx.threads(), 2u);
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
}

} // anonymous namespace
} // namespace csim
