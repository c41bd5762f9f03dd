/**
 * @file
 * Tests for the columnar v2 trace store: round-trip fidelity,
 * streaming-writer equivalence, region extraction, the column-view
 * simulation path, phased runs, region-sampling determinism, crafted
 * hostile headers, and tampered producer links reaching region
 * sampling. Load-error reporting and Trace::wellFormed() are tested
 * separately.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/timing_sim.hh"
#include "harness/experiment.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_soa.hh"
#include "trace/trace_store.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/csim_" + tag +
        ".trc2";
}

Trace
smallTrace(const char *workload = "bzip2",
           std::uint64_t instructions = 4000, std::uint64_t seed = 5)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = seed;
    return buildAnnotatedTrace(workload, cfg);
}

void
expectRecordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.src2, b.src2);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.execLat, b.execLat);
    EXPECT_EQ(a.prod, b.prod);
    EXPECT_EQ(a.isBranch, b.isBranch);
    EXPECT_EQ(a.isCondBranch, b.isCondBranch);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Miss, b.l1Miss);
}

void
expectViewMatchesTrace(const TraceSoA &soa, const Trace &original)
{
    ASSERT_EQ(soa.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        SCOPED_TRACE(i);
        expectRecordsEqual(soa.record(i), original[i]);
    }
}

TEST(TraceStore, RoundTripPreservesEverything)
{
    const Trace original = smallTrace();
    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(saveTraceStore(original, path));

    TraceSoA soa;
    TraceStoreInfo info;
    ASSERT_EQ(loadTraceStore(soa, path, &info), TraceIoStatus::Ok);
    expectViewMatchesTrace(soa, original);
    EXPECT_EQ(info.instructions, original.size());
    EXPECT_GT(info.fileBytes, 0u);
    EXPECT_EQ(soa.producerLinks(),
              original.soa().producerLinks());
    std::remove(path.c_str());
}

TEST(TraceStore, EmptyTraceRoundTrips)
{
    const Trace empty;
    const std::string path = tempPath("empty");
    ASSERT_TRUE(saveTraceStore(empty, path));
    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
    EXPECT_EQ(soa.size(), 0u);
    std::remove(path.c_str());
}

TEST(TraceStore, StreamingWriterMatchesMonolithicSave)
{
    const Trace original = smallTrace();
    const std::string whole_path = tempPath("whole");
    const std::string chunked_path = tempPath("chunked");
    ASSERT_TRUE(saveTraceStore(original, whole_path));

    // Append in uneven chunks; producer links are already global in
    // the source trace, so chunk records pass through unchanged.
    TraceStoreWriter writer(chunked_path, original.size());
    ASSERT_TRUE(writer.ok());
    const std::size_t chunk_len = 613;
    for (std::size_t base = 0; base < original.size();
         base += chunk_len) {
        Trace chunk;
        for (std::size_t i = base;
             i < std::min(base + chunk_len, original.size()); ++i)
            chunk.append(original[i]);
        ASSERT_TRUE(writer.append(chunk));
    }
    ASSERT_TRUE(writer.finalize());
    EXPECT_EQ(writer.written(), original.size());

    // Same capacity, same layout: the files must be byte-identical.
    std::FILE *fa = std::fopen(whole_path.c_str(), "rb");
    std::FILE *fb = std::fopen(chunked_path.c_str(), "rb");
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    int ca, cb;
    std::uint64_t offset = 0;
    do {
        ca = std::fgetc(fa);
        cb = std::fgetc(fb);
        ASSERT_EQ(ca, cb) << "files diverge at byte " << offset;
        ++offset;
    } while (ca != EOF);
    std::fclose(fa);
    std::fclose(fb);
    std::remove(whole_path.c_str());
    std::remove(chunked_path.c_str());
}

TEST(TraceStore, WriterRejectsCapacityOverflow)
{
    const Trace original = smallTrace("vpr", 100, 1);
    const std::string path = tempPath("overflow");
    TraceStoreWriter writer(path, original.size() - 1);
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE(writer.append(original));
    EXPECT_FALSE(writer.ok());
    EXPECT_FALSE(writer.finalize());
    std::remove(path.c_str());
}

TEST(TraceStore, WriterUnderfillLoadsWrittenPrefix)
{
    const Trace original = smallTrace("vpr", 200, 3);
    const std::string path = tempPath("underfill");
    // Declare twice the capacity actually used (the streaming builder
    // does this whenever emulation halts early).
    TraceStoreWriter writer(path, original.size() * 2);
    ASSERT_TRUE(writer.append(original));
    ASSERT_TRUE(writer.finalize());

    TraceSoA soa;
    TraceStoreInfo info;
    ASSERT_EQ(loadTraceStore(soa, path, &info), TraceIoStatus::Ok);
    expectViewMatchesTrace(soa, original);
    EXPECT_EQ(info.instructions, original.size());
    std::remove(path.c_str());
}

TEST(TraceStore, BuildTraceStoreFileMatchesMonolithicBuild)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 4000;
    cfg.seed = 9;
    const Trace reference = buildAnnotatedTrace("gzip", cfg);

    // A chunk far below the target forces many emulate/link/annotate
    // hand-offs; the carried pass state must make them seamless.
    const std::string path = tempPath("streambuild");
    const TraceStoreBuildResult built =
        buildTraceStoreFile("gzip", cfg, path, 512);
    ASSERT_TRUE(built.ok);
    EXPECT_EQ(built.instructions, reference.size());

    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
    expectViewMatchesTrace(soa, reference);
    std::remove(path.c_str());
}

TEST(TraceStore, ExtractRegionRebasesProducerLinks)
{
    const Trace original = smallTrace("twolf", 2000, 4);
    const TraceSoA soa = original.soa();

    const std::uint64_t base = 700;
    const std::uint64_t len = 500;
    const Trace region = extractRegion(soa, base, len);
    ASSERT_EQ(region.size(), len);
    EXPECT_TRUE(region.wellFormed());

    for (std::uint64_t i = 0; i < len; ++i) {
        SCOPED_TRACE(i);
        const TraceRecord &src = original[base + i];
        const TraceRecord &dst = region[i];
        EXPECT_EQ(dst.pc, src.pc);
        EXPECT_EQ(dst.cls, src.cls);
        EXPECT_EQ(dst.execLat, src.execLat);
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = src.prod[slot];
            if (p == invalidInstId || p < base)
                EXPECT_EQ(dst.prod[slot], invalidInstId);
            else
                EXPECT_EQ(dst.prod[slot], p - base);
        }
    }
}

TEST(TraceStore, ExtractRegionClampsAtTraceEnd)
{
    const Trace original = smallTrace("vpr", 300, 2);
    const TraceSoA soa = original.soa();
    const Trace tail = extractRegion(soa, original.size() - 50,
                                     1000000);
    EXPECT_EQ(tail.size(), 50u);
    EXPECT_TRUE(tail.wellFormed());
    const Trace whole = extractRegion(soa, 0, soa.size());
    EXPECT_EQ(whole.size(), original.size());
}

TEST(TraceStore, ColumnViewSimulatesIdentically)
{
    const Trace original = smallTrace("twolf", 6000, 8);
    const std::string path = tempPath("viewsim");
    ASSERT_TRUE(saveTraceStore(original, path));
    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    const MachineConfig mc = MachineConfig::clustered(4);
    const SimResult a = TimingSim(mc, original, s1, age).run();
    // The mmap-backed view has no Trace behind it at all: the core
    // reads rows from the mapped columns on demand.
    const SimResult b = TimingSim(mc, soa, s2, age).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.globalValues, b.globalValues);
    EXPECT_EQ(a.stats.value("steer.stallCycles"),
              b.stats.value("steer.stallCycles"));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Phases

TEST(TraceStorePhases, SinglePhaseMatchesUnphasedRun)
{
    const Trace trace = smallTrace("gzip", 3000, 2);
    const MachineConfig mc = MachineConfig::clustered(4);
    AgeScheduling age;

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult plain = TimingSim(mc, trace, s1, age).run();

    SimOptions opt;
    opt.phases = {PhaseSpec{"all", 0, false}};
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult phased =
        TimingSim(mc, trace, s2, age, nullptr, opt).run();

    EXPECT_EQ(phased.cycles, plain.cycles);
    EXPECT_EQ(phased.instructions, plain.instructions);
    EXPECT_EQ(phased.globalValues, plain.globalValues);
    ASSERT_EQ(phased.phases.size(), 1u);
    EXPECT_EQ(phased.phases[0].name, "all");
    EXPECT_EQ(phased.phases[0].instructions, plain.instructions);
}

TEST(TraceStorePhases, WarmupPhaseIsExcludedFromTotals)
{
    const Trace trace = smallTrace("gzip", 3000, 2);
    const MachineConfig mc = MachineConfig::clustered(4);
    AgeScheduling age;

    SimOptions opt;
    opt.phases = {PhaseSpec{"warmup", 1000, true},
                  PhaseSpec{"measure", 0, false}};
    UnifiedSteering st(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult r =
        TimingSim(mc, trace, st, age, nullptr, opt).run();

    ASSERT_EQ(r.phases.size(), 2u);
    EXPECT_EQ(r.phases[0].instructions, 1000u);
    EXPECT_TRUE(r.phases[0].isWarmup);
    EXPECT_EQ(r.phases[1].instructions, trace.size() - 1000);
    EXPECT_FALSE(r.phases[1].isWarmup);

    // Top-level totals cover measured phases only; phase boundaries
    // reset stats, not microarchitectural state, so the phase spans
    // tile the run exactly.
    EXPECT_EQ(r.instructions, trace.size() - 1000);
    EXPECT_EQ(r.cycles,
              r.phases[1].cycles);
    ASSERT_GT(r.phases[0].cycles, 0u);

    // An unphased run over the same trace commits the same stream;
    // the phased run's spans must sum to its full length.
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult plain = TimingSim(mc, trace, s2, age).run();
    EXPECT_EQ(r.phases[0].cycles + r.phases[1].cycles, plain.cycles);
    EXPECT_EQ(r.phases[0].instructions + r.phases[1].instructions,
              plain.instructions);
}

// ---------------------------------------------------------------- //
// Region sampling

TEST(TraceStoreRegions, RegionSampledCellIsDeterministic)
{
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();

    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 600;
    cfg.regionWarmup = 200;
    const MachineConfig mc = MachineConfig::clustered(4);

    const AggregateResult a =
        runRegionSampledCell(soa, mc, PolicyKind::Focused, cfg);
    const AggregateResult b =
        runRegionSampledCell(soa, mc, PolicyKind::Focused, cfg);

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    // Regions merge like-named phases elementwise: warmup + measure.
    ASSERT_EQ(a.phases.size(), 2u);
    EXPECT_EQ(a.phases[0].name, "warmup");
    EXPECT_TRUE(a.phases[0].isWarmup);
    EXPECT_EQ(a.phases[1].name, "measure");
    EXPECT_EQ(a.phases[0].instructions, 4 * 200u);
    EXPECT_EQ(a.phases[1].instructions, 4 * 600u);
    // The aggregate's measured totals are the measure phase's.
    EXPECT_EQ(a.instructions, a.phases[1].instructions);
    ASSERT_EQ(b.phases.size(), 2u);
    EXPECT_EQ(a.phases[1].cycles, b.phases[1].cycles);
}

TEST(TraceStoreRegions, SampledSubsetIsCheaperThanFullRun)
{
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 2;
    cfg.regionLen = 500;
    cfg.regionWarmup = 100;
    const AggregateResult sampled = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(sampled.instructions, 2 * 500u);
    EXPECT_LT(sampled.instructions, trace.size());
    EXPECT_GT(sampled.cpi(), 0.0);
}

TEST(TraceStoreRegions, ExactFitBudgetAndSingleRegionAreAccepted)
{
    // k * (warmup + len) == n is the largest legal budget; with one
    // region the span may cover the whole store.
    const Trace trace = smallTrace("gzip", 4000, 3);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 900;
    cfg.regionWarmup = 100;
    const AggregateResult tight = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(tight.instructions, 4 * 900u);

    cfg.regions = 1;
    cfg.regionLen = trace.size() - 100;
    const AggregateResult whole = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(whole.instructions, trace.size() - 100);
}

TEST(TraceStoreRegionsDeath, RegionBudgetExceedingStoreIsFatal)
{
    // 4 x (200 + 1900) = 8400 > 8000: evenly spaced starts at stride
    // 2000 would overlap every adjacent region and double-count the
    // overlap in the merged phases. Must be a clean fatal, not a
    // silent wrong answer. The second pair sums to 2^64, which wraps
    // to 0 in a naive warmup + len check.
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();
    const std::pair<std::uint64_t, std::uint64_t> pairs[] = {
        {200, 1900}, {UINT64_MAX, 1}};
    for (const auto &[warmup, len] : pairs) {
        ExperimentConfig cfg;
        cfg.instructions = trace.size();
        cfg.regions = 4;
        cfg.regionLen = len;
        cfg.regionWarmup = warmup;
        EXPECT_EXIT(runRegionSampledCell(soa,
                                         MachineConfig::clustered(4),
                                         PolicyKind::Focused, cfg),
                    ::testing::ExitedWithCode(1),
                    "fatal: region sampling: .*exceed")
            << warmup << " + " << len;
    }
}

TEST(TraceStoreRegionsDeath, RegionCountExceedingStoreIsFatal)
{
    const Trace trace = smallTrace("vpr", 300, 2);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = trace.size() + 1;
    cfg.regionLen = 1;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: region count .*out of range");
}

TEST(TraceStoreRegionsDeath, ZeroRegionLenIsFatal)
{
    const Trace trace = smallTrace("vpr", 300, 2);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 2;
    cfg.regionLen = 0;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: region length");
}

// ---------------------------------------------------------------- //
// Corrupt / hostile store files

// Byte-level builder for hand-crafted hostile stores. The layout
// constants mirror the static_asserts pinning the v2 format in
// trace_store.cc: 240-byte header, flags at byte 40, {offset, bytes}
// column descriptor pairs starting at byte 48.
struct CraftedStore
{
    std::vector<std::uint8_t> bytes;

    CraftedStore(std::size_t fileBytes, std::uint64_t count)
        : bytes(fileBytes, 0)
    {
        std::memcpy(bytes.data(), "csimtrc2", 8);
        put32(8, 2);            // version
        put32(12, 0x01020304u); // endian tag
        put64(16, count);       // count
        put64(24, count);       // capacity
        put64(32, 0);           // producer links
        put32(40, 0);           // flags: none
        put32(44, 12);          // column count
    }

    void
    put32(std::size_t off, std::uint32_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    put64(std::size_t off, std::uint64_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    col(std::size_t c, std::uint64_t offset, std::uint64_t size)
    {
        put64(48 + 16 * c, offset);
        put64(48 + 16 * c + 8, size);
    }

    std::string
    write(const char *tag) const
    {
        const std::string path = tempPath(tag);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
        return path;
    }
};

TEST(TraceStoreCorruption, ColumnExtentOverflowIsRejected)
{
    // Every column's byte count is count * element size modulo 2^64
    // with count = 2^64 - 8, and every column starts 8 bytes before
    // the end of a one-page file, so offset + bytes wraps past 2^64 to
    // a value inside the file for all twelve columns. A naive extent
    // check passes them all and the loader hands out a view of
    // 2^64 - 8 rows over one page; the overflow-safe check must
    // reject the file instead.
    const std::uint64_t count = ~std::uint64_t{0} - 7;
    CraftedStore f(4096, count);
    for (std::size_t c = 0; c < 12; ++c)
        f.col(c, 4088, count * (c < 5 ? 8 : 1));

    const std::string path = f.write("extentwrap");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceStoreCorruption, UnknownHeaderFlagIsBadVersion)
{
    // No flag bit is defined. Bit 0 once marked LEB128-encoded wide
    // columns, which this loader cannot map; a store carrying it, or
    // any other bit, must be refused as a foreign format rather than
    // mapped as raw columns.
    const Trace original = smallTrace("vpr", 200, 1);
    for (const std::uint32_t flag : {1u << 0, 1u << 1, 1u << 31}) {
        SCOPED_TRACE(flag);
        const std::string path = tempPath("flagged");
        ASSERT_TRUE(saveTraceStore(original, path));
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&flag, sizeof(flag), 1, f), 1u);
        std::fclose(f);
        TraceSoA soa;
        EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadVersion);
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------- //
// Tampered producer links: the loader checks the header, not the
// rows, so the consumers of loaded rows must

/** The two tampered links: forward, and far out of range. */
constexpr InstId tamperedLinks[] = {150, InstId{1} << 40};
constexpr std::uint64_t tamperedRow = 100;

/**
 * Overwrite row `row`'s slot-0 producer link in a store file. Column
 * 2 is the slot-0 producer column; its {offset, bytes} descriptor
 * sits at header byte 48 + 16 * 2 (see CraftedStore).
 */
void
tamperProducerLink(const std::string &path, std::uint64_t row,
                   InstId link)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::uint64_t offset = 0;
    ASSERT_EQ(std::fseek(f, 48 + 16 * 2, SEEK_SET), 0);
    ASSERT_EQ(std::fread(&offset, sizeof(offset), 1, f), 1u);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset + 8 * row),
                         SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&link, sizeof(link), 1, f), 1u);
    std::fclose(f);
}

TEST(TraceStoreTamperDeathTest, RegionWithTamperedLinkIsFatal)
{
    const Trace original = smallTrace("gzip", 4000, 1);
    for (const InstId link : tamperedLinks) {
        SCOPED_TRACE(link);
        const std::string path = tempPath("tamperregion");
        ASSERT_TRUE(saveTraceStore(original, path));
        tamperProducerLink(path, tamperedRow, link);
        TraceSoA soa;
        ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);

        // Two regions of 500 warmup + 1000 measured rows each, 2000
        // rows apart: region 0 spans rows [0, 1500) and holds row 100.
        ExperimentConfig cfg;
        cfg.regions = 2;
        cfg.regionLen = 1000;
        cfg.regionWarmup = 500;
        EXPECT_EXIT(runRegionSampledCell(soa,
                                         MachineConfig::clustered(4),
                                         PolicyKind::FocusedLocStall,
                                         cfg),
                    ::testing::ExitedWithCode(1),
                    "fatal: region sampling: region 0 \\(rows \\[0, "
                    "1500\\)\\) is not a well-formed trace");
        std::remove(path.c_str());
    }
}

} // anonymous namespace
} // namespace csim
