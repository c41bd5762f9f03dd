/**
 * @file
 * Tests for the columnar v2 trace store: round-trip fidelity (raw and
 * compressed), streaming-writer equivalence, region extraction, the
 * column-view simulation path, phased runs, region-sampling
 * determinism, crafted hostile files, and tampered producer links
 * reaching region sampling and the trace cache's spill rehydrate.
 * Load-error reporting and Trace::wellFormed() are tested separately.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/timing_sim.hh"
#include "harness/experiment.hh"
#include "harness/trace_cache.hh"
#include "obs/run_ledger.hh"
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
    EXPECT_FALSE(info.compressed);
    // Uncompressed loads are zero-copy: the whole file stays mapped.
    EXPECT_EQ(info.mappedBytes, info.fileBytes);
    EXPECT_EQ(soa.producerLinks(),
              TraceSoA(original).producerLinks());
    std::remove(path.c_str());
}

TEST(TraceStore, CompressedRoundTripPreservesEverything)
{
    const Trace original = smallTrace();
    const std::string raw_path = tempPath("zraw");
    const std::string z_path = tempPath("zcomp");
    ASSERT_TRUE(saveTraceStore(original, raw_path));
    TraceStoreOptions opts;
    opts.compressWide = true;
    ASSERT_TRUE(saveTraceStore(original, z_path, opts));

    TraceSoA raw, z;
    TraceStoreInfo raw_info, z_info;
    ASSERT_EQ(loadTraceStore(raw, raw_path, &raw_info),
              TraceIoStatus::Ok);
    ASSERT_EQ(loadTraceStore(z, z_path, &z_info), TraceIoStatus::Ok);
    expectViewMatchesTrace(z, original);
    EXPECT_TRUE(z_info.compressed);
    // Compressed stores decode into an owned arena, nothing mapped.
    EXPECT_EQ(z_info.mappedBytes, 0u);
    // The wide columns (pc deltas, sentinel-heavy producer links)
    // are what LEB128 targets; the file must actually shrink.
    EXPECT_LT(z_info.fileBytes, raw_info.fileBytes);
    std::remove(raw_path.c_str());
    std::remove(z_path.c_str());
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
    const TraceSoA soa(original);

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
    const TraceSoA soa(original);
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
    // The mmap-backed view has no AoS trace behind it at all:
    // record() reassembles rows from the mapped columns on demand.
    const SimResult b = TimingSim(mc, soa, s2, age).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.globalValues, b.globalValues);
    EXPECT_EQ(a.steerStallCycles, b.steerStallCycles);
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
    const TraceSoA soa(trace);

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
    const TraceSoA soa(trace);
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
    const TraceSoA soa(trace);
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
    // silent wrong answer.
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa(trace);
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 1900;
    cfg.regionWarmup = 200;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: .*exceed");
}

TEST(TraceStoreRegionsDeath, RegionCountExceedingStoreIsFatal)
{
    const Trace trace = smallTrace("vpr", 300, 2);
    const TraceSoA soa(trace);
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
    const TraceSoA soa(trace);
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

// Byte-level builder for hand-crafted hostile compressed stores. The
// layout constants mirror the static_asserts pinning the v2 format in
// trace_store.cc: 240-byte header, {offset, bytes} column descriptor
// pairs starting at byte 48.
struct CraftedStore
{
    std::vector<std::uint8_t> bytes;

    explicit CraftedStore(std::size_t fileBytes)
        : bytes(fileBytes, 0)
    {
        std::memcpy(bytes.data(), "csimtrc2", 8);
        put32(8, 2);            // version
        put32(12, 0x01020304u); // endian tag
        put64(16, 1);           // count
        put64(24, 1);           // capacity
        put64(32, 0);           // producer links
        put32(40, 1);           // flags: wide columns compressed
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

TEST(TraceStoreCorruption, OverlongVarintIsRejected)
{
    // col0 (pc) holds a 10-byte varint whose final byte encodes
    // payload bits beyond 2^64. An unchecked decoder shifts those
    // bits out of the accumulator and accepts a silently wrong
    // value; the loader must reject the file instead.
    CraftedStore f(344);
    f.col(0, 240, 10);
    for (int i = 0; i < 9; ++i)
        f.bytes[240 + i] = 0xff;
    f.bytes[249] = 0x7f; // terminator carrying bits past the 64th
    std::uint64_t off = 256;
    for (std::size_t c = 1; c < 12; ++c, off += 8)
        f.col(c, off, 1); // zero bytes: valid varints / raw values

    const std::string path = f.write("overlongvarint");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceStoreCorruption, ColumnExtentOverflowIsRejected)
{
    // col0's byte count is chosen so offset + bytes wraps past 2^64
    // to a small value: a naive extent check passes and the decoder
    // walks off the end of the mapping. The file is exactly one page
    // so the overrun genuinely leaves the mapped range (continuation
    // bytes run right up to the last file byte). Without the
    // overflow-safe check the failure is an out-of-bounds read /
    // pointer overflow, caught deterministically by the ASan+UBSan
    // CI configuration.
    CraftedStore f(4096);
    f.col(0, 4088, ~std::uint64_t{0} - 4080); // 4088 + bytes == 8
    for (int i = 0; i < 8; ++i)
        f.bytes[4088 + i] = 0xff;
    std::uint64_t off = 240;
    for (std::size_t c = 1; c < 12; ++c, off += 8)
        f.col(c, off, 1);

    const std::string path = f.write("extentwrap");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceStoreCorruption, TruncatedVarintAtColumnEndIsRejected)
{
    // A continuation bit on the last byte of the column promises more
    // bytes than the column holds.
    CraftedStore f(344);
    f.col(0, 240, 1);
    f.bytes[240] = 0x80;
    std::uint64_t off = 248;
    for (std::size_t c = 1; c < 12; ++c, off += 8)
        f.col(c, off, 1);

    const std::string path = f.write("truncvarint");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Tampered producer links: the loader checks the header, not the
// rows, so the consumers of loaded rows must

/** The two tampered links: forward, and far out of range. */
constexpr InstId tamperedLinks[] = {150, InstId{1} << 40};
constexpr std::uint64_t tamperedRow = 100;

/**
 * Overwrite row `row`'s slot-0 producer link in an uncompressed store
 * file. Column 2 is the slot-0 producer column; its {offset, bytes}
 * descriptor sits at header byte 48 + 16 * 2 (see CraftedStore).
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

TEST(TraceStoreTamper, TamperedSpillFileIsRebuilt)
{
    WorkloadConfig wa;
    wa.targetInstructions = 4000;
    wa.seed = 1;
    WorkloadConfig wb = wa;
    wb.seed = 2;
    TraceCache probe;
    (void)probe.get("gzip", wa);
    const std::size_t one = probe.bytesHeld();
    ASSERT_GT(one, 0u);

    ExperimentConfig cfg;
    cfg.seeds = {1};
    const MachineConfig machine = MachineConfig::clustered(4);
    const Trace fresh = buildAnnotatedTrace("gzip", wa);
    const AggregateResult expected = runPolicyCell(
        fresh, machine, PolicyKind::FocusedLocStall, cfg);

    for (const InstId link : tamperedLinks) {
        SCOPED_TRACE(link);
        const std::filesystem::path dir =
            std::filesystem::path(::testing::TempDir()) /
            ("csim_spill_tamper_" + std::to_string(link));
        std::filesystem::remove_all(dir);
        ASSERT_TRUE(std::filesystem::create_directories(dir));

        // A one-trace budget: the second get evicts (spills) the
        // first, leaving exactly one store file in the directory.
        TraceCache cache(one, dir.string());
        (void)cache.get("gzip", wa);
        (void)cache.get("gzip", wb);
        std::vector<std::filesystem::path> spills;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            spills.push_back(entry.path());
        ASSERT_EQ(spills.size(), 1u);
        tamperProducerLink(spills.front().string(), tamperedRow, link);

        // The miss on the spilled key finds a corrupt store and takes
        // the unreadable-spill path: a fresh build, not an mmap load.
        const std::shared_ptr<const Trace> rebuilt = cache.get("gzip", wa);
        const StatsSnapshot snap = cache.statsSnapshot();
        EXPECT_EQ(snap.value("traceCache.builds"), 3.0);
        EXPECT_EQ(snap.value("traceCache.mmap.loads"), 0.0);
        ASSERT_TRUE(rebuilt->wellFormed());

        const AggregateResult got = runPolicyCell(
            *rebuilt, machine, PolicyKind::FocusedLocStall, cfg);
        EXPECT_EQ(got.cycles, expected.cycles);
        EXPECT_EQ(statsDigest(got.stats), statsDigest(expected.stats));
        std::filesystem::remove_all(dir);
    }
}

} // anonymous namespace
} // namespace csim
