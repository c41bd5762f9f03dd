/**
 * @file
 * Tests for trace file load errors and trace validation: missing,
 * foreign, truncated and garbage files must each be reported as such
 * by loadTraceStore(), never misread, and Trace::wellFormed() must
 * catch corrupt producer links, class mismatches and zero latencies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

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
smallTrace(const char *workload, std::uint64_t instructions,
           std::uint64_t seed)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = seed;
    return buildAnnotatedTrace(workload, cfg);
}

TEST(TraceIoV2, V1FileRejectedAsBadVersion)
{
    // The retired v1 AoS format shares the "csimtrc" prefix (its magic
    // is "csimtrc\0"), so the mismatch is reported as a version
    // problem, not garbage.
    const std::string path = tempPath("v1tov2");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char v1_magic[8] = {'c', 's', 'i', 'm', 't', 'r', 'c', '\0'};
    ASSERT_EQ(std::fwrite(v1_magic, 1, sizeof(v1_magic), f),
              sizeof(v1_magic));
    const std::vector<std::uint8_t> body(256, 0);
    ASSERT_EQ(std::fwrite(body.data(), 1, body.size(), f), body.size());
    std::fclose(f);

    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadVersion);
    std::remove(path.c_str());
}

TEST(TraceIoV2, GarbageRejectedAsBadMagic)
{
    const std::string path = tempPath("v2badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 64; ++i)
        std::fputs("definitely not a columnar store ", f);
    std::fclose(f);

    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceIoV2, MissingFile)
{
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, "/nonexistent/dir/x.trc2"),
              TraceIoStatus::CannotOpen);
}

TEST(TraceIoV2, TruncationDetected)
{
    const Trace original = smallTrace("vpr", 400, 2);
    const std::string path = tempPath("v2trunc");
    ASSERT_TRUE(saveTraceStore(original, path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);

    // Chop mid-column: the header promises more data than the file
    // holds.
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);

    // Chop mid-header too.
    ASSERT_EQ(truncate(path.c_str(), 16), 0);
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceIoV2, StatusNames)
{
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::Ok), "ok");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::BadVersion),
                 "bad version");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::BadEndianness),
                 "bad endianness");
}

TEST(TraceWellFormed, DetectsCorruptLinks)
{
    Trace t = smallTrace("vpr", 200, 1);
    ASSERT_TRUE(t.wellFormed());

    // Forward-pointing producer: malformed.
    TraceRecord rec = t[10];
    rec.prod[srcSlot1] = 150;
    t.set(10, rec);
    EXPECT_FALSE(t.wellFormed());
}

TEST(TraceWellFormed, DetectsClassMismatchAndZeroLatency)
{
    const Trace t = smallTrace("vpr", 100, 1);
    Trace t2 = t;
    TraceRecord rec = t[5];
    rec.cls = rec.cls == OpClass::Load ? OpClass::IntAlu : OpClass::Load;
    t2.set(5, rec);
    EXPECT_FALSE(t2.wellFormed());

    Trace t3 = t;
    rec = t[5];
    rec.execLat = 0;
    t3.set(5, rec);
    EXPECT_FALSE(t3.wellFormed());
}

} // anonymous namespace
} // namespace csim
