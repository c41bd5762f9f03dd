/**
 * @file
 * Unit tests for the cache model and the load-latency annotation pass.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "emu/emulator.hh"
#include "mem/cache.hh"
#include "mem/latency_annotator.hh"

namespace csim {
namespace {

const auto r = Program::r;

TEST(Cache, FirstAccessMissesThenHits)
{
    Cache c;
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f));  // same 64B line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache c;
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x1000);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // Tiny cache: 2 sets x 2 ways x 64B lines = 256B.
    Cache c(CacheConfig{256, 2, 64});
    // Three lines mapping to set 0: line addresses stride 128.
    c.access(0x0000);
    c.access(0x0080);
    c.access(0x0000);   // touch A so B becomes LRU
    c.access(0x0100);   // evicts B
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0080));
    EXPECT_TRUE(c.probe(0x0100));
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(CacheConfig{32 * 1024, 4, 64});
    const unsigned sets = c.numSets();
    // 4 lines in the same set: all should fit in a 4-way cache.
    for (int i = 0; i < 4; ++i)
        c.access(static_cast<Addr>(i) * sets * 64);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(static_cast<Addr>(i) * sets * 64));
    // The fifth evicts the oldest.
    c.access(Addr{4} * sets * 64);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, PaperL1Geometry)
{
    Cache c;  // default: 32KB 4-way 64B
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.config().sizeBytes, 32u * 1024);
}

class CacheGeometry : public ::testing::TestWithParam<
                          std::tuple<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometry, WorkingSetBehaviour)
{
    const auto [size, assoc] = GetParam();
    Cache c(CacheConfig{size, assoc, 64});

    // Sequential working set half the cache size: after warmup,
    // everything hits.
    const Addr span = size / 2;
    for (Addr a = 0; a < span; a += 64)
        c.access(a);
    std::uint64_t misses_before = c.stats().misses;
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < span; a += 64)
            c.access(a);
    EXPECT_EQ(c.stats().misses, misses_before);

    // Working set 4x the cache: sequential sweep thrashes with LRU.
    Cache big(CacheConfig{size, assoc, 64});
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 4 * size; a += 64)
            big.access(a);
    EXPECT_GT(big.stats().missRate(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(std::uint64_t{4096}, 1u),
                      std::make_tuple(std::uint64_t{8192}, 2u),
                      std::make_tuple(std::uint64_t{32768}, 4u),
                      std::make_tuple(std::uint64_t{65536}, 8u)));

TEST(LatencyAnnotator, HitAndMissLatencies)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(2), r(1), 0);            // cold: miss
    p.ld(r(3), r(1), 0);            // hit
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(100);
    t.linkProducers();
    MemAnnotateResult res = annotateMemory(t);

    EXPECT_TRUE(t[1].l1Miss);
    EXPECT_EQ(t[1].execLat, 23u);   // 3 + 20-cycle L2
    EXPECT_FALSE(t[2].l1Miss);
    EXPECT_EQ(t[2].execLat, 3u);    // load-to-use
    EXPECT_EQ(res.loadMisses, 1u);
}

TEST(LatencyAnnotator, StoresAllocate)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 5);
    p.st(r(2), r(1), 0);            // miss, allocates
    p.ld(r(3), r(1), 0);            // hits thanks to the store
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(100);
    t.linkProducers();
    annotateMemory(t);
    EXPECT_FALSE(t[3].l1Miss);
    EXPECT_EQ(t[3].execLat, 3u);
}

TEST(LatencyAnnotator, NonMemOpsUntouched)
{
    Program p;
    p.add(r(1), r(2), r(3));
    p.halt();
    p.finalize();
    Emulator emu(p);
    Trace t = emu.run(100);
    annotateMemory(t);
    EXPECT_EQ(t[0].execLat, 1u);
}

} // anonymous namespace
} // namespace csim
