/**
 * @file
 * Workload proxy tests: every benchmark builds, is deterministic per
 * seed, varies across seeds, and exhibits the instruction-mix and
 * branch/cache character its SPECint counterpart is known for.
 */

#include <gtest/gtest.h>

#include "workloads/registry.hh"

namespace csim {
namespace {

class EveryWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryWorkload, BuildsToExactLength)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 12000;
    cfg.seed = 1;
    Trace t = buildAnnotatedTrace(GetParam(), cfg);
    EXPECT_EQ(t.size(), 12000u);
}

TEST_P(EveryWorkload, DeterministicPerSeed)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 4000;
    cfg.seed = 11;
    Trace a = buildAnnotatedTrace(GetParam(), cfg);
    Trace b = buildAnnotatedTrace(GetParam(), cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << i;
        ASSERT_EQ(a[i].memAddr, b[i].memAddr) << i;
        ASSERT_EQ(a[i].mispredicted, b[i].mispredicted) << i;
    }
}

TEST_P(EveryWorkload, SeedsChangeBehaviour)
{
    WorkloadConfig a_cfg;
    a_cfg.targetInstructions = 6000;
    a_cfg.seed = 1;
    WorkloadConfig b_cfg = a_cfg;
    b_cfg.seed = 2;
    Trace a = buildAnnotatedTrace(GetParam(), a_cfg);
    Trace b = buildAnnotatedTrace(GetParam(), b_cfg);
    // Data-dependent control flow must differ somewhere.
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].pc != b[i].pc || a[i].memAddr != b[i].memAddr;
    EXPECT_TRUE(differs);
}

TEST_P(EveryWorkload, SaneInstructionMix)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 3;
    Trace t = buildAnnotatedTrace(GetParam(), cfg);
    TraceStats s = t.stats();

    const double branches = static_cast<double>(s.branches) /
        static_cast<double>(s.instructions);
    const double loads = static_cast<double>(s.loads) /
        static_cast<double>(s.instructions);
    const double stores = static_cast<double>(s.stores) /
        static_cast<double>(s.instructions);

    EXPECT_GT(branches, 0.03);
    EXPECT_LT(branches, 0.45);
    EXPECT_GT(loads, 0.04);
    EXPECT_LT(loads, 0.50);
    EXPECT_LT(stores, 0.30);
    // SPECint-plausible misprediction rates: not perfect, not chaos.
    EXPECT_LT(s.mispredictRate(), 0.35);
}

TEST_P(EveryWorkload, ProducersLinked)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 5000;
    cfg.seed = 1;
    Trace t = buildAnnotatedTrace(GetParam(), cfg);
    std::uint64_t linked = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = t[i].prod[slot];
            if (p != invalidInstId) {
                ASSERT_LT(p, i);  // producers strictly older
                ++linked;
            }
        }
    }
    // Real programs have dense dataflow.
    EXPECT_GT(linked, t.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryWorkload,
                         ::testing::ValuesIn(workloadNames()));

TEST(WorkloadCharacter, McfIsMemoryBound)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 1;
    TraceStats s = buildAnnotatedTrace("mcf", cfg).stats();
    EXPECT_GT(s.l1MissRate(), 0.5);
}

TEST(WorkloadCharacter, VortexHitsInL1)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 1;
    TraceStats s = buildAnnotatedTrace("vortex", cfg).stats();
    EXPECT_LT(s.l1MissRate(), 0.1);
}

TEST(WorkloadCharacter, EonUsesFloatingPoint)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 1;
    TraceStats s = buildAnnotatedTrace("eon", cfg).stats();
    EXPECT_GT(s.fpOps, 20000u / 10);
}

TEST(WorkloadCharacter, GccHasLargeStaticFootprint)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 1;
    Trace t = buildAnnotatedTrace("gcc", cfg);
    std::set<Addr> pcs;
    for (std::size_t i = 0; i < t.size(); ++i)
        pcs.insert(t[i].pc);
    std::set<Addr> vpr_pcs;
    Trace v = buildAnnotatedTrace("vpr", cfg);
    for (std::size_t i = 0; i < v.size(); ++i)
        vpr_pcs.insert(v[i].pc);
    EXPECT_GT(pcs.size(), 5 * vpr_pcs.size() / 2);
}

TEST(WorkloadCharacter, PerlMispredictsMoreThanVortex)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 30000;
    cfg.seed = 1;
    TraceStats perl = buildAnnotatedTrace("perl", cfg).stats();
    TraceStats vortex = buildAnnotatedTrace("vortex", cfg).stats();
    EXPECT_GT(perl.mispredictRate(), vortex.mispredictRate());
}

TEST(WorkloadRegistry, TwelveBenchmarks)
{
    EXPECT_EQ(workloadNames().size(), 12u);
    for (const std::string &n : workloadNames())
        EXPECT_NE(workloadPreparer(n), nullptr);
}

TEST(WorkloadRegistryDeath, UnknownNameFatals)
{
    EXPECT_EXIT(workloadPreparer("quake3"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

} // anonymous namespace
} // namespace csim
