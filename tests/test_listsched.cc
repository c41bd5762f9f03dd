/**
 * @file
 * Tests for region splitting and the idealized list scheduler:
 * legality lower bounds, resource limits, locality behaviour and the
 * relationship to the real machine.
 */

#include <gtest/gtest.h>

#include "core/timing_sim.hh"
#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "critpath/attribution.hh"
#include "listsched/list_scheduler.hh"
#include "mem/latency_annotator.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;

Trace
prepare(const Program &p)
{
    Emulator emu(p);
    Trace t = emu.run(100000);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

SimResult
refRun(const Trace &t)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    return TimingSim(MachineConfig::monolithic(), t, steer, age).run();
}

TEST(Regions, SplitAtMispredictsAndCap)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 100);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    // Force a mispredict at instruction 22 (a bne: the trace is lui
    // followed by addi/bne pairs).
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        rec.mispredicted = i == 22;
        t.set(i, rec);
    }
    ASSERT_TRUE(t[22].isCondBranch);

    std::vector<Region> regions = splitRegions(t, 64);
    // Coverage: disjoint, ordered, complete.
    std::uint64_t expect_begin = 0;
    for (const Region &reg : regions) {
        EXPECT_EQ(reg.begin, expect_begin);
        EXPECT_GT(reg.end, reg.begin);
        EXPECT_LE(reg.end - reg.begin, 64u);
        expect_begin = reg.end;
    }
    EXPECT_EQ(expect_begin, t.size());
    // First region ends right after the mispredicted branch.
    EXPECT_EQ(regions[0].end, 23u);
    EXPECT_TRUE(regions[0].endsWithMispredict);
}

TEST(Regions, CapOnly)
{
    Program p;
    for (int i = 0; i < 100; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    std::vector<Region> regions = splitRegions(t, 32);
    EXPECT_EQ(regions.size(), (t.size() + 31) / 32);
    for (std::size_t i = 0; i + 1 < regions.size(); ++i)
        EXPECT_FALSE(regions[i].endsWithMispredict);
}

TEST(ListSched, RegionsAreBoundedByTheMachinesRob)
{
    // No mispredicts: only the scope cap splits the trace, and the
    // cap is the target machine's ROB.
    Program p;
    for (int i = 0; i < 1000; ++i)
        p.addi(r(1 + i % 8), r(1 + i % 8), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult ref = refRun(t);

    MachineConfig small_rob = MachineConfig::monolithic();
    small_rob.robEntries = 64;
    ListSchedResult res = listSchedule(t, ref.timing, small_rob);
    EXPECT_GE(res.regions, (t.size() + 63) / 64);
    EXPECT_EQ(res.instructions, t.size());
}

TEST(ListSched, SerialChainBoundedByDataflow)
{
    Program p;
    for (int i = 0; i < 256; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult ref = refRun(t);

    ListSchedResult res = listSchedule(
        t, ref.timing, MachineConfig::monolithic());
    // A 256-deep chain of 1-cycle ops cannot beat 256 cycles.
    EXPECT_GE(res.cycles, 256u);
    // And the ideal schedule is not worse than the real machine.
    EXPECT_LE(res.cycles, ref.cycles + 8);
}

TEST(ListSched, ThroughputBoundRespected)
{
    Program p;
    for (int i = 0; i < 64; ++i)
        for (int j = 1; j <= 8; ++j)
            p.addi(r(j), r(j), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult ref = refRun(t);

    ListSchedResult res = listSchedule(
        t, ref.timing, MachineConfig::monolithic());
    // 512 instructions on an 8-wide machine need >= 64 cycles.
    EXPECT_GE(res.cycles, 64u);
}

TEST(ListSched, KeepsChainLocalOnClusters)
{
    Program p;
    for (int i = 0; i < 200; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult ref = refRun(t);

    ListSchedResult mono = listSchedule(
        t, ref.timing, MachineConfig::monolithic());
    ListSchedResult clus = listSchedule(
        t, ref.timing, MachineConfig::clustered(8));
    // The ideal scheduler collocates the chain: almost no penalty
    // and no global traffic along the chain.
    EXPECT_LE(clus.cycles, mono.cycles + 16);
    EXPECT_LE(clus.globalValues, 10u);
}

TEST(ListSched, ClusteredNeverBeatsMonolithicIdeal)
{
    for (const char *wl : {"vpr", "gzip", "vortex"}) {
        SCOPED_TRACE(wl);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 8000;
        wcfg.seed = 4;
        Trace t = buildAnnotatedTrace(wl, wcfg);
        SimResult ref = refRun(t);

        ListSchedResult mono = listSchedule(
            t, ref.timing, MachineConfig::monolithic());
        for (unsigned n : {2u, 4u, 8u}) {
            SCOPED_TRACE(n);
            ListSchedResult clus = listSchedule(
                t, ref.timing, MachineConfig::clustered(n));
            EXPECT_GE(clus.cycles + 2, mono.cycles);
        }
    }
}

TEST(ListSched, IdealNotSlowerThanMachine)
{
    // The whole point of Sec. 2.2: schedules exist that rival the
    // monolithic machine. Allow a little slack for the conservative
    // region-split accounting.
    for (const char *wl : {"gcc", "perl"}) {
        SCOPED_TRACE(wl);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 10000;
        wcfg.seed = 6;
        Trace t = buildAnnotatedTrace(wl, wcfg);
        SimResult ref = refRun(t);
        ListSchedResult ideal = listSchedule(
            t, ref.timing, MachineConfig::clustered(4));
        EXPECT_LT(ideal.cycles,
                  static_cast<Cycle>(1.10 *
                                     static_cast<double>(ref.cycles)));
    }
}

TEST(ListSched, MispredictRedirectSerializesRegions)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 50);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    // All iterations mispredict: every 2-instruction region pays the
    // redirect.
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        if (rec.isCondBranch) {
            rec.mispredicted = true;
            t.set(i, rec);
        }
    }
    SimResult ref = refRun(t);

    ListSchedResult res = listSchedule(
        t, ref.timing, MachineConfig::monolithic());
    const MachineConfig mc = MachineConfig::monolithic();
    // 50 regions x (redirect + refill) is the floor.
    EXPECT_GE(res.cycles, 50u * (mc.frontendDepth + 1));
}

TEST(ListSched, EmptyTrace)
{
    Trace t;
    std::vector<InstTiming> timing;
    ListSchedResult res = listSchedule(
        t, timing, MachineConfig::monolithic());
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.instructions, 0u);
}

TEST(ListSched, PriorityVariantsRunAndOrderSanely)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 8000;
    wcfg.seed = 9;
    Trace t = buildAnnotatedTrace("gzip", wcfg);
    SimResult ref = refRun(t);

    CriticalityPredictor crit;
    LocPredictor loc;
    OnlineCriticalityTrainer trainer(t, &crit, &loc, 2048);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    TimingSim train(MachineConfig::monolithic(), t, steer, age,
                    &trainer);
    (void)train.run();

    ListSchedOptions oracle;
    ListSchedOptions with_loc;
    with_loc.priority = ListSchedOptions::Priority::Loc;
    with_loc.locPred = &loc;
    ListSchedOptions binary;
    binary.priority = ListSchedOptions::Priority::BinaryCritical;
    binary.critPred = &crit;

    MachineConfig mc = MachineConfig::clustered(8);
    const Cycle c_oracle =
        listSchedule(t, ref.timing, mc, oracle).cycles;
    const Cycle c_loc =
        listSchedule(t, ref.timing, mc, with_loc).cycles;
    const Cycle c_bin =
        listSchedule(t, ref.timing, mc, binary).cycles;

    // Degrading priority knowledge cannot make things much better
    // than the oracle (tolerance for tie-break luck).
    EXPECT_GE(static_cast<double>(c_loc),
              0.98 * static_cast<double>(c_oracle));
    EXPECT_GE(static_cast<double>(c_bin),
              0.98 * static_cast<double>(c_oracle));
}

} // anonymous namespace
} // namespace csim
