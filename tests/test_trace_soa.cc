/**
 * @file
 * Tests for the structure-of-arrays trace view and the timing core
 * that consumes it: AoS <-> SoA round-trips over every registered
 * workload, footprint accounting, and exact timing on synthetic
 * sparse traces where the machine sits idle between wakeups.
 */

#include <gtest/gtest.h>

#include "trace/trace_soa.hh"

#include "core/timing_sim.hh"
#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "mem/latency_annotator.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "sim_checks.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;

void
expectRecordEq(const TraceRecord &a, const TraceRecord &b,
               std::size_t i)
{
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.src2, b.src2);
    EXPECT_EQ(a.memAddr, b.memAddr);
    for (int s = 0; s < numSrcSlots; ++s)
        EXPECT_EQ(a.prod[s], b.prod[s]) << "slot " << s;
    EXPECT_EQ(a.execLat, b.execLat);
    EXPECT_EQ(a.isBranch, b.isBranch);
    EXPECT_EQ(a.isCondBranch, b.isCondBranch);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Miss, b.l1Miss);
}

void
expectStatsEq(const TraceStats &a, const TraceStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.fpOps, b.fpOps);
}

TEST(TraceSoA, RoundTripsEveryRegisteredWorkload)
{
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 2000;
        wcfg.seed = 1;
        const Trace trace = buildAnnotatedTrace(name, wcfg);
        ASSERT_TRUE(trace.wellFormed());

        const TraceSoA &soa = trace.soa();
        ASSERT_EQ(soa.size(), trace.size());

        std::uint64_t links = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            // Per-field columns and the reassembled record agree with
            // the AoS source.
            expectRecordEq(soa.record(i), trace[i], i);
            EXPECT_EQ(soa.pc()[i], trace[i].pc);
            EXPECT_EQ(soa.cls()[i], trace[i].cls);
            EXPECT_EQ(soa.execLat()[i], trace[i].execLat);
            EXPECT_EQ(soa.hasDest(i), trace[i].hasDest());
            EXPECT_EQ(soa.isLoad(i), trace[i].isLoad());
            EXPECT_EQ(soa.isStore(i), trace[i].isStore());
            EXPECT_EQ(soa.isBranch(i), trace[i].isBranch);
            EXPECT_EQ(soa.mispredicted(i), trace[i].mispredicted);
            EXPECT_EQ(soa.l1Miss(i), trace[i].l1Miss);
            for (int s = 0; s < numSrcSlots; ++s) {
                EXPECT_EQ(soa.prod(s)[i], trace[i].prod[s]);
                if (trace[i].prod[s] != invalidInstId)
                    ++links;
            }
        }
        EXPECT_EQ(soa.producerLinks(), links);

        // Whole-trace round trip preserves every record and the
        // aggregate statistics.
        const Trace back = soa.toTrace();
        ASSERT_EQ(back.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            expectRecordEq(back[i], trace[i], i);
        expectStatsEq(soa.stats(), trace.stats());
        expectStatsEq(back.stats(), trace.stats());
    }
}

TEST(TraceSoA, FootprintCountsRecordsAndArena)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 1000;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace(workloadNames().front(), wcfg);

    const std::size_t aos_bytes =
        trace.size() * sizeof(TraceRecord);
    EXPECT_EQ(trace.footprintBytes(), aos_bytes);

    const TraceSoA &soa = trace.soa();
    EXPECT_GT(soa.arenaBytes(), 0u);
    EXPECT_EQ(trace.footprintBytes(), aos_bytes + soa.arenaBytes());

    // Mutation drops the cached view (and its bytes) again.
    trace[0].execLat = trace[0].execLat;
    EXPECT_EQ(trace.footprintBytes(), aos_bytes);
}

/** A serial dependence chain of uniformly long-latency instructions:
 *  between one completion and the next wakeup the machine is fully
 *  idle for lat - 1 cycles. */
Trace
sparseSerialChain(unsigned length, std::uint8_t lat)
{
    Program p;
    for (unsigned i = 0; i < length; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Emulator emu(p);
    Trace t = emu.run(100000);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i].execLat = lat;
    return t;
}

/** Simulate the chain and check every invariant plus the cycle count. */
void
checkSparseChain(const Trace &trace, const MachineConfig &config,
                 Cycle expected_cycles)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling sched;
    const SimResult res =
        TimingSim(config, trace, steer, sched).run();
    validateTiming(trace, res, config);
    EXPECT_EQ(res.instructions, trace.size());
    EXPECT_EQ(res.cycles, expected_cycles);
}

TEST(SparseChain, MonolithicCycleCount)
{
    // 200 x 20 cycles of serial execution plus front-end fill and
    // the final commit.
    const Trace trace = sparseSerialChain(200, 20);
    checkSparseChain(trace, MachineConfig::monolithic(), 4016);
}

TEST(SparseChain, ClusteredCycleCount)
{
    const Trace trace = sparseSerialChain(200, 20);
    checkSparseChain(trace, MachineConfig::clustered(4), 4028);
}

TEST(SparseChain, MaxLatencyChainCycleCount)
{
    // The widest idle gap a single dependence edge can produce.
    const Trace trace = sparseSerialChain(64, 255);
    checkSparseChain(trace, MachineConfig::clustered(8), 16342);
}

} // anonymous namespace
} // namespace csim
