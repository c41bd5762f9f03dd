/**
 * @file
 * Tests for the column trace and its read-only view, and the timing
 * core that consumes it: record round-trips over every registered
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
        const Trace built = buildAnnotatedTrace(name, wcfg);
        ASSERT_TRUE(built.wellFormed());

        // Records appended one by one read back field for field, from
        // the trace and from its column view.
        std::vector<TraceRecord> records;
        Trace trace;
        for (std::size_t i = 0; i < built.size(); ++i) {
            records.push_back(built[i]);
            trace.append(built[i]);
        }
        const TraceSoA soa = trace.soa();
        ASSERT_EQ(trace.size(), records.size());
        ASSERT_EQ(soa.size(), records.size());

        std::uint64_t links = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const TraceRecord &rec = records[i];
            expectRecordEq(trace[i], rec, i);
            expectRecordEq(soa.record(i), rec, i);
            EXPECT_EQ(soa.pc()[i], rec.pc);
            EXPECT_EQ(soa.cls()[i], rec.cls);
            EXPECT_EQ(soa.execLat()[i], rec.execLat);
            EXPECT_EQ(soa.hasDest(i), rec.hasDest());
            EXPECT_EQ(soa.isLoad(i), rec.isLoad());
            EXPECT_EQ(soa.isStore(i), rec.isStore());
            EXPECT_EQ(soa.isBranch(i), rec.isBranch);
            EXPECT_EQ(soa.mispredicted(i), rec.mispredicted);
            EXPECT_EQ(soa.l1Miss(i), rec.l1Miss);
            for (int s = 0; s < numSrcSlots; ++s) {
                EXPECT_EQ(soa.prod(s)[i], rec.prod[s]);
                if (rec.prod[s] != invalidInstId)
                    ++links;
            }
        }
        EXPECT_GT(links, 0u);
        EXPECT_EQ(soa.producerLinks(), links);
        EXPECT_EQ(built.soa().producerLinks(), links);
        expectStatsEq(trace.stats(), built.stats());

        // set() keeps the link count exact as links come and go.
        Trace edited = trace;
        TraceRecord rec = edited[1];
        const InstId old_link = rec.prod[srcSlot1];
        rec.prod[srcSlot1] = invalidInstId;
        edited.set(1, rec);
        EXPECT_EQ(edited.soa().producerLinks(),
                  links - (old_link != invalidInstId));
        rec.prod[srcSlot1] = 0;
        edited.set(1, rec);
        EXPECT_EQ(edited.soa().producerLinks(),
                  links + (old_link == invalidInstId));
    }
}

TEST(TraceSoA, FootprintIsTheColumnsAndTheViewIsNotACopy)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 1000;
    wcfg.seed = 1;
    const Trace trace = buildAnnotatedTrace(workloadNames().front(), wcfg);
    ASSERT_EQ(trace.size(), 1000u);

    EXPECT_EQ(Trace::rowBytes, 47u);
    EXPECT_EQ(trace.footprintBytes(), 47 * trace.size());

    // The view points at the trace's own columns: two views share
    // every column pointer, and a row read through either is the
    // trace's row.
    const TraceSoA a = trace.soa();
    const TraceSoA b = trace.soa();
    EXPECT_EQ(a.pc().data(), b.pc().data());
    EXPECT_EQ(a.memAddr().data(), b.memAddr().data());
    for (int s = 0; s < numSrcSlots; ++s)
        EXPECT_EQ(a.prod(s).data(), b.prod(s).data());
    EXPECT_EQ(a.op().data(), b.op().data());
    EXPECT_EQ(a.flags().data(), b.flags().data());
    EXPECT_EQ(a.src2().data(), b.src2().data());
    EXPECT_EQ(&a.pc()[7], &b.pc()[7]);
    EXPECT_EQ(a.pc()[7], trace[7].pc);
    // A copy of the trace owns its own columns.
    const Trace copy = trace;
    EXPECT_NE(copy.soa().pc().data(), a.pc().data());
    EXPECT_EQ(copy.footprintBytes(), trace.footprintBytes());
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
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        rec.execLat = lat;
        t.set(i, rec);
    }
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
