/**
 * @file
 * Targeted unit tests for the clustered timing simulator: latency,
 * bandwidth, forwarding, fetch and misprediction behaviour on small
 * hand-built programs.
 */

#include <gtest/gtest.h>

#include "core/timing_sim.hh"

#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "mem/latency_annotator.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "sim_checks.hh"

namespace csim {
namespace {

const auto r = Program::r;
const auto f = Program::f;

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
runOn(const Trace &trace, const MachineConfig &config,
      SteeringPolicy &steer)
{
    AgeScheduling age;
    return TimingSim(config, trace, steer, age).run();
}

SimResult
runMono(const Trace &trace)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    return runOn(trace, MachineConfig::monolithic(), steer);
}

TEST(TimingSim, EmptyTrace)
{
    Trace t;
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimResult res =
        TimingSim(MachineConfig::monolithic(), t, steer, age).run();
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.instructions, 0u);
}

TEST(TimingSim, SerialChainIssuesBackToBack)
{
    Program p;
    for (int i = 0; i < 64; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    // Dependent single-cycle adds issue one per cycle.
    for (std::size_t i = 20; i < 60; ++i) {
        EXPECT_EQ(res.timing[i].issue, res.timing[i - 1].issue + 1)
            << "at " << i;
    }
}

TEST(TimingSim, IndependentAddsReachFullWidth)
{
    Program p;
    for (int i = 0; i < 16; ++i)
        for (int j = 1; j <= 8; ++j)
            p.addi(r(j), r(j), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    // 128 instructions in 8 independent chains of 16: the execution
    // portion is ~16 cycles, so total runtime is pipeline fill + ~16.
    const MachineConfig mc = MachineConfig::monolithic();
    EXPECT_LT(res.cycles, mc.frontendDepth + 16 + 16);
}

TEST(TimingSim, LoadToUseIsThreeCycles)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 5);
    p.st(r(2), r(1), 0);
    p.ld(r(3), r(1), 0);
    p.ld(r(3), r(1), 0);            // warm load (hit)
    p.addi(r(4), r(3), 1);          // consumer of the hit load
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[4].execLat, 3u);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());
    EXPECT_EQ(res.timing[5].issue, res.timing[4].issue + 3);
}

TEST(TimingSim, L1MissAddsL2Latency)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(3), r(1), 0);            // cold miss
    p.addi(r(4), r(3), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[1].execLat, 23u);
    SimResult res = runMono(t);
    EXPECT_EQ(res.timing[2].issue, res.timing[1].issue + 23);
}

TEST(TimingSim, CrossClusterForwardingDelay)
{
    // Mod-N steering alternates clusters, so a dependent pair lands
    // on different clusters and pays the 2-cycle bypass.
    Program p;
    p.addi(r(1), r(1), 1);          // 0 -> cluster 0
    p.addi(r(2), r(1), 1);          // 1 -> cluster 1, reads 0
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    ModNSteering modn;
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, modn);
    validateTiming(t, res, mc);

    ASSERT_NE(res.timing[0].cluster, res.timing[1].cluster);
    EXPECT_EQ(res.timing[1].issue,
              res.timing[0].complete + mc.fwdLatency);
    EXPECT_EQ(res.globalValues, 1u);
    EXPECT_NE(res.timing[1].crossMask, 0);
}

TEST(TimingSim, LocalConsumerAvoidsForwarding)
{
    Program p;
    p.addi(r(1), r(1), 1);
    p.addi(r(2), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    // Dependence steering collocates the pair.
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, steer);
    EXPECT_EQ(res.timing[0].cluster, res.timing[1].cluster);
    EXPECT_EQ(res.timing[1].issue, res.timing[0].complete);
    EXPECT_EQ(res.globalValues, 0u);
}

TEST(TimingSim, MemoryDependenceDoesNotPayBypass)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 9);
    p.st(r(2), r(1), 0);            // 2
    p.ld(r(3), r(1), 0);            // 3: store-to-load dep
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[3].prod[srcSlotMem], 2u);

    ModNSteering modn;  // force the pair apart
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, modn);
    // The load waits for the store via the shared L1 but pays no
    // forwarding latency for the memory dependence itself.
    EXPECT_GE(res.timing[3].issue, res.timing[2].complete);
}

TEST(TimingSim, MispredictedBranchStallsFetch)
{
    Program p;
    Label skip = p.newLabel();
    p.lui(r(1), 0);
    p.beq(r(1), skip);              // always taken
    p.nop();
    p.bind(skip);
    for (int i = 0; i < 20; ++i)
        p.addi(r(2), r(2), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    // Force the branch to be a misprediction.
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        if (rec.isCondBranch) {
            rec.mispredicted = true;
            t.set(i, rec);
        }
    }
    ASSERT_TRUE(t[1].mispredicted);

    SimResult res = runMono(t);
    // The instruction after the branch is fetched only once the
    // branch resolves.
    EXPECT_EQ(res.timing[2].fetch, res.timing[1].complete + 1);
    EXPECT_GE(res.timing[2].dispatch,
              res.timing[2].fetch +
                  MachineConfig::monolithic().frontendDepth);
}

TEST(TimingSim, CorrectlyPredictedBranchDoesNotStall)
{
    Program p;
    Label skip = p.newLabel();
    p.lui(r(1), 0);
    p.beq(r(1), skip);
    p.nop();
    p.bind(skip);
    p.addi(r(2), r(2), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        rec.mispredicted = false;
        t.set(i, rec);
    }

    SimResult res = runMono(t);
    // Taken branch ends the fetch group; the target comes next cycle.
    EXPECT_EQ(res.timing[2].fetch, res.timing[1].fetch + 1);
}

TEST(TimingSim, FpPortLimitThrottlesIssue)
{
    // 16 independent FP adds on the monolithic machine (4 fp ports):
    // at least 4 issue cycles.
    Program p;
    for (int i = 0; i < 16; ++i)
        p.fadd(f(i % 8), f(8 + (i % 8)), f(16 + (i % 8)));
    p.halt();
    p.finalize();
    // Break the false output-dependences: use distinct destinations.
    Program q;
    for (int i = 0; i < 16; ++i)
        q.fadd(f(i), f(16 + (i % 8)), f(24 + (i % 4)));
    q.halt();
    q.finalize();
    Trace t = prepare(q);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    Cycle first = res.timing[0].issue;
    Cycle last = res.timing[15].issue;
    EXPECT_GE(last - first + 1, 4u);
}

TEST(TimingSim, DeterministicAcrossRuns)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 500);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 3);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    MachineConfig mc = MachineConfig::clustered(4);
    SimResult r1 = runOn(t, mc, s1);
    SimResult r2 = runOn(t, mc, s2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.globalValues, r2.globalValues);
}

TEST(TimingSim, IlpAccountingSumsMatch)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 300);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 3);
    p.addi(r(3), r(3), 5);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimOptions opts;
    opts.collectIlp = true;
    MachineConfig mc = MachineConfig::clustered(8);
    SimResult res = TimingSim(mc, t, steer, age, nullptr, opts).run();

    std::uint64_t cycles = 0, issued = 0;
    for (std::size_t a = 0; a < res.ilpCycles.size(); ++a) {
        cycles += res.ilpCycles[a];
        issued += res.ilpIssuedSum[a];
    }
    EXPECT_EQ(cycles, res.cycles);
    EXPECT_EQ(issued, res.instructions);
}

/** A policy that always stalls: the core must detect the deadlock. */
class AlwaysStall : public SteeringPolicy
{
  public:
    SteerDecision
    steer(const CoreView &, const SteerRequest &) override
    {
        SteerDecision d;
        d.stall = true;
        return d;
    }
    const char *name() const override { return "always-stall"; }
};

TEST(TimingSimDeath, PolicyDeadlockIsCaught)
{
    Program p;
    p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    AlwaysStall stall;
    AgeScheduling age;
    SimOptions opts;
    opts.maxCpi = 10;
    TimingSim sim(MachineConfig::clustered(2), t, stall, age, nullptr,
                  opts);
    EXPECT_DEATH(sim.run(), "cycle limit");
}

TEST(TimingSim, FetchQueueBoundLimitsRunahead)
{
    // A 23-cycle load miss blocks issue/commit; fetch may run ahead
    // only by the front-end buffer (depth x width + one group).
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(2), r(1), 0);            // cold miss (23 cycles)
    p.addi(r(2), r(2), 1);          // serialise behind it
    for (int i = 0; i < 400; ++i)
        p.addi(r(3), r(3), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);

    const MachineConfig mc = MachineConfig::monolithic();
    const std::uint64_t bound =
        static_cast<std::uint64_t>(mc.frontendDepth) * mc.fetchWidth +
        mc.fetchWidth;
    // While the miss is outstanding (first ~23 cycles), no
    // instruction more than `bound` past the (stalled) steering point
    // may have been fetched: check instruction 300 was fetched well
    // after the load.
    EXPECT_GT(res.timing[300].fetch, res.timing[1].fetch + 2);
    (void)bound;
}

TEST(TimingSim, RobCapsInFlightInstructions)
{
    // A long miss at the head: younger instructions cannot dispatch
    // past the 256-entry ROB.
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(2), r(1), 0);            // miss, commits late
    for (int i = 0; i < 500; ++i)
        p.addi(r(3), r(3), 1);      // independent filler
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);

    const MachineConfig mc = MachineConfig::monolithic();
    // Instruction at ROB distance beyond the miss cannot dispatch
    // before the miss commits.
    const std::size_t beyond = 1 + mc.robEntries;
    ASSERT_LT(beyond, t.size());
    EXPECT_GE(res.timing[beyond].dispatch, res.timing[1].commit);
}

TEST(TimingSim, MonolithicNeverForwards)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 200);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    EXPECT_EQ(res.globalValues, 0u);
    for (const InstTiming &ti : res.timing)
        EXPECT_EQ(ti.crossMask, 0);
}

/** A hand-built trace of n independent one-cycle integer ops; tests
 *  wire producers and latencies in with Trace::set. */
Trace
independentOps(std::size_t n)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.pc = 0x1000 + 4 * i;
        rec.op = Opcode::Add;
        rec.cls = OpClass::IntAlu;
        t.append(rec);
    }
    return t;
}

TEST(TimingSim, WakeupAtTheWheelsFurthestReach)
{
    // Row 0 takes 255 cycles (the largest execLat) and feeds rows 1
    // and 9 on the other cluster over the longest bypass the config
    // allows. Row 1 is steered with row 0 and woken when row 0
    // issues; row 9 is steered in the cycle row 0 issues and resolves
    // it at steer. Both wakeups land 255 + maxFwdLatency cycles ahead.
    Trace t = independentOps(16);
    TraceRecord rec = t[0];
    rec.op = Opcode::Mul;
    rec.cls = OpClass::IntMul;
    rec.execLat = 255;
    t.set(0, rec);
    for (std::size_t consumer : {1, 9}) {
        rec = t[consumer];
        rec.prod[srcSlot1] = 0;
        t.set(consumer, rec);
    }
    ASSERT_TRUE(t.wellFormed());

    MachineConfig mc = MachineConfig::clustered(2);
    mc.fwdLatency = maxFwdLatency;
    ModNSteering modn;
    SimResult res = runOn(t, mc, modn);
    validateTiming(t, res, mc);

    const InstTiming &prod = res.timing[0];
    EXPECT_EQ(prod.dispatch, Cycle{mc.frontendDepth});
    EXPECT_EQ(prod.issue, prod.dispatch + 1);
    const Cycle arrival = prod.issue + 255 + maxFwdLatency;
    for (std::size_t consumer : {1, 9}) {
        SCOPED_TRACE("consumer " + std::to_string(consumer));
        const InstTiming &ct = res.timing[consumer];
        EXPECT_NE(ct.cluster, prod.cluster);
        EXPECT_EQ(ct.ready, arrival);
        EXPECT_EQ(ct.issue, arrival);
    }
    EXPECT_EQ(res.timing[1].dispatch, prod.dispatch);
    EXPECT_EQ(res.timing[9].dispatch, prod.issue);
}

TEST(TimingSim, OneCycleChainWakesBackToBack)
{
    // A dependent chain of one-cycle ops wakes each link the cycle
    // after its producer issues, across several turns of the wheel.
    const std::size_t n = 1500;
    Trace t = independentOps(n);
    for (std::size_t i = 1; i < n; ++i) {
        TraceRecord rec = t[i];
        rec.prod[srcSlot1] = i - 1;
        t.set(i, rec);
    }
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());
    for (std::size_t i = 1; i < n; ++i) {
        ASSERT_EQ(res.timing[i].ready, res.timing[i - 1].issue + 1)
            << "at " << i;
        ASSERT_EQ(res.timing[i].issue, res.timing[i].ready) << "at " << i;
    }
}

TEST(TimingSimDeath, ForwardProducerLinkIsCaught)
{
    // Row 5 names a later row as its producer: row 9, or one past the
    // end of the trace. Trace::wellFormed rejects both; handed to the
    // core unchecked, steering row 5 must die rather than simulate a
    // plausible CPI or read past the timing records.
    for (const InstId producer : {InstId{9}, InstId{1000}}) {
        Trace t = independentOps(12);
        TraceRecord rec = t[5];
        rec.prod[srcSlot2] = producer;
        t.set(5, rec);
        ASSERT_FALSE(t.wellFormed());
        UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr,
                              nullptr);
        AgeScheduling age;
        TimingSim sim(MachineConfig::monolithic(), t, steer, age);
        EXPECT_DEATH(sim.run(), "p < id") << "producer " << producer;
    }
}

} // anonymous namespace
} // namespace csim
