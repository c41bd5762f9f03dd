/**
 * @file
 * Unit tests for the steering policies against a scripted mock
 * CoreView: placement preferences, load-balancing, stall-over-steer
 * and proactive load-balancing decisions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "policy/scheduling.hh"
#include "policy/steering.hh"

namespace csim {
namespace {

/** A hand-scriptable machine state. */
class MockView : public CoreView
{
  public:
    explicit MockView(unsigned clusters)
    {
        config_ = MachineConfig::clustered(clusters);
        occupancy_.assign(clusters, 0);
    }

    const MachineConfig &config() const override { return config_; }
    Cycle now() const override { return now_; }
    unsigned
    windowFree(ClusterId c) const override
    {
        return config_.windowPerCluster - occupancy_[c];
    }
    unsigned
    windowOccupancy(ClusterId c) const override
    {
        return occupancy_[c];
    }
    bool
    inFlight(InstId id) const override
    {
        const InstTiming &t = timing_.at(id);
        return t.dispatch != invalidCycle &&
            (t.complete == invalidCycle || t.complete > now_);
    }
    bool
    completed(InstId id) const override
    {
        const InstTiming &t = timing_.at(id);
        return t.complete != invalidCycle && t.complete <= now_;
    }
    ClusterId
    clusterOf(InstId id) const override
    {
        return timing_.at(id).cluster;
    }
    const InstTiming &
    timingOf(InstId id) const override
    {
        return timing_.at(id);
    }
    Addr pcOf(InstId id) const override { return pcs_.at(id); }

    /** Add an in-flight (dispatched, un-issued) producer. */
    InstId
    addInFlight(ClusterId cluster, Addr pc)
    {
        pcs_.push_back(pc);
        InstTiming t;
        t.dispatch = 1;
        t.cluster = cluster;
        timing_.push_back(t);
        ++occupancy_[cluster];
        return pcs_.size() - 1;
    }

    void
    setOccupancy(ClusterId c, unsigned n)
    {
        occupancy_[c] = n;
    }

    MachineConfig config_;
    Cycle now_ = 10;
    std::vector<unsigned> occupancy_;
    std::vector<Addr> pcs_;
    std::vector<InstTiming> timing_;
};

TraceRecord
consumerOf(InstId p, Addr pc = 0x9000)
{
    TraceRecord rec;
    rec.pc = pc;
    rec.op = Opcode::Add;
    rec.prod[srcSlot1] = p;
    return rec;
}

TEST(ModNSteering, RotatesAcrossClusters)
{
    MockView view(4);
    ModNSteering modn;
    modn.reset(view, 100);
    TraceRecord rec;
    SteerRequest req{0, &rec};
    std::vector<ClusterId> seen;
    for (int i = 0; i < 4; ++i)
        seen.push_back(modn.steer(view, req).cluster);
    EXPECT_EQ(seen, (std::vector<ClusterId>{0, 1, 2, 3}));
}

TEST(ModNSteering, SkipsFullClusters)
{
    MockView view(2);
    view.setOccupancy(0, view.config().windowPerCluster);
    ModNSteering modn;
    modn.reset(view, 100);
    TraceRecord rec;
    SteerRequest req{0, &rec};
    EXPECT_EQ(modn.steer(view, req).cluster, 1);
}

TEST(LoadBalanceSteering, PicksLeastOccupied)
{
    MockView view(4);
    view.setOccupancy(0, 5);
    view.setOccupancy(1, 2);
    view.setOccupancy(2, 9);
    view.setOccupancy(3, 4);
    LoadBalanceSteering lb;
    TraceRecord rec;
    SteerRequest req{0, &rec};
    EXPECT_EQ(lb.steer(view, req).cluster, 1);
}

TEST(UnifiedSteering, CollocatesWithInFlightProducer)
{
    MockView view(4);
    InstId p = view.addInFlight(2, 0x1000);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    steer.reset(view, 100);

    TraceRecord rec = consumerOf(p);
    SteerRequest req{5, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_FALSE(d.stall);
    EXPECT_EQ(d.cluster, 2);
    EXPECT_EQ(d.reason, SteerReason::Collocated);
    EXPECT_EQ(d.desired, 2);
}

TEST(UnifiedSteering, LoadBalancesWhenNoProducer)
{
    MockView view(4);
    view.setOccupancy(0, 3);
    view.setOccupancy(1, 1);
    view.setOccupancy(2, 4);
    view.setOccupancy(3, 2);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    steer.reset(view, 100);
    TraceRecord rec;
    rec.pc = 0x2000;
    SteerRequest req{5, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_EQ(d.reason, SteerReason::NoProducer);
    EXPECT_EQ(d.cluster, 1);
}

TEST(UnifiedSteering, LoadBalancesWhenDesiredFull)
{
    MockView view(2);
    InstId p = view.addInFlight(0, 0x1000);
    view.setOccupancy(0, view.config().windowPerCluster);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    steer.reset(view, 100);
    TraceRecord rec = consumerOf(p);
    SteerRequest req{5, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_FALSE(d.stall);
    EXPECT_EQ(d.cluster, 1);
    EXPECT_EQ(d.reason, SteerReason::LoadBalanced);
    EXPECT_EQ(d.desired, 0);
}

TEST(UnifiedSteering, DyadicSplitFlagged)
{
    MockView view(4);
    InstId p1 = view.addInFlight(0, 0x1000);
    InstId p2 = view.addInFlight(3, 0x1004);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    steer.reset(view, 100);

    TraceRecord rec;
    rec.pc = 0x9000;
    rec.op = Opcode::Add;
    rec.prod[srcSlot1] = p1;
    rec.prod[srcSlot2] = p2;
    SteerRequest req{7, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_TRUE(d.dyadicSplit);
    // Most recently dispatched producer preferred.
    EXPECT_EQ(d.cluster, 3);
}

TEST(UnifiedSteering, MonolithicAlwaysClusterZero)
{
    MockView view(1);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    steer.reset(view, 100);
    TraceRecord rec;
    SteerRequest req{0, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_EQ(d.cluster, 0);
    EXPECT_EQ(d.reason, SteerReason::Monolithic);
}

TEST(UnifiedSteering, StallOverSteerForExecuteCritical)
{
    MockView view(2);
    InstId p = view.addInFlight(0, 0x1000);
    view.setOccupancy(0, view.config().windowPerCluster);

    CriticalityPredictor crit;
    LocPredictor loc;
    // Make the consumer's stall class saturate: train its LoC high.
    for (int i = 0; i < 3000; ++i)
        loc.train(0x9000, true);

    UnifiedSteeringOptions opt;
    opt.focusOnCritical = true;
    opt.stallOverSteer = true;
    UnifiedSteering steer(opt, &crit, &loc);
    steer.reset(view, 100);

    TraceRecord rec = consumerOf(p);
    SteerRequest req{5, &rec};
    // A few steers to warm the stall hysteresis, then expect a stall.
    SteerDecision d{};
    for (int i = 0; i < 4; ++i)
        d = steer.steer(view, req);
    EXPECT_TRUE(d.stall);
}

TEST(UnifiedSteering, NoStallForNonCritical)
{
    MockView view(2);
    InstId p = view.addInFlight(0, 0x1000);
    view.setOccupancy(0, view.config().windowPerCluster);

    CriticalityPredictor crit;
    LocPredictor loc;  // cold: LoC 0

    UnifiedSteeringOptions opt;
    opt.focusOnCritical = true;
    opt.stallOverSteer = true;
    UnifiedSteering steer(opt, &crit, &loc);
    steer.reset(view, 100);

    TraceRecord rec = consumerOf(p);
    SteerRequest req{5, &rec};
    SteerDecision d = steer.steer(view, req);
    EXPECT_FALSE(d.stall);
    EXPECT_EQ(d.reason, SteerReason::LoadBalanced);
}

TEST(UnifiedSteering, FocusPrefersCriticalProducer)
{
    MockView view(4);
    InstId p1 = view.addInFlight(0, 0x1000);  // will be critical
    InstId p2 = view.addInFlight(3, 0x1004);  // newer, not critical

    CriticalityPredictor crit;
    crit.train(0x1000, true);  // counter 8 -> predicted critical

    UnifiedSteeringOptions opt;
    opt.focusOnCritical = true;
    UnifiedSteering steer(opt, &crit, nullptr);
    steer.reset(view, 100);

    TraceRecord rec;
    rec.pc = 0x9000;
    rec.op = Opcode::Add;
    rec.prod[srcSlot1] = p1;
    rec.prod[srcSlot2] = p2;
    SteerRequest req{7, &rec};
    SteerDecision d = steer.steer(view, req);
    // Without focus, the newer producer (p2, cluster 3) would win;
    // with focus the critical one does.
    EXPECT_EQ(d.cluster, 0);
}

TEST(Scheduling, PriorityClasses)
{
    AgeScheduling age;
    TraceRecord rec;
    rec.pc = 0x1000;
    EXPECT_EQ(age.priorityClass(rec), 0u);

    CriticalityPredictor crit;
    CriticalScheduling cs(crit);
    EXPECT_EQ(cs.priorityClass(rec), 1u);  // not critical
    crit.train(0x1000, true);
    EXPECT_EQ(cs.priorityClass(rec), 0u);  // critical first

    LocPredictor loc;
    LocScheduling ls(loc);
    const unsigned cold = ls.priorityClass(rec);
    for (int i = 0; i < 3000; ++i)
        loc.train(0x1000, true);
    EXPECT_LT(ls.priorityClass(rec), cold);
}

} // anonymous namespace
} // namespace csim
