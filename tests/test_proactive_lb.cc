/**
 * @file
 * Focused unit tests for the proactive load-balancing decision logic
 * (paper Sec. 6/7) against a scripted machine state: the
 * followed-producer rule, the learned not-most-critical-consumer
 * candidates, the LoC keep override and the pressure gate.
 */

#include <gtest/gtest.h>

#include <vector>

#include "policy/steering.hh"

namespace csim {
namespace {

/** Minimal scriptable CoreView (mirrors test_policies.cc). */
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

    MachineConfig config_;
    Cycle now_ = 10;
    std::vector<unsigned> occupancy_;
    std::vector<Addr> pcs_;
    std::vector<InstTiming> timing_;
};

struct Fixture
{
    Fixture()
        : view(8)
    {
        UnifiedSteeringOptions opt;
        opt.focusOnCritical = true;
        opt.proactiveLB = true;
        steer = std::make_unique<UnifiedSteering>(opt, &crit, &loc);
        steer->reset(view, 1000);
    }

    /** Pressure the producer's cluster so the gate opens. */
    void
    pressure(ClusterId c)
    {
        view.occupancy_[c] =
            view.config().windowPerCluster - 1;
    }

    TraceRecord
    consumerOf(InstId p, Addr pc)
    {
        TraceRecord rec;
        rec.pc = pc;
        rec.op = Opcode::Add;
        rec.prod[srcSlot1] = p;
        return rec;
    }

    MockView view;
    CriticalityPredictor crit;
    LocPredictor loc;
    std::unique_ptr<UnifiedSteering> steer;
};

TEST(ProactiveLb, SecondConsumerOfFollowedProducerIsPushed)
{
    Fixture f;
    const InstId p = f.view.addInFlight(3, 0x1000);
    f.pressure(3);

    // First consumer collocates and marks the producer followed.
    TraceRecord c1 = f.consumerOf(p, 0x2000);
    SteerRequest r1{10, &c1};
    SteerDecision d1 = f.steer->steer(f.view, r1);
    EXPECT_EQ(d1.reason, SteerReason::Collocated);
    f.steer->notifySteered(f.view, r1, d1);

    // Second (cold-LoC) consumer gets pushed away.
    TraceRecord c2 = f.consumerOf(p, 0x2004);
    SteerRequest r2{11, &c2};
    SteerDecision d2 = f.steer->steer(f.view, r2);
    EXPECT_EQ(d2.reason, SteerReason::ProactiveLB);
    EXPECT_NE(d2.cluster, 3);
}

TEST(ProactiveLb, NoPushWithoutPressure)
{
    Fixture f;
    const InstId p = f.view.addInFlight(3, 0x1000);
    // Window nearly empty: locality is free, keep both consumers.
    TraceRecord c1 = f.consumerOf(p, 0x2000);
    SteerRequest r1{10, &c1};
    SteerDecision d1 = f.steer->steer(f.view, r1);
    f.steer->notifySteered(f.view, r1, d1);

    TraceRecord c2 = f.consumerOf(p, 0x2004);
    SteerRequest r2{11, &c2};
    SteerDecision d2 = f.steer->steer(f.view, r2);
    EXPECT_EQ(d2.reason, SteerReason::Collocated);
    EXPECT_EQ(d2.cluster, 3);
}

TEST(ProactiveLb, PredictedCriticalConsumerIsKept)
{
    Fixture f;
    const InstId p = f.view.addInFlight(2, 0x1000);
    f.pressure(2);

    // Mark the producer followed via a first consumer.
    TraceRecord c1 = f.consumerOf(p, 0x2000);
    SteerRequest r1{10, &c1};
    SteerDecision d1 = f.steer->steer(f.view, r1);
    f.steer->notifySteered(f.view, r1, d1);

    // A second consumer the binary predictor says is critical stays.
    f.crit.train(0x2004, true);
    ASSERT_TRUE(f.crit.predict(0x2004));
    TraceRecord c2 = f.consumerOf(p, 0x2004);
    SteerRequest r2{11, &c2};
    SteerDecision d2 = f.steer->steer(f.view, r2);
    EXPECT_EQ(d2.reason, SteerReason::Collocated);
    EXPECT_EQ(d2.cluster, 2);
}

TEST(ProactiveLb, HighLocConsumerIsKept)
{
    Fixture f;
    const InstId p = f.view.addInFlight(1, 0x1000);
    f.pressure(1);

    TraceRecord c1 = f.consumerOf(p, 0x2000);
    SteerRequest r1{10, &c1};
    SteerDecision d1 = f.steer->steer(f.view, r1);
    f.steer->notifySteered(f.view, r1, d1);

    // A consumer with LoC near 1 is kept by the absolute override.
    for (int i = 0; i < 3000; ++i)
        f.loc.train(0x2004, true);
    TraceRecord c2 = f.consumerOf(p, 0x2004);
    SteerRequest r2{11, &c2};
    SteerDecision d2 = f.steer->steer(f.view, r2);
    EXPECT_EQ(d2.reason, SteerReason::Collocated);
}

TEST(ProactiveLb, CommitTrainingMarksCandidates)
{
    Fixture f;
    const InstId p = f.view.addInFlight(0, 0x1000);

    // Train the LoC predictor: 0x3000 is critical, 0x3004 is not.
    for (int i = 0; i < 3000; ++i) {
        f.loc.train(0x3000, true);
        f.loc.train(0x3004, false);
    }

    // Steering both consumers records the max consumer LoC of p's
    // value; committing the weak one trains its PC as a candidate.
    TraceRecord strong = f.consumerOf(p, 0x3000);
    TraceRecord weak = f.consumerOf(p, 0x3004);
    SteerRequest rs{10, &strong};
    SteerRequest rw{11, &weak};
    for (int round = 0; round < 8; ++round) {
        SteerDecision ds = f.steer->steer(f.view, rs);
        f.steer->notifySteered(f.view, rs, ds);
        SteerDecision dw = f.steer->steer(f.view, rw);
        f.steer->notifySteered(f.view, rw, dw);
        f.steer->notifyCommit(f.view, 11, weak);
        f.steer->notifyCommit(f.view, 10, strong);
    }

    // Now pressure the cluster: the weak consumer should be pushed
    // even as the FIRST consumer of a fresh value (candidate table).
    const InstId p2 = f.view.addInFlight(0, 0x1000);
    f.pressure(0);
    TraceRecord weak2 = f.consumerOf(p2, 0x3004);
    SteerRequest r2{20, &weak2};
    SteerDecision d2 = f.steer->steer(f.view, r2);
    EXPECT_EQ(d2.reason, SteerReason::ProactiveLB);
}

} // anonymous namespace
} // namespace csim
