#include "policy/steering.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim {

namespace {

/** A consumer this likely to be critical is always kept with its
 *  producer by proactive load-balancing, whatever the producer's LoC. */
constexpr double keepAbsoluteLoc = 0.30;

/**
 * Proactive pushing engages only when the producer cluster's window
 * occupancy reaches pressureNum/pressureDen of capacity (an integer
 * ratio, so the gate stays exact at every window size).
 */
constexpr unsigned pressureNum = 3;
constexpr unsigned pressureDen = 4;

/** Snapshot the predictions for a steer decision. */
void
snapshotPredictions(SteerDecision &d, const TraceRecord &rec,
                    const CriticalityPredictor *crit,
                    const LocPredictor *loc)
{
    if (crit)
        d.predictedCritical = crit->predict(rec.pc);
    if (loc)
        d.locLevel = static_cast<std::uint8_t>(loc->level(rec.pc));
}

} // anonymous namespace

// ---------------------------------------------------------------------
// ModNSteering

void
ModNSteering::reset(const CoreView &view, std::size_t trace_size)
{
    (void)view;
    (void)trace_size;
    next_ = 0;
}

SteerDecision
ModNSteering::steer(const CoreView &view, const SteerRequest &req)
{
    (void)req;
    SteerDecision d;
    const unsigned n = view.config().numClusters;
    if (n == 1) {
        d.cluster = 0;
        d.reason = SteerReason::Monolithic;
        return d;
    }
    // Rotate, skipping full clusters (the core guarantees one is free).
    for (unsigned tries = 0; tries < n; ++tries) {
        ClusterId c = next_;
        next_ = static_cast<ClusterId>((next_ + 1) % n);
        if (view.windowFree(c) > 0) {
            d.cluster = c;
            d.reason = SteerReason::NoProducer;
            return d;
        }
    }
    CSIM_PANIC("ModNSteering: no free cluster");
}

// ---------------------------------------------------------------------
// LoadBalanceSteering

SteerDecision
LoadBalanceSteering::steer(const CoreView &view, const SteerRequest &req)
{
    (void)req;
    SteerDecision d;
    const unsigned n = view.config().numClusters;
    if (n == 1) {
        d.cluster = 0;
        d.reason = SteerReason::Monolithic;
        return d;
    }
    // One occupancy query per cluster: a full window shows occupancy
    // == windowPerCluster, so the free-entry test needs no extra call.
    const unsigned entries = view.config().windowPerCluster;
    ClusterId best = invalidCluster;
    unsigned best_occ = entries;
    for (unsigned c = 0; c < n; ++c) {
        ClusterId cid = static_cast<ClusterId>(c);
        const unsigned occ = view.windowOccupancy(cid);
        if (occ < best_occ) {
            best = cid;
            best_occ = occ;
        }
    }
    CSIM_ASSERT(best != invalidCluster);
    d.cluster = best;
    d.reason = SteerReason::NoProducer;
    return d;
}

// ---------------------------------------------------------------------
// UnifiedSteering

UnifiedSteering::UnifiedSteering(const UnifiedSteeringOptions &options,
                                 const CriticalityPredictor *crit_pred,
                                 const LocPredictor *loc_pred)
    : options_(options), critPred_(crit_pred), locPred_(loc_pred)
{
    name_ = "dep";
    if (options.focusOnCritical)
        name_ += "+focus";
    if (options.stallOverSteer)
        name_ += "+stall";
    if (options.proactiveLB)
        name_ += "+proactive";
    if (options.focusOnCritical)
        CSIM_ASSERT(critPred_ != nullptr);
    if (options.stallOverSteer || options.proactiveLB)
        CSIM_ASSERT(locPred_ != nullptr);
}

void
UnifiedSteering::registerStats(StatsRegistry &registry)
{
    statStallDecisions_ =
        &registry.addCounter("steer.policy.stallDecisions");
    // Proactive pushes vetoed by the binary criticality predictor, and
    // by the LoC override.
    statCritKeepVetoes_ =
        &registry.addCounter("steer.policy.critKeepVetoes");
    statLocKeepOverrides_ =
        &registry.addCounter("steer.policy.locKeepOverrides");
}

void
UnifiedSteering::reset(const CoreView &view, std::size_t trace_size)
{
    (void)view;
    pendingProducer_ = invalidInstId;
    maxConsumerLoc_.assign(trace_size, 0);
    followed_.assign(trace_size, false);
    if (lbCandidate_.empty()) {
        lbCandidate_.assign(std::size_t{1} << lbTableBits,
                            SatCounter(2, 1, 1, 0));
    }
    if (stallClass_.empty()) {
        stallClass_.assign(std::size_t{1} << lbTableBits,
                           SatCounter(2, 1, 1, 0));
    }
    // The lbCandidate table persists across runs (it is a predictor),
    // like the criticality tables.
}

std::size_t
UnifiedSteering::lbIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << lbTableBits) - 1);
}

ClusterId
UnifiedSteering::leastLoaded(const CoreView &view)
{
    // One occupancy query per cluster (see LoadBalanceSteering): full
    // windows read occupancy == windowPerCluster and never win.
    const unsigned n = view.config().numClusters;
    const unsigned entries = view.config().windowPerCluster;
    ClusterId best = invalidCluster;
    unsigned best_occ = entries;
    for (unsigned c = 0; c < n; ++c) {
        ClusterId cid = static_cast<ClusterId>(c);
        const unsigned occ = view.windowOccupancy(cid);
        if (occ < best_occ) {
            best = cid;
            best_occ = occ;
        }
    }
    CSIM_ASSERT(best != invalidCluster);
    return best;
}

SteerDecision
UnifiedSteering::steer(const CoreView &view, const SteerRequest &req)
{
    const TraceRecord &rec = *req.rec;
    SteerDecision d;
    snapshotPredictions(d, rec, critPred_, locPred_);
    pendingProducer_ = invalidInstId;

    if (view.config().numClusters == 1) {
        d.cluster = 0;
        d.reason = SteerReason::Monolithic;
        return d;
    }

    // Collect in-flight register producers (slots 1 and 2; memory
    // dependences resolve through the shared L1 and do not steer).
    struct ProducerInfo
    {
        InstId id;
        ClusterId cluster;
        bool critical;
    };
    ProducerInfo prods[2];
    int num_prods = 0;
    for (int slot = srcSlot1; slot <= srcSlot2; ++slot) {
        const InstId p = rec.prod[slot];
        if (p == invalidInstId || !view.inFlight(p))
            continue;
        bool crit = false;
        if (options_.focusOnCritical)
            crit = critPred_->predict(view.pcOf(p));
        prods[num_prods++] = ProducerInfo{p, view.clusterOf(p), crit};
    }

    d.dyadicSplit = num_prods == 2 &&
        prods[0].cluster != prods[1].cluster;

    if (num_prods == 0) {
        d.cluster = leastLoaded(view);
        d.reason = SteerReason::NoProducer;
        return d;
    }

    // Desired producer: most recently dispatched (approximates the
    // last-arriving operand); focused steering promotes a
    // predicted-critical producer over a non-critical one.
    int chosen = 0;
    if (num_prods == 2) {
        if (options_.focusOnCritical &&
            prods[0].critical != prods[1].critical) {
            chosen = prods[0].critical ? 0 : 1;
        } else {
            chosen = prods[0].id > prods[1].id ? 0 : 1;
        }
    }
    const ProducerInfo &prod = prods[chosen];
    d.desired = prod.cluster;
    pendingProducer_ = prod.id;

    const double loc_est =
        locPred_ ? locPred_->estimate(rec.pc) : 0.0;

    // Train the stall-class hysteresis with this steer's LoC sample:
    // single samples of the probabilistic counter are too noisy to
    // gate a fetch stall (a ~20%-critical instruction still reads
    // above the 30% threshold ~16% of the time).
    if (options_.stallOverSteer) {
        stallClass_[lbIndex(rec.pc)].train(
            loc_est >= options_.stallThreshold);
    }

    // Proactive load-balancing: push consumers that are usually not the
    // most critical one (or that follow an already-followed producer)
    // to another cluster, unless the LoC override retains them.
    // Proactive pushing only pays when the producer's cluster is under
    // pressure; with a lightly loaded window, collocation is free and
    // pushing can only add forwarding delay (the hammock trap).
    const bool producer_pressured =
        view.windowOccupancy(prod.cluster) * pressureDen >=
        view.config().windowPerCluster * pressureNum;

    if (options_.proactiveLB && producer_pressured) {
        const bool candidate =
            lbCandidate_[lbIndex(rec.pc)].saturatedHigh();
        const bool already_followed = followed_[prod.id];
        bool keep = false;
        if (locPred_) {
            // Integer-level comparison with one level of slack: the
            // 16-level stratification makes an exact "half the
            // producer's LoC" test flicker for near-critical consumers
            // (hammock arms), and a wrongly pushed arm costs the
            // convergence point a forwarding delay on every instance.
            const unsigned c_lvl = locPred_->level(rec.pc);
            const unsigned p_lvl =
                locPred_->level(view.pcOf(prod.id));
            keep = (c_lvl >= 1 && 2 * c_lvl + 1 >= p_lvl) ||
                loc_est >= keepAbsoluteLoc;
        }
        // The probabilistic LoC levels are noisy (binomial stationary
        // distribution); the 6-bit binary predictor's +8/-1 hysteresis
        // is sticky, so use it as a stable veto: never push a
        // predicted-critical consumer off its producer.
        bool crit_veto = false;
        if (critPred_ && critPred_->predict(rec.pc)) {
            crit_veto = !keep;
            keep = true;
        }
        if ((candidate || already_followed) && keep) {
            if (crit_veto) {
                if (statCritKeepVetoes_)
                    ++*statCritKeepVetoes_;
            } else if (statLocKeepOverrides_) {
                ++*statLocKeepOverrides_;
            }
        }
        if ((candidate || already_followed) && !keep) {
            d.cluster = leastLoaded(view);
            if (d.cluster != prod.cluster) {
                d.reason = SteerReason::ProactiveLB;
                pendingProducer_ = invalidInstId;
                return d;
            }
            // Least-loaded happens to be the producer cluster: fall
            // through to normal collocation.
        }
    }

    if (view.windowFree(prod.cluster) > 0) {
        d.cluster = prod.cluster;
        d.reason = SteerReason::Collocated;
        return d;
    }

    // Desired cluster is full: stall steering for execute-critical
    // consumers rather than break their dependence chain (Sec. 5).
    // The stall case is the one of the paper's Fig. 9 — a chain still
    // being built, i.e. the producer has not issued, so its completion
    // time is unknown; once the producer has issued, its value reaches
    // every cluster within the forwarding latency and stalling fetch
    // costs more than the 2 cycles it could save.
    if (options_.stallOverSteer &&
        stallClass_[lbIndex(rec.pc)].atLeast(2) &&
        view.timingOf(prod.id).complete == invalidCycle) {
        d.stall = true;
        if (statStallDecisions_)
            ++*statStallDecisions_;
        pendingProducer_ = invalidInstId;
        return d;
    }

    d.cluster = leastLoaded(view);
    d.reason = SteerReason::LoadBalanced;
    pendingProducer_ = invalidInstId;
    return d;
}

void
UnifiedSteering::notifySteered(const CoreView &view,
                               const SteerRequest &req,
                               const SteerDecision &decision)
{
    (void)view;
    const TraceRecord &rec = *req.rec;

    // Track the most critical consumer seen so far for each dynamic
    // value, and mark producers as followed on collocation.
    if (!maxConsumerLoc_.empty() && locPred_) {
        const std::uint8_t lvl =
            static_cast<std::uint8_t>(locPred_->level(rec.pc));
        for (int slot = srcSlot1; slot <= srcSlot2; ++slot) {
            const InstId p = rec.prod[slot];
            if (p == invalidInstId)
                continue;
            if (lvl > maxConsumerLoc_[p])
                maxConsumerLoc_[p] = lvl;
        }
    }

    if (decision.reason == SteerReason::Collocated &&
        pendingProducer_ != invalidInstId) {
        followed_[pendingProducer_] = true;
    }
    pendingProducer_ = invalidInstId;
}

void
UnifiedSteering::notifyCommit(const CoreView &view, InstId id,
                              const TraceRecord &rec)
{
    (void)view;
    if (!options_.proactiveLB || !locPred_ || maxConsumerLoc_.empty())
        return;

    // When a consumer retires, compare its LoC against the most
    // critical consumer recorded for its producers' values; if lower,
    // it is a load-balancing candidate (paper Sec. 7).
    (void)id;
    const std::uint8_t lvl =
        static_cast<std::uint8_t>(locPred_->level(rec.pc));
    for (int slot = srcSlot1; slot <= srcSlot2; ++slot) {
        const InstId p = rec.prod[slot];
        if (p == invalidInstId)
            continue;
        lbCandidate_[lbIndex(rec.pc)].train(maxConsumerLoc_[p] > lvl);
    }
}

} // namespace csim
