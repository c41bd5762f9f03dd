#include "core/timing_sim.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/logging.hh"
#include "core/sim_observer.hh"
#include "obs/host_prof.hh"
#include "obs/pipe_trace.hh"

namespace csim {

// crossMask_ holds one bit per source slot.
static_assert(numSrcSlots <= 8,
              "InstTiming::crossMask is uint8_t: one bit per SrcSlot");
// deliveredMask_ holds one bit per cluster; MachineConfig::validate
// rejects numClusters > maxClusters.
static_assert(maxClusters <= 16,
              "deliveredMask_ is uint16_t: one bit per cluster");
// Waiter-pool nodes pack (consumer id, slot) like priority keys do.
static_assert(static_cast<std::uint32_t>(numSrcSlots) - 1 <=
                  maxPriorityClass,
              "slot must fit above the id bits");

namespace {

/** Dotted-name segment for a steering outcome. */
const char *
steerReasonStatName(SteerReason reason)
{
    switch (reason) {
      case SteerReason::Monolithic: return "monolithic";
      case SteerReason::NoProducer: return "noProducer";
      case SteerReason::Collocated: return "collocated";
      case SteerReason::LoadBalanced: return "loadBalanced";
      case SteerReason::ProactiveLB: return "proactiveLb";
      default:
        CSIM_PANIC("steerReasonStatName: bad reason");
    }
}

constexpr std::size_t numSteerReasons = 5;

} // anonymous namespace

TimingSim::TimingSim(const MachineConfig &config, const Trace &trace,
                     SteeringPolicy &steering,
                     SchedulingPolicy &scheduling,
                     CommitListener *listener, SimOptions options)
    : TimingSim(config, &trace, trace.soa(), steering, scheduling,
                listener, std::move(options))
{
}

TimingSim::TimingSim(const MachineConfig &config, const TraceSoA &soa,
                     SteeringPolicy &steering,
                     SchedulingPolicy &scheduling,
                     CommitListener *listener, SimOptions options)
    : TimingSim(config, nullptr, soa, steering, scheduling, listener,
                std::move(options))
{
}

TimingSim::TimingSim(const MachineConfig &config, const Trace *trace,
                     const TraceSoA &soa, SteeringPolicy &steering,
                     SchedulingPolicy &scheduling,
                     CommitListener *listener, SimOptions options)
    : config_(config), trace_(trace), soa_(soa),
      steering_(steering), scheduling_(scheduling),
      listener_(listener), options_(options)
{
    config.validate();
    // Larger traces would overflow the id bits of the priority keys
    // (and of the packed waiter nodes) and silently corrupt ordering.
    CSIM_ASSERT(soa_.size() <= maxTraceInstructions);
    for (unsigned c = 0; c < config.numClusters; ++c)
        clusters_.emplace_back(config.cluster, config.windowPerCluster);
    freeWindowsTotal_ = config.numClusters * config.windowPerCluster;

    soaPc_ = soa_.pc().data();
    soaCls_ = soa_.cls().data();
    soaLat_ = soa_.execLat().data();
    soaFlags_ = soa_.flags().data();
    for (int slot = 0; slot < numSrcSlots; ++slot)
        soaProd_[slot] = soa_.prod(slot).data();

    // Carve every per-instruction side table out of one arena, wide
    // columns first so each stays naturally aligned.
    const std::size_t n = soa_.size();
    const std::uint64_t links = soa_.producerLinks();
    CSIM_ASSERT(links < noWaiter);
    waiterPoolCap_ = static_cast<std::uint32_t>(links);

    const std::size_t arena_bytes =
        n * sizeof(std::uint64_t) +          // prioKey
        n * sizeof(Cycle) +                  // partialReady
        links * sizeof(std::uint64_t) +      // waiter pool: id|slot
        2 * n * sizeof(std::uint32_t) +      // waiter head/tail
        links * sizeof(std::uint32_t) +      // waiter pool: next
        n * sizeof(std::uint16_t) +          // deliveredMask
        n * sizeof(std::uint8_t);            // pendingOps
    sideArena_.reset(new std::byte[arena_bytes]);
    std::byte *cursor = sideArena_.get();
    auto take = [&](std::size_t bytes) {
        std::byte *p = cursor;
        cursor += bytes;
        return p;
    };
    // The timing records live in their own vector, not the arena:
    // run() hands the whole store to the SimResult by move, so the
    // harness never pays for an O(n) copy-out.
    timingStore_.resize(n);
    timing_ = timingStore_.data();
    prioKey_ = reinterpret_cast<std::uint64_t *>(
        take(n * sizeof(std::uint64_t)));
    partialReady_ = reinterpret_cast<Cycle *>(take(n * sizeof(Cycle)));
    waiterIdSlot_ = reinterpret_cast<std::uint64_t *>(
        take(links * sizeof(std::uint64_t)));
    waiterHead_ = reinterpret_cast<std::uint32_t *>(
        take(n * sizeof(std::uint32_t)));
    waiterTail_ = reinterpret_cast<std::uint32_t *>(
        take(n * sizeof(std::uint32_t)));
    waiterNext_ = reinterpret_cast<std::uint32_t *>(
        take(links * sizeof(std::uint32_t)));
    deliveredMask_ = reinterpret_cast<std::uint16_t *>(
        take(n * sizeof(std::uint16_t)));
    pendingOps_ = reinterpret_cast<std::uint8_t *>(take(n));
    CSIM_ASSERT(cursor == sideArena_.get() + arena_bytes);

    std::memset(prioKey_, 0, n * sizeof(std::uint64_t));
    std::memset(partialReady_, 0, n * sizeof(Cycle));
    std::memset(waiterHead_, 0xFF, n * sizeof(std::uint32_t));
    std::memset(waiterTail_, 0xFF, n * sizeof(std::uint32_t));
    std::memset(deliveredMask_, 0, n * sizeof(std::uint16_t));
    std::memset(pendingOps_, 0, n);

    if (options_.collectIlp) {
        ilpCycles_.resize(options_.ilpMaxAvailable + 1, 0);
        ilpIssuedSum_.resize(options_.ilpMaxAvailable + 1, 0);
    }

    if (options_.checker)
        observers_.push_back(options_.checker);
    for (SimObserver *obs : options_.observers)
        if (obs)
            observers_.push_back(obs);

    registerCoreStats();
    for (unsigned c = 0; c < config.numClusters; ++c)
        clusters_[c].attachStats(registry_,
                                 "sim.cluster" + std::to_string(c));
    steering_.registerStats(registry_);
    scheduling_.registerStats(registry_);
    if (listener_)
        listener_->registerStats(registry_);
    for (SimObserver *obs : observers_)
        obs->registerStats(registry_);

    initPhases();
}

void
TimingSim::initPhases()
{
    if (options_.phases.empty())
        return;
    const std::uint64_t n = soa_.size();
    std::uint64_t budget = 0;
    for (std::size_t i = 0; i < options_.phases.size(); ++i) {
        const PhaseSpec &spec = options_.phases[i];
        const bool last = i + 1 == options_.phases.size();
        // A zero quota means "to trace end" and only makes sense for
        // the final phase; earlier zero-length phases would produce
        // empty snapshots at ambiguous boundaries.
        CSIM_ASSERT(spec.instructions > 0 || last);
        budget += spec.instructions;
    }
    CSIM_ASSERT(budget <= n);
    phaseResults_.reserve(options_.phases.size());
    const std::uint64_t quota = options_.phases.front().instructions;
    nextPhaseBoundary_ = quota > 0 ? quota : invalidInstId;
}

void
TimingSim::closePhase(Cycle end_exclusive)
{
    const PhaseSpec &spec = options_.phases[phaseIdx_];
    PhaseResult res;
    res.name = spec.name;
    res.isWarmup = spec.isWarmup;
    res.instructions = commitIdx_ - phaseStartInst_;
    res.cycles = end_exclusive - phaseStartCycle_;
    statCycles_->set(res.cycles);
    statInstructions_->set(res.instructions);
    res.stats = registry_.snapshot();
    phaseResults_.push_back(std::move(res));

    // Zero measured counters only: predictors, caches, windows and
    // every in-flight instruction keep their state across the boundary.
    registry_.resetMeasurement();
    phaseStartInst_ = commitIdx_;
    phaseStartCycle_ = end_exclusive;
    ++phaseIdx_;
    if (phaseIdx_ < options_.phases.size()) {
        const std::uint64_t quota = options_.phases[phaseIdx_].instructions;
        nextPhaseBoundary_ =
            quota > 0 ? commitIdx_ + quota : invalidInstId;
    } else {
        nextPhaseBoundary_ = invalidInstId;
    }
}

void
TimingSim::registerCoreStats()
{
    statCycles_ = &registry_.addCounter(
        "sim.cycles", "total simulated cycles");
    statInstructions_ = &registry_.addCounter(
        "sim.instructions", "committed instructions");
    statGlobalValues_ = &registry_.addCounter(
        "sim.globalValues",
        "distinct (value, remote cluster) deliveries over the bypass");
    statSteerStallCycles_ = &registry_.addCounter(
        "steer.stallCycles",
        "cycles the steer stage stalled by policy choice");
    statRobFullCycles_ = &registry_.addCounter(
        "steer.robFullCycles", "cycles steering blocked on a full ROB");
    statAllWindowsFullCycles_ = &registry_.addCounter(
        "steer.windowFullCycles",
        "cycles steering blocked with every cluster window full");
    statFetchStallCycles_ = &registry_.addCounter(
        "fetch.stallCycles",
        "cycles fetch stalled on an unresolved mispredicted branch");
    statPortStarvedEvents_ = &registry_.addCounter(
        "sched.replayEvents",
        "ready instructions denied issue by port limits (inst-cycles)");
    statPriorityInversions_ = &registry_.addCounter(
        "sched.priorityInversions",
        "issues that bypassed a denied instruction of a strictly "
        "higher scheduling class");
    statFwdDyadic_ = &registry_.addCounter(
        "fwd.cause.dyadic",
        "bypass deliveries to consumers with split producers");

    statSteerReason_.resize(numSteerReasons);
    statFwdCause_.resize(numSteerReasons);
    for (std::size_t r = 0; r < numSteerReasons; ++r) {
        const std::string reason =
            steerReasonStatName(static_cast<SteerReason>(r));
        statSteerReason_[r] = &registry_.addCounter(
            "steer.reason." + reason,
            "instructions steered with outcome " + reason);
        statFwdCause_[r] = &registry_.addCounter(
            "fwd.cause." + reason,
            "bypass deliveries to consumers steered as " + reason);
    }

    const Counter *cycles = statCycles_;
    const Counter *insts = statInstructions_;
    const Counter *globals = statGlobalValues_;
    registry_.addFormula(
        "sim.cpi",
        [cycles, insts] {
            return insts->value() ?
                static_cast<double>(cycles->value()) /
                static_cast<double>(insts->value()) : 0.0;
        },
        "cycles per committed instruction");
    registry_.addFormula(
        "sim.ipc",
        [cycles, insts] {
            return cycles->value() ?
                static_cast<double>(insts->value()) /
                static_cast<double>(cycles->value()) : 0.0;
        },
        "committed instructions per cycle");
    registry_.addFormula(
        "sim.globalValuesPerInst",
        [globals, insts] {
            return insts->value() ?
                static_cast<double>(globals->value()) /
                static_cast<double>(insts->value()) : 0.0;
        },
        "bypass deliveries per committed instruction");

    clusterStats_.resize(config_.numClusters);
    for (unsigned c = 0; c < config_.numClusters; ++c) {
        const std::string prefix = "sim.cluster" + std::to_string(c);
        ClusterStats &cs = clusterStats_[c];
        cs.steered = &registry_.addCounter(
            prefix + ".steered", "instructions steered to this cluster");
        cs.windowFullDiverts = &registry_.addCounter(
            prefix + ".steer.windowFullDiverts",
            "steers diverted elsewhere because this window was full");
        cs.intIssued = &registry_.addCounter(
            prefix + ".issue.int", "instructions issued on int ports");
        cs.fpIssued = &registry_.addCounter(
            prefix + ".issue.fp", "instructions issued on fp ports");
        cs.memIssued = &registry_.addCounter(
            prefix + ".issue.mem", "instructions issued on mem ports");

        const Counter *ints = cs.intIssued;
        const Counter *fps = cs.fpIssued;
        const Counter *mems = cs.memIssued;
        const double width = config_.cluster.issueWidth;
        registry_.addFormula(
            prefix + ".issue.utilization",
            [cycles, ints, fps, mems, width] {
                const double issued = static_cast<double>(
                    ints->value() + fps->value() + mems->value());
                const double slots =
                    static_cast<double>(cycles->value()) * width;
                return slots > 0.0 ? issued / slots : 0.0;
            },
            "fraction of issue slots used");
    }
}

unsigned
TimingSim::windowFree(ClusterId c) const
{
    return clusters_[c].windowFree();
}

unsigned
TimingSim::windowOccupancy(ClusterId c) const
{
    return clusters_[c].occupancy();
}

bool
TimingSim::inFlight(InstId id) const
{
    const InstTiming &t = timing_[id];
    return t.dispatch != invalidCycle &&
        (t.complete == invalidCycle || t.complete > now_);
}

bool
TimingSim::completed(InstId id) const
{
    const InstTiming &t = timing_[id];
    return t.complete != invalidCycle && t.complete <= now_;
}

ClusterId
TimingSim::clusterOf(InstId id) const
{
    return timing_[id].cluster;
}

Cycle
TimingSim::availTime(InstId producer, ClusterId consumer_cluster,
                     int slot) const
{
    const InstTiming &pt = timing_[producer];
    CSIM_ASSERT(pt.complete != invalidCycle);
    // Memory dependences resolve through the shared L1, so they never
    // pay the global bypass latency; register values do when the
    // producer lives on another cluster.
    const bool cross =
        slot != srcSlotMem && pt.cluster != consumer_cluster;
    return pt.complete + (cross ? config_.fwdLatency : 0);
}

void
TimingSim::noteGlobalDelivery(InstId producer, InstId consumer,
                              ClusterId consumer_cluster)
{
    const std::uint16_t bit =
        static_cast<std::uint16_t>(1u << consumer_cluster);
    if (!(deliveredMask_[producer] & bit)) {
        deliveredMask_[producer] |= bit;
        ++*statGlobalValues_;
        const InstTiming &ct = timing_[consumer];
        ++*statFwdCause_[static_cast<std::size_t>(ct.reason)];
        if (ct.dyadicSplit)
            ++*statFwdDyadic_;
    }
}

SimResult
TimingSim::run()
{
    // One scope per run, never per cycle: the host-prof tree reports
    // the whole sim loop as a phase, with host MIPS from the commit
    // count credited below.
    HOST_PROF_SCOPE("sim.run");

    const std::uint64_t n = soa_.size();
    SimResult result;
    if (n == 0) {
        result.stats = registry_.snapshot();
        return result;
    }

    steering_.reset(*this, n);
    for (SimObserver *obs : observers_)
        obs->onRunStart(*this);

    const std::uint64_t cycle_limit =
        static_cast<std::uint64_t>(options_.maxCpi) * n + 100000;

    now_ = 0;
    while (commitIdx_ < n) {
        doIssue();
        doCommit();
        doSteer();
        doFetch();
        for (SimObserver *obs : observers_)
            obs->onCycleEnd(*this);
        ++now_;
        if (now_ > cycle_limit)
            stuckPanic();
    }

    for (Cluster &cluster : clusters_)
        cluster.finishOccupancy(now_);

    if (listener_)
        listener_->onRunEnd(*this);
    for (SimObserver *obs : observers_)
        obs->onRunEnd(*this);

    // The last instruction committed on cycle now_-1... runtime is the
    // commit cycle of the final instruction plus one (cycles are
    // zero-based).
    const Cycle end_cycles = timing_[n - 1].commit + 1;
    HOST_PROF_INSTRUCTIONS(n);
    if (options_.phases.empty()) {
        result.cycles = end_cycles;
        result.instructions = n;
        statCycles_->set(result.cycles);
        statInstructions_->set(n);
        result.globalValues = statGlobalValues_->value();
        result.steerStallCycles = statSteerStallCycles_->value();
        result.stats = registry_.snapshot();
    } else {
        // Close the trailing phase (quota 0 = "to trace end", or a
        // quota whose boundary is the final commit), then merge the
        // measured phases in order for the top-level view.
        if (phaseIdx_ < options_.phases.size())
            closePhase(end_cycles);
        for (const PhaseResult &phase : phaseResults_) {
            if (phase.isWarmup)
                continue;
            result.cycles += phase.cycles;
            result.instructions += phase.instructions;
            if (result.stats.empty())
                result.stats = phase.stats;
            else
                result.stats.merge(phase.stats);
        }
        if (!result.stats.empty()) {
            result.globalValues = static_cast<std::uint64_t>(
                result.stats.value("sim.globalValues"));
            result.steerStallCycles = static_cast<std::uint64_t>(
                result.stats.value("steer.stallCycles"));
        }
        result.phases = std::move(phaseResults_);
    }
    // Hand over the backing store; the sim is single-shot, so nothing
    // reads timing_ after this point.
    result.timing = std::move(timingStore_);
    timing_ = nullptr;
    result.ilpCycles = std::move(ilpCycles_);
    result.ilpIssuedSum = std::move(ilpIssuedSum_);
    return result;
}

void
TimingSim::stuckPanic()
{
    const std::uint64_t n = soa_.size();
    const InstTiming &h = timing_[commitIdx_];
    std::fprintf(stderr,
                 "TimingSim stuck: commit=%llu steer=%llu "
                 "fetch=%llu n=%llu\n"
                 "head: fetch=%llu dispatch=%llu ready=%llu "
                 "issue=%llu complete=%llu cluster=%u "
                 "pendingOps=%u\n",
                 (unsigned long long)commitIdx_,
                 (unsigned long long)steerIdx_,
                 (unsigned long long)fetchIdx_,
                 (unsigned long long)n,
                 (unsigned long long)h.fetch,
                 (unsigned long long)h.dispatch,
                 (unsigned long long)h.ready,
                 (unsigned long long)h.issue,
                 (unsigned long long)h.complete,
                 (unsigned)h.cluster,
                 (unsigned)pendingOps_[commitIdx_]);
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        std::fprintf(stderr, "cluster %zu: occ=%u readyNow=%zu\n",
                     c, clusters_[c].occupancy(),
                     clusters_[c].readyNow().size());
    }
    CSIM_PANIC("TimingSim: cycle limit exceeded (deadlock?)");
}

void
TimingSim::doIssue()
{
    // Promote pending wakeups only on cycles where one is due; the
    // bound is the exact cross-cluster minimum (see its declaration),
    // so skipping the scan can never miss a promotion. Issues this
    // cycle queue wakeups strictly in the future (execLat >= 1), so
    // promoting every cluster up front is equivalent to the old
    // promote-then-issue interleave.
    if (now_ >= nextPendingBound_) {
        Cycle next = invalidCycle;
        for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
            Cluster &cluster = clusters_[ci];
            cluster.promoteReady(now_);
            if (!cluster.readyEmpty())
                readyMask_ |= static_cast<std::uint16_t>(1u << ci);
            const Cycle p = cluster.nextPendingCycle();
            if (p < next)
                next = p;
        }
        nextPendingBound_ = next;
    }

    if (readyMask_ == 0) {
        // Nothing available anywhere: only the ILP accounting runs.
        if (options_.collectIlp)
            ++ilpCycles_[0];
        return;
    }

    std::uint64_t available_total = 0;
    std::uint64_t issued_total = 0;

    for (std::uint16_t scan = readyMask_; scan; scan &= scan - 1) {
        const auto ci =
            static_cast<std::size_t>(std::countr_zero(scan));
        Cluster &cluster = clusters_[ci];
        auto &ready = cluster.readyNow();
        available_total += ready.size();

        if (ready.size() > 1)
            std::sort(ready.begin(), ready.end(),
                      [this](InstId a, InstId b) {
                          return prioKey_[a] < prioKey_[b];
                      });

        Cluster::PortUse ports;
        std::vector<InstId> &leftover = leftoverScratch_;
        leftover.clear();
        ClusterStats &cs = clusterStats_[ci];

        for (InstId id : ready) {
            const OpClass cls = soaCls_[id];
            if (ports.total >= cluster.ports().issueWidth ||
                !ports.claim(cls, cluster.ports())) {
                leftover.push_back(id);
                continue;
            }

            // Issue.
            InstTiming &t = timing_[id];
            t.issue = now_;
            t.complete = now_ + soaLat_[id];
            cluster.exitWindow(now_);
            ++freeWindowsTotal_;
            ++issued_total;
            if (isIntClass(cls))
                ++*cs.intIssued;
            else if (isFpClass(cls))
                ++*cs.fpIssued;
            else
                ++*cs.memIssued;
            // The select loop walks in priority order, so the denied
            // instructions in `leftover` always precede this one in
            // (class, age) order. It is only a priority *inversion*
            // when a port-class conflict let an instruction of a
            // strictly lower scheduling class through — same-class
            // age bypasses are ordinary port contention. leftover[0]
            // holds the highest-priority denial of this cluster-cycle.
            if (!leftover.empty() &&
                prioKeyClass(prioKey_[leftover.front()]) <
                    prioKeyClass(prioKey_[id]))
                ++*statPriorityInversions_;

            if (fetchStalled_ && id == fetchStallBranch_)
                fetchResume_ = t.complete + 1;

            // Wake consumers waiting on this value (FIFO per
            // producer: first delivery per remote cluster gets the
            // traffic attribution).
            for (std::uint32_t node = waiterHead_[id];
                 node != noWaiter; node = waiterNext_[node]) {
                const std::uint64_t packed = waiterIdSlot_[node];
                const InstId wid = packed &
                    (maxTraceInstructions - 1);
                const int wslot =
                    static_cast<int>(packed >> prioKeyIdBits);
                const ClusterId wc = timing_[wid].cluster;
                const bool cross =
                    wslot != srcSlotMem && t.cluster != wc;
                const Cycle avail =
                    t.complete + (cross ? config_.fwdLatency : 0);
                if (cross) {
                    noteGlobalDelivery(id, wid, wc);
                    timing_[wid].crossMask |=
                        static_cast<std::uint8_t>(1u << wslot);
                }
                if (avail > partialReady_[wid])
                    partialReady_[wid] = avail;
                CSIM_ASSERT(pendingOps_[wid] > 0);
                if (--pendingOps_[wid] == 0) {
                    timing_[wid].ready = partialReady_[wid];
                    clusters_[wc].markReady(wid, partialReady_[wid]);
                    if (partialReady_[wid] < nextPendingBound_)
                        nextPendingBound_ = partialReady_[wid];
                }
            }
            waiterHead_[id] = noWaiter;
            waiterTail_[id] = noWaiter;

            for (SimObserver *obs : observers_)
                obs->onIssue(*this, id);
        }

        *statPortStarvedEvents_ += leftover.size();
        if (!observers_.empty()) {
            for (InstId id : leftover)
                for (SimObserver *obs : observers_)
                    obs->onIssueDenied(*this, id);
        }
        ready.swap(leftover);
        if (ready.empty())
            readyMask_ &= static_cast<std::uint16_t>(~(1u << ci));
    }

    if (options_.collectIlp) {
        std::uint64_t bucket =
            std::min<std::uint64_t>(available_total,
                                    options_.ilpMaxAvailable);
        ++ilpCycles_[bucket];
        ilpIssuedSum_[bucket] += issued_total;
    }
}

void
TimingSim::doCommit()
{
    const std::uint64_t n = soa_.size();
    unsigned committed = 0;
    while (committed < config_.commitWidth && commitIdx_ < n) {
        InstTiming &t = timing_[commitIdx_];
        if (t.complete == invalidCycle || t.complete >= now_)
            break;
        t.commit = now_;
        for (SimObserver *obs : observers_)
            obs->onCommit(*this, commitIdx_);
        if (options_.pipeTracer)
            options_.pipeTracer->onRetire(commitIdx_,
                                          recordAt(commitIdx_), t);
        if (listener_)
            listener_->onCommit(*this, commitIdx_);
        steering_.notifyCommit(*this, commitIdx_, recordAt(commitIdx_));
        ++commitIdx_;
        ++committed;
        if (commitIdx_ == nextPhaseBoundary_)
            closePhase(now_ + 1);
    }
}

void
TimingSim::doSteer()
{
    const std::uint64_t n = soa_.size();
    unsigned steered = 0;
    while (steered < config_.dispatchWidth && steerIdx_ < n) {
        const InstId id = steerIdx_;
        InstTiming &t = timing_[id];
        if (t.fetch == invalidCycle)
            break;  // not yet fetched
        if (t.fetch + config_.frontendDepth > now_)
            break;  // still in the front-end pipeline
        if (steerIdx_ - commitIdx_ >= config_.robEntries) {
            ++*statRobFullCycles_;
            for (SimObserver *obs : observers_)
                obs->onSteerStall(*this, SteerStallCause::RobFull);
            break;  // ROB full
        }

        if (freeWindowsTotal_ == 0) {
            ++*statAllWindowsFullCycles_;
            for (SimObserver *obs : observers_)
                obs->onSteerStall(*this, SteerStallCause::WindowFull);
            break;  // every window full: structural stall
        }

        const TraceRecord &rec = recordAt(id);
        SteerRequest req{id, &rec};
        SteerDecision d = steering_.steer(*this, req);
        if (d.stall) {
            ++*statSteerStallCycles_;
            for (SimObserver *obs : observers_)
                obs->onSteerStall(*this, SteerStallCause::PolicyStall);
            break;  // policy chose to stall; in-order steering blocks
        }

        CSIM_ASSERT(d.cluster < clusters_.size());
        CSIM_ASSERT(clusters_[d.cluster].windowFree() > 0);

        clusters_[d.cluster].enter(now_);
        --freeWindowsTotal_;
        t.dispatch = now_;
        t.cluster = d.cluster;
        t.desired = d.desired;
        t.reason = d.reason;
        t.dyadicSplit = d.dyadicSplit;
        t.predictedCritical = d.predictedCritical;
        t.locLevel = d.locLevel;

        ++*statSteerReason_[static_cast<std::size_t>(d.reason)];
        ++*clusterStats_[d.cluster].steered;
        if (d.reason == SteerReason::LoadBalanced &&
            d.desired != invalidCluster && d.desired != d.cluster)
            ++*clusterStats_[d.desired].windowFullDiverts;

        const std::uint32_t prio = scheduling_.priorityClass(rec);
        prioKey_[id] = makePrioKey(prio, id);

        // Resolve operand readiness.
        Cycle ready = now_ + 1;  // earliest possible issue
        unsigned pending = 0;
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = soaProd_[slot][id];
            if (p == invalidInstId)
                continue;
            if (timing_[p].complete != invalidCycle) {
                // Producer already issued; arrival time is known.
                const Cycle avail =
                    availTime(p, d.cluster, slot);
                const bool cross = slot != srcSlotMem &&
                    timing_[p].cluster != d.cluster;
                if (cross) {
                    noteGlobalDelivery(p, id, d.cluster);
                    t.crossMask |=
                        static_cast<std::uint8_t>(1u << slot);
                }
                if (avail > ready)
                    ready = avail;
            } else {
                // Producer still pending: append to its waiter list.
                const std::uint32_t node = waiterPoolUsed_++;
                CSIM_ASSERT(node < waiterPoolCap_);
                waiterIdSlot_[node] = id |
                    (static_cast<std::uint64_t>(slot) <<
                     prioKeyIdBits);
                waiterNext_[node] = noWaiter;
                if (waiterTail_[p] == noWaiter)
                    waiterHead_[p] = node;
                else
                    waiterNext_[waiterTail_[p]] = node;
                waiterTail_[p] = node;
                ++pending;
            }
        }

        partialReady_[id] = ready;
        pendingOps_[id] = static_cast<std::uint8_t>(pending);
        if (pending == 0) {
            t.ready = ready;
            clusters_[d.cluster].markReady(id, ready);
            if (ready < nextPendingBound_)
                nextPendingBound_ = ready;
        }

        for (SimObserver *obs : observers_)
            obs->onSteer(*this, id);
        steering_.notifySteered(*this, req, d);
        ++steerIdx_;
        ++steered;
    }
}

void
TimingSim::doFetch()
{
    const std::uint64_t n = soa_.size();
    if (fetchStalled_) {
        if (fetchResume_ != invalidCycle && now_ >= fetchResume_) {
            fetchStalled_ = false;
            fetchStallBranch_ = invalidInstId;
        } else {
            ++*statFetchStallCycles_;
            for (SimObserver *obs : observers_)
                obs->onFetchStall(*this);
            return;
        }
    }

    // The front end holds at most depth x width instructions plus the
    // current fetch group.
    const std::uint64_t fetch_bound = fetchBound();

    constexpr std::uint8_t mispredictedCond =
        TraceSoA::flagIsCondBranch | TraceSoA::flagMispredicted;
    constexpr std::uint8_t takenBranch =
        TraceSoA::flagIsBranch | TraceSoA::flagTaken;

    unsigned fetched = 0;
    while (fetched < config_.fetchWidth && fetchIdx_ < n &&
           fetchIdx_ < fetch_bound) {
        const std::uint8_t flags = soaFlags_[fetchIdx_];
        timing_[fetchIdx_].fetch = now_;
        ++fetchIdx_;
        ++fetched;

        if ((flags & mispredictedCond) == mispredictedCond) {
            fetchStalled_ = true;
            fetchStallBranch_ = fetchIdx_ - 1;
            fetchResume_ = invalidCycle;
            break;
        }
        if (config_.fetchStopAtTaken &&
            (flags & takenBranch) == takenBranch)
            break;
    }
}

} // namespace csim
