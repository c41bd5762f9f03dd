/**
 * @file
 * The clustered out-of-order timing simulator.
 *
 * Trace-driven and cycle-stepped. Models the paper's machine (Table 1):
 * an 8-wide front end (13 stages to dispatch, gshare-annotated branch
 * outcomes), in-order steering into per-cluster scheduling windows, a
 * shared 256-entry ROB, per-cluster out-of-order issue constrained by
 * int/fp/mem ports, a global bypass with a configurable inter-cluster
 * forwarding latency, and in-order commit.
 *
 * Steering and scheduling are delegated to SteeringPolicy and
 * SchedulingPolicy; the commit stream is exposed to a CommitListener so
 * the criticality predictors can be trained online, exactly mirroring
 * the decoupled structure the paper studies.
 */

#ifndef CSIM_CORE_TIMING_SIM_HH
#define CSIM_CORE_TIMING_SIM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/cluster.hh"
#include "core/machine_config.hh"
#include "core/policy.hh"
#include "core/timing.hh"
#include "obs/stats_registry.hh"
#include "trace/trace.hh"
#include "trace/trace_soa.hh"

namespace csim {

class PipeTracer;
class SimObserver;

/**
 * Issue-priority keys pack the scheduling class above the instruction
 * id (the age tiebreak): class in the top 24 bits, id in the low 40.
 * Any id at or above 2^40 would bleed into the class bits and silently
 * corrupt priority ordering, so both halves are checked when a key is
 * built and TimingSim rejects traces longer than 2^40 at construction.
 */
inline constexpr unsigned prioKeyIdBits = 40;

/** Largest trace (and largest InstId + 1) a priority key can carry. */
inline constexpr std::uint64_t maxTraceInstructions =
    std::uint64_t{1} << prioKeyIdBits;

/** Largest priority class value a key can carry. */
inline constexpr std::uint32_t maxPriorityClass =
    (std::uint32_t{1} << (64 - prioKeyIdBits)) - 1;

inline std::uint64_t
makePrioKey(std::uint32_t prio_class, InstId id)
{
    CSIM_ASSERT(id < maxTraceInstructions);
    CSIM_ASSERT(prio_class <= maxPriorityClass);
    return (static_cast<std::uint64_t>(prio_class) << prioKeyIdBits) |
        id;
}

/** Scheduling class carried by a packed priority key. */
inline std::uint32_t
prioKeyClass(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key >> prioKeyIdBits);
}

struct SimOptions
{
    /** Collect the per-cycle available/achieved ILP data (Fig. 15). */
    bool collectIlp = false;
    /** Has no effect: every run steps every cycle. Kept only because
     *  the perfbench drivers still copy it. */
    bool legacyStep = false;
    /** Largest available-ILP bucket tracked. */
    unsigned ilpMaxAvailable = 64;
    /**
     * Hard safety bound: panic if the run exceeds this many cycles per
     * instruction (catches policy-induced deadlock in tests).
     */
    unsigned maxCpi = 1000;
    /**
     * Optional pipeline event tracer, fed each instruction at commit
     * (all timestamps final). The tracer's own [startInst, endInst)
     * window gates the output; the tracer must outlive run().
     */
    PipeTracer *pipeTracer = nullptr;
    /**
     * Optional pipeline observer (the invariant checker in
     * src/verify), driven at steer, issue, commit and every cycle
     * boundary. Like pipeTracer it must outlive run(); its stats are
     * registered into the run's registry at construction.
     */
    SimObserver *checker = nullptr;
    /**
     * Additional observers (e.g. the interval profiler in src/obs),
     * driven after `checker` at every hook. Null entries are ignored;
     * all observers must outlive run() and are registered into the
     * run's registry at construction, exactly like `checker`.
     */
    std::vector<SimObserver *> observers;
    /**
     * Named warmup/measure phases (see PhaseSpec). Empty = the whole
     * run is one implicit measured phase with exactly the historical
     * behavior. Quotas of all but the last phase must be positive and
     * sum to at most the trace length; a last-phase quota of 0 means
     * "to trace end".
     */
    std::vector<PhaseSpec> phases;
};

class TimingSim : public CoreView
{
  public:
    /**
     * @param config Machine geometry.
     * @param trace Annotated, producer-linked dynamic trace.
     * @param steering Cluster-assignment policy.
     * @param scheduling Issue-priority policy.
     * @param listener Optional commit observer (predictor training).
     */
    TimingSim(const MachineConfig &config, const Trace &trace,
              SteeringPolicy &steering, SchedulingPolicy &scheduling,
              CommitListener *listener = nullptr,
              SimOptions options = SimOptions{});

    /**
     * Simulate straight off a column view (e.g. an mmap-ed trace
     * store) with no AoS trace behind it: record() reassembles
     * requested records from the columns on demand. The view must
     * outlive the simulation.
     */
    TimingSim(const MachineConfig &config, const TraceSoA &soa,
              SteeringPolicy &steering, SchedulingPolicy &scheduling,
              CommitListener *listener = nullptr,
              SimOptions options = SimOptions{});

    /** Run the whole trace to commit and return the timing results. */
    SimResult run();

    // CoreView interface.
    const MachineConfig &config() const override { return config_; }
    Cycle now() const override { return now_; }
    unsigned windowFree(ClusterId c) const override;
    unsigned windowOccupancy(ClusterId c) const override;
    bool inFlight(InstId id) const override;
    bool completed(InstId id) const override;
    ClusterId clusterOf(InstId id) const override;
    const TraceRecord &record(InstId id) const override
    {
        return recordAt(id);
    }
    const InstTiming &timingOf(InstId id) const override
    {
        return timing_[id];
    }
    Addr pcOf(InstId id) const override { return soaPc_[id]; }

    /** Always 0: no cycle is skipped. Kept only because the perfbench
     *  drivers still read it. */
    std::uint64_t skipCycles() const { return 0; }

  private:
    TimingSim(const MachineConfig &config, const Trace *trace,
              const TraceSoA &soa, SteeringPolicy &steering,
              SchedulingPolicy &scheduling, CommitListener *listener,
              SimOptions options);

    /**
     * One AoS record. Backed by the source trace when there is one;
     * otherwise reassembled from the columns into a single scratch
     * slot, so the returned reference is only valid until the next
     * call (matching how every caller uses it: read, then drop).
     */
    const TraceRecord &
    recordAt(InstId id) const
    {
        if (trace_)
            return (*trace_)[id];
        scratchRecord_ = soa_.record(id);
        return scratchRecord_;
    }

    /** Validate options_.phases against the trace and arm the first
     *  boundary. */
    void initPhases();

    /** Close the current phase at end-of-cycle `end_exclusive`:
     *  snapshot phase-local stats, reset measured counters, arm the
     *  next boundary. */
    void closePhase(Cycle end_exclusive);

    void doIssue();
    void doSteer();
    void doCommit();
    void doFetch();

    [[noreturn]] void stuckPanic();

    /** Oldest trace index the front end may fetch this cycle (the
     *  front-end pipe holds depth x width plus the current group). */
    std::uint64_t
    fetchBound() const
    {
        return steerIdx_ +
            static_cast<std::uint64_t>(config_.frontendDepth) *
            config_.fetchWidth + config_.fetchWidth;
    }

    /** Operand arrival time at the consumer's cluster. */
    Cycle availTime(InstId producer, ClusterId consumer_cluster,
                    int slot) const;

    /** Record a cross-cluster value delivery (for the traffic stats,
     *  attributed to the consumer's steering outcome). */
    void noteGlobalDelivery(InstId producer, InstId consumer,
                            ClusterId consumer_cluster);

    /** Register the core's counters and formulas with registry_. */
    void registerCoreStats();

    /** Stored by value so callers may pass temporaries. */
    const MachineConfig config_;
    /** The source AoS trace, or null when simulating a bare column
     *  view (an mmap-ed store); must outlive the simulation. */
    const Trace *trace_;
    /** Column view (of trace_, or standalone when trace_ is null). */
    const TraceSoA &soa_;
    /** recordAt() reassembly slot for the column-view-only case. */
    mutable TraceRecord scratchRecord_;
    SteeringPolicy &steering_;
    SchedulingPolicy &scheduling_;
    CommitListener *listener_;
    SimOptions options_;
    /** The flattened observer chain: options_.checker (if any)
     *  followed by the non-null options_.observers entries. */
    std::vector<SimObserver *> observers_;

    // Raw SoA column pointers, hoisted out of the cycle loop.
    const Addr *soaPc_ = nullptr;
    const OpClass *soaCls_ = nullptr;
    const std::uint8_t *soaLat_ = nullptr;
    const std::uint8_t *soaFlags_ = nullptr;
    const InstId *soaProd_[numSrcSlots] = {nullptr, nullptr, nullptr};

    Cycle now_ = 0;
    std::vector<Cluster> clusters_;

    // In-order stage cursors: commitIdx_ <= steerIdx_ <= fetchIdx_.
    std::uint64_t fetchIdx_ = 0;
    std::uint64_t steerIdx_ = 0;
    std::uint64_t commitIdx_ = 0;

    bool fetchStalled_ = false;
    InstId fetchStallBranch_ = invalidInstId;
    Cycle fetchResume_ = 0;

    /** Free window entries summed over all clusters, kept in sync at
     *  enter/exit so the steer stage never rescans the clusters. */
    unsigned freeWindowsTotal_ = 0;

    /** One bit per cluster with a non-empty ready set, so the issue
     *  stage visits only those clusters. readyNow_ is only mutated by
     *  doIssue, which keeps the mask exact. */
    std::uint16_t readyMask_ = 0;
    /**
     * Exact minimum of nextPendingCycle() across clusters: folded on
     * every markReady and recomputed by the promote scan (the only
     * place pending entries are removed). Lets the issue stage skip
     * the per-cluster promote scan on cycles with no wakeup due.
     */
    Cycle nextPendingBound_ = invalidCycle;

    // ----------------------------------------------------------------
    // Per-instruction side tables (indexed by trace position), carved
    // out of ONE arena allocation: 8-byte columns first, then the
    // narrower ones, so every column stays naturally aligned. Waiter
    // lists (consumers blocked on a producer's value) live as per-
    // producer linked lists threaded through a flat node pool, sized
    // up front by the trace's producer-link count — appends never
    // allocate, and wake order stays FIFO per producer.
    static constexpr std::uint32_t noWaiter = UINT32_MAX;

    std::unique_ptr<std::byte[]> sideArena_;
    /** Backing store for timing_; moved wholesale into the SimResult
     *  at the end of run() instead of being copied out. */
    std::vector<InstTiming> timingStore_;
    InstTiming *timing_ = nullptr;
    std::uint64_t *prioKey_ = nullptr;
    Cycle *partialReady_ = nullptr;
    /** Pool column: waiting consumer id | (slot << prioKeyIdBits). */
    std::uint64_t *waiterIdSlot_ = nullptr;
    std::uint32_t *waiterHead_ = nullptr;
    std::uint32_t *waiterTail_ = nullptr;
    /** Pool column: next node of the same producer's list. */
    std::uint32_t *waiterNext_ = nullptr;
    std::uint16_t *deliveredMask_ = nullptr;
    std::uint8_t *pendingOps_ = nullptr;
    std::uint32_t waiterPoolCap_ = 0;
    std::uint32_t waiterPoolUsed_ = 0;

    // ----------------------------------------------------------------
    // Phase bookkeeping (see SimOptions::phases). An unphased run pays
    // exactly one compare per commit against the invalid sentinel.
    /** Commit index that closes the current phase; invalidInstId when
     *  unphased or the final phase runs to trace end. */
    std::uint64_t nextPhaseBoundary_ = invalidInstId;
    std::size_t phaseIdx_ = 0;
    std::uint64_t phaseStartInst_ = 0;
    Cycle phaseStartCycle_ = 0;
    std::vector<PhaseResult> phaseResults_;

    /** Issue-stage scratch (denied instructions of the cluster being
     *  selected); a member so its capacity persists across cycles. */
    std::vector<InstId> leftoverScratch_;

    std::vector<std::uint64_t> ilpCycles_;
    std::vector<std::uint64_t> ilpIssuedSum_;

    // ----------------------------------------------------------------
    // Observability. The registry owns every stat of the run; the core,
    // the clusters, the policies and the listener register into it at
    // construction. The raw Counter pointers below are plain handles
    // into registry_ (stable for its lifetime).
    StatsRegistry registry_;

    Counter *statCycles_ = nullptr;
    Counter *statInstructions_ = nullptr;
    /** Replaces the old ad-hoc globalValues_ member. */
    Counter *statGlobalValues_ = nullptr;
    /** Replaces the old ad-hoc steerStallCycles_ member. */
    Counter *statSteerStallCycles_ = nullptr;
    Counter *statRobFullCycles_ = nullptr;
    Counter *statAllWindowsFullCycles_ = nullptr;
    Counter *statFetchStallCycles_ = nullptr;
    Counter *statPortStarvedEvents_ = nullptr;
    Counter *statPriorityInversions_ = nullptr;
    /** Indexed by SteerReason: why instructions landed where they did. */
    std::vector<Counter *> statSteerReason_;
    /** Indexed by the consumer's SteerReason: bypass traffic by cause. */
    std::vector<Counter *> statFwdCause_;
    Counter *statFwdDyadic_ = nullptr;

    struct ClusterStats
    {
        Counter *steered = nullptr;
        /** Steers that wanted this cluster but found its window full. */
        Counter *windowFullDiverts = nullptr;
        Counter *intIssued = nullptr;
        Counter *fpIssued = nullptr;
        Counter *memIssued = nullptr;
    };
    std::vector<ClusterStats> clusterStats_;
};

} // namespace csim

#endif // CSIM_CORE_TIMING_SIM_HH
