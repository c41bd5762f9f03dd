/**
 * @file
 * Abstract interfaces between the timing core and the steering,
 * scheduling and training policies. The core exposes a read-only
 * CoreView; concrete policies live in src/policy and the online
 * criticality trainer in src/critpath, keeping the core free of any
 * predictor knowledge.
 */

#ifndef CSIM_CORE_POLICY_HH
#define CSIM_CORE_POLICY_HH

#include <cstdint>

#include "core/machine_config.hh"
#include "core/timing.hh"
#include "trace/trace.hh"

namespace csim {

class StatsRegistry;

/** Read-only machine state offered to policies during steering. */
class CoreView
{
  public:
    virtual ~CoreView() = default;

    virtual const MachineConfig &config() const = 0;
    virtual Cycle now() const = 0;
    /** Free scheduling-window entries at cluster c. */
    virtual unsigned windowFree(ClusterId c) const = 0;
    /** Occupied scheduling-window entries at cluster c. */
    virtual unsigned windowOccupancy(ClusterId c) const = 0;
    /** Instruction has been steered but has not completed. */
    virtual bool inFlight(InstId id) const = 0;
    /** Instruction has finished executing. */
    virtual bool completed(InstId id) const = 0;
    /** Cluster an already-steered instruction lives on. */
    virtual ClusterId clusterOf(InstId id) const = 0;
    /** Timing record of any dynamic instruction. */
    virtual const InstTiming &timingOf(InstId id) const = 0;
    /** Static address of any dynamic instruction (e.g. a producer). */
    virtual Addr pcOf(InstId id) const = 0;
};

/** The instruction presented to the steering policy. */
struct SteerRequest
{
    InstId id = invalidInstId;
    const TraceRecord *rec = nullptr;
};

/** The policy's placement decision plus prediction snapshots. */
struct SteerDecision
{
    bool stall = false;
    ClusterId cluster = 0;
    SteerReason reason = SteerReason::NoProducer;
    /** Producer cluster the policy preferred (may equal cluster). */
    ClusterId desired = invalidCluster;
    bool dyadicSplit = false;
    bool predictedCritical = false;
    std::uint8_t locLevel = 0;
};

/**
 * Cluster-assignment policy. steer() is called once per instruction in
 * program order; the core guarantees at least one cluster has a free
 * window entry. Returning stall leaves the instruction (and all younger
 * ones) for a later cycle.
 */
class SteeringPolicy
{
  public:
    virtual ~SteeringPolicy() = default;

    /** Called once before a run. @param trace_size dynamic count. */
    virtual void reset(const CoreView &view, std::size_t trace_size)
    {
        (void)view;
        (void)trace_size;
    }

    virtual SteerDecision steer(const CoreView &view,
                                const SteerRequest &req) = 0;

    /**
     * Register the policy's counters with the run's stats registry.
     * Called once per TimingSim construction; a policy reused across
     * runs is re-bound to each new run's registry.
     */
    virtual void registerStats(StatsRegistry &registry)
    {
        (void)registry;
    }

    /** The core placed req on decision.cluster. */
    virtual void
    notifySteered(const CoreView &view, const SteerRequest &req,
                  const SteerDecision &decision)
    {
        (void)view;
        (void)req;
        (void)decision;
    }

    /** The instruction committed. */
    virtual void
    notifyCommit(const CoreView &view, InstId id, const TraceRecord &rec)
    {
        (void)view;
        (void)id;
        (void)rec;
    }

    virtual const char *name() const = 0;
};

/**
 * Issue-priority policy: instructions with smaller priority classes are
 * selected first; the core breaks ties by age. The class is sampled when
 * the instruction is steered (predictions are made in the front end).
 */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual std::uint32_t priorityClass(const TraceRecord &rec) = 0;

    /** See SteeringPolicy::registerStats. */
    virtual void registerStats(StatsRegistry &registry)
    {
        (void)registry;
    }

    virtual const char *name() const = 0;
};

/** Observer of the in-order commit stream (drives online training). */
class CommitListener
{
  public:
    virtual ~CommitListener() = default;

    virtual void onCommit(const CoreView &view, InstId id) = 0;

    /** See SteeringPolicy::registerStats. */
    virtual void registerStats(StatsRegistry &registry)
    {
        (void)registry;
    }

    /** The run finished; flush any partial state. */
    virtual void onRunEnd(const CoreView &view) { (void)view; }
};

} // namespace csim

#endif // CSIM_CORE_POLICY_HH
