/**
 * @file
 * Per-instruction timing records and simulation results produced by the
 * clustered timing simulator. These are consumed by the critical-path
 * analysis, the experiment harness, and the tests.
 */

#ifndef CSIM_CORE_TIMING_HH
#define CSIM_CORE_TIMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/stats_registry.hh"

namespace csim {

/** Why the steering logic placed an instruction where it did. */
enum class SteerReason : std::uint8_t
{
    Monolithic,     ///< single-cluster machine; no choice to make
    NoProducer,     ///< no in-flight producer; least-loaded cluster
    Collocated,     ///< placed with an in-flight producer
    LoadBalanced,   ///< desired producer cluster full; least-loaded
    ProactiveLB,    ///< pushed away by proactive load-balancing
};

/** Lifecycle timestamps and steering metadata of a dynamic instruction. */
struct InstTiming
{
    Cycle fetch = invalidCycle;
    /** Cycle the instruction was steered into a cluster window. */
    Cycle dispatch = invalidCycle;
    /** Cycle all operands were available at this cluster. */
    Cycle ready = invalidCycle;
    Cycle issue = invalidCycle;
    /** Cycle execution finished (result locally visible). */
    Cycle complete = invalidCycle;
    Cycle commit = invalidCycle;

    ClusterId cluster = invalidCluster;
    /** Cluster the steering policy wanted (producer's cluster). */
    ClusterId desired = invalidCluster;
    SteerReason reason = SteerReason::Monolithic;

    /** Criticality-prediction snapshot taken at steer time. */
    bool predictedCritical = false;
    /** LoC predictor level snapshot (0..15) at steer time. */
    std::uint8_t locLevel = 0;
    /** In-flight producers lived in >= 2 different clusters. */
    bool dyadicSplit = false;
    /** Bit per SrcSlot: operand arrived via the global bypass. */
    std::uint8_t crossMask = 0;
};

/**
 * One named simulation phase (ChampSim-style warmup/measure split).
 * Phases partition a run by committed-instruction count: when a
 * phase's quota commits, the run's measured counters are snapshotted
 * and reset while every microarchitectural structure — predictors,
 * caches, windows, in-flight instructions — keeps its state. A
 * warmup phase's events are excluded from the run's merged totals.
 */
struct PhaseSpec
{
    std::string name;
    /** Committed instructions in this phase; 0 = run to trace end
     *  (valid only for the final phase). */
    std::uint64_t instructions = 0;
    bool isWarmup = false;
};

/** Closed-phase outcome: the phase's own cycle/instruction span plus
 *  a phase-local stats snapshot. */
struct PhaseResult
{
    std::string name;
    bool isWarmup = false;
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    StatsSnapshot stats;
};

/** Outcome of one timing-simulation run. */
struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<InstTiming> timing;

    /** Distinct (value, remote cluster) deliveries over the bypass. */
    std::uint64_t globalValues = 0;

    /**
     * Frozen stats-registry view of the run: every counter,
     * distribution and formula registered by the core, the policies
     * and the predictors. globalValues above is a convenience copy of
     * "sim.globalValues".
     */
    StatsSnapshot stats;

    /**
     * ILP capture (Fig. 15): index a = available ILP that cycle;
     * ilpCycles[a] counts cycles, ilpIssuedSum[a] sums instructions
     * issued on those cycles. Only filled when SimOptions::collectIlp
     * (whole-run, not phase-split).
     */
    std::vector<std::uint64_t> ilpCycles;
    std::vector<std::uint64_t> ilpIssuedSum;

    /**
     * Per-phase outcomes when SimOptions::phases was configured
     * (empty otherwise). With phases, the top-level cycles /
     * instructions / stats above cover only the *measured* (non-
     * warmup) phases, merged in phase order; `timing` still spans the
     * whole trace.
     */
    std::vector<PhaseResult> phases;

    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
            static_cast<double>(instructions) : 0.0;
    }

    double
    globalValuesPerInst() const
    {
        return instructions ? static_cast<double>(globalValues) /
            static_cast<double>(instructions) : 0.0;
    }
};

} // namespace csim

#endif // CSIM_CORE_TIMING_HH
