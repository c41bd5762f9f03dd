/**
 * @file
 * Machine configurations: the monolithic 8-wide baseline (Table 1) and
 * its clustered partitionings (2x4w, 4x2w, 8x1w, and generic NxW).
 */

#ifndef CSIM_CORE_MACHINE_CONFIG_HH
#define CSIM_CORE_MACHINE_CONFIG_HH

#include <string>

#include "common/types.hh"

namespace csim {

/**
 * Largest supported cluster count. The timing core tracks per-cluster
 * delivery state in 16-bit masks (one bit per cluster), so geometries
 * beyond 16 clusters must be rejected up front instead of silently
 * overflowing the masks.
 */
inline constexpr unsigned maxClusters = 16;

/**
 * Largest supported inter-cluster forwarding latency. The timing core's
 * wakeup wheel is sized by the furthest wakeup (the longest execution
 * latency plus this bypass), so an unbounded latency is rejected up
 * front instead of sizing an arbitrarily large wheel.
 */
inline constexpr unsigned maxFwdLatency = 64;

/** Issue resources of one cluster. */
struct ClusterPorts
{
    /** Total instructions issued per cycle. */
    unsigned issueWidth = 8;
    /** Integer ops (ALU + MUL) per cycle. */
    unsigned intPorts = 8;
    /** Floating point ops per cycle. */
    unsigned fpPorts = 4;
    /** Memory ops (load or store) per cycle. */
    unsigned memPorts = 4;
};

/**
 * Full machine description. Defaults are the paper's Table 1 monolithic
 * baseline; the factory functions derive the clustered machines by
 * dividing execution resources and the scheduling window equally among
 * the clusters (partial per-cluster ports round up, per footnote 1).
 */
struct MachineConfig
{
    unsigned numClusters = 1;
    ClusterPorts cluster = {};
    /** Scheduling window entries per cluster (total 128). */
    unsigned windowPerCluster = 128;
    unsigned robEntries = 256;
    unsigned fetchWidth = 8;
    /** Steering (dispatch into windows) bandwidth. */
    unsigned dispatchWidth = 8;
    unsigned commitWidth = 8;
    /** Front-end stages from fetch to dispatch. */
    unsigned frontendDepth = 13;
    /** Inter-cluster forwarding latency in cycles. */
    unsigned fwdLatency = 2;
    /** Fetch groups end at taken branches. */
    bool fetchStopAtTaken = true;

    /** The 1x8w monolithic baseline. */
    static MachineConfig monolithic();

    /**
     * Partition the monolithic machine into n clusters (n divides 8).
     * n=2 -> 2x4w, n=4 -> 4x2w, n=8 -> 8x1w.
     */
    static MachineConfig clustered(unsigned n);

    /**
     * Generic geometry: n clusters of the given issue width, with fp/mem
     * ports scaled as width/2 rounded up. Used for the 16x1w extension
     * study; window entries are 128/n rounded up.
     */
    static MachineConfig generic(unsigned n, unsigned width);

    /** "1x8w", "4x2w", ... */
    std::string name() const;

    /**
     * Structural validity: cluster count within the bit-mask capacity
     * of the timing core (<= maxClusters), every stage width and port
     * count nonzero (a cluster missing a port class deadlocks the
     * in-order steer stage), nonzero window/ROB capacity, and a
     * forwarding latency of at most maxFwdLatency. Returns
     * "" when valid, else a description of the first problem.
     */
    std::string validationError() const;

    /** Fatal on an invalid configuration (user-facing entry points). */
    void validate() const;

    /** Aggregate issue width across clusters. */
    unsigned
    totalWidth() const
    {
        return numClusters * cluster.issueWidth;
    }
};

} // namespace csim

#endif // CSIM_CORE_MACHINE_CONFIG_HH
