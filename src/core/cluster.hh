/**
 * @file
 * Per-cluster execution state: the scheduling window occupancy, the
 * not-yet-ready/ready instruction queues, and per-cycle port accounting.
 */

#ifndef CSIM_CORE_CLUSTER_HH
#define CSIM_CORE_CLUSTER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/machine_config.hh"
#include "isa/opcode.hh"
#include "obs/stats_registry.hh"

namespace csim {

/**
 * One cluster: a scheduling window plus issue ports. Instructions enter
 * at steer time (occupying a window entry), move from `pending` to
 * `readyNow` when their operands arrive, and leave the window at issue.
 *
 * The pending queue is a flat binary min-heap over (ready cycle, id)
 * kept with std::push_heap/pop_heap — the same comparator and pop
 * order a std::priority_queue would give, but with the storage
 * reservable and the minimum inspectable (nextPendingCycle() is what
 * lets the timing core skip the promote scan on cycles with no wakeup
 * due).
 */
class Cluster
{
  public:
    Cluster(const ClusterPorts &ports, unsigned window_entries)
        : ports_(ports), windowEntries_(window_entries)
    {
        pending_.reserve(window_entries);
        readyNow_.reserve(window_entries);
    }

    /**
     * Register this cluster's own stats (window entries, per-cycle
     * occupancy distribution) under the given dotted prefix, e.g.
     * "sim.cluster0". Optional: an unattached cluster records nothing.
     */
    void
    attachStats(StatsRegistry &registry, const std::string &prefix)
    {
        statEntered_ = &registry.addCounter(
            prefix + ".window.entered",
            "instructions steered into this window");
        statOccupancy_ = &registry.addDistribution(
            prefix + ".window.occupancy", 16, 0.0,
            static_cast<double>(windowEntries_ + 1),
            "per-cycle scheduling-window occupancy");
        // Occupancy is a small integer sampled every cycle; precompute
        // its bucket with the histogram's own math so the hot path
        // skips the floating-point bucketing entirely.
        occBucket_.resize(windowEntries_ + 1);
        for (unsigned occ = 0; occ <= windowEntries_; ++occ)
            occBucket_[occ] = static_cast<std::uint8_t>(
                statOccupancy_->bucketIndex(static_cast<double>(occ)));
    }

    unsigned windowFree() const { return windowEntries_ - occupancy_; }
    unsigned occupancy() const { return occupancy_; }

    /** Steer an instruction into the window during cycle `now`. */
    void
    enter(Cycle now)
    {
        CSIM_ASSERT(occupancy_ < windowEntries_);
        foldOccupancy(now);
        ++occupancy_;
        if (statEntered_)
            ++*statEntered_;
    }

    /** Queue an instruction that becomes ready at the given cycle. */
    void
    markReady(InstId id, Cycle when)
    {
        pending_.emplace_back(when, id);
        std::push_heap(pending_.begin(), pending_.end(),
                       std::greater<>{});
    }

    /**
     * Occupancy sampling is deferred: instead of feeding the histogram
     * every cycle, each occupancy *change* during cycle `now` first
     * folds one sample per cycle in [occSampleFrom_, now] at the
     * pre-change value (a cycle's sample is taken before that cycle's
     * issues and steers, matching the old sample-at-issue-start
     * order), and finishOccupancy() flushes the tail at run end. The
     * bucket totals are bit-identical to per-cycle sampling; the hot
     * loop just stops paying for it.
     */
    void
    foldOccupancy(Cycle now)
    {
        if (statOccupancy_ && now >= occSampleFrom_)
            statOccupancy_->addToBucket(occBucket_[occupancy_],
                                        now - occSampleFrom_ + 1);
        occSampleFrom_ = now + 1;
    }

    /** Flush the deferred samples of the final unchanged stretch;
     *  `cycles` is the run's total cycle count (samples cover cycles
     *  [0, cycles)). */
    void
    finishOccupancy(Cycle cycles)
    {
        if (statOccupancy_ && cycles > occSampleFrom_)
            statOccupancy_->addToBucket(occBucket_[occupancy_],
                                        cycles - occSampleFrom_);
        occSampleFrom_ = cycles;
    }

    /** Move everything ready by `now` into the issuable set. */
    void
    promoteReady(Cycle now)
    {
        while (!pending_.empty() && pending_.front().first <= now) {
            readyNow_.push_back(pending_.front().second);
            std::pop_heap(pending_.begin(), pending_.end(),
                          std::greater<>{});
            pending_.pop_back();
        }
    }

    /** Earliest cycle any pending instruction becomes ready
     *  (invalidCycle when the pending queue is empty). */
    Cycle
    nextPendingCycle() const
    {
        return pending_.empty() ? invalidCycle : pending_.front().first;
    }

    /** No instruction is currently contending to issue. */
    bool readyEmpty() const { return readyNow_.empty(); }

    /** Instructions whose operands are available (contending to issue). */
    std::vector<InstId> &readyNow() { return readyNow_; }

    /** An instruction issued during cycle `now`: its entry frees. */
    void
    exitWindow(Cycle now)
    {
        CSIM_ASSERT(occupancy_ > 0);
        foldOccupancy(now);
        --occupancy_;
    }

    const ClusterPorts &ports() const { return ports_; }

    /** Per-cycle port tracker. */
    struct PortUse
    {
        unsigned total = 0;
        unsigned intUsed = 0;
        unsigned fpUsed = 0;
        unsigned memUsed = 0;

        /** Try to claim a port for an op of class c. */
        bool
        claim(OpClass c, const ClusterPorts &ports)
        {
            if (total >= ports.issueWidth)
                return false;
            if (isIntClass(c)) {
                if (intUsed >= ports.intPorts)
                    return false;
                ++intUsed;
            } else if (isFpClass(c)) {
                if (fpUsed >= ports.fpPorts)
                    return false;
                ++fpUsed;
            } else {
                if (memUsed >= ports.memPorts)
                    return false;
                ++memUsed;
            }
            ++total;
            return true;
        }
    };

  private:
    using PendingEntry = std::pair<Cycle, InstId>;

    ClusterPorts ports_;
    unsigned windowEntries_;
    unsigned occupancy_ = 0;
    Counter *statEntered_ = nullptr;
    Histogram *statOccupancy_ = nullptr;
    /** occupancy -> histogram bucket, fixed at attachStats time. */
    std::vector<std::uint8_t> occBucket_;
    /** First cycle whose occupancy sample is not yet folded. */
    Cycle occSampleFrom_ = 0;
    /** Min-heap on (ready cycle, id); front() is the minimum. */
    std::vector<PendingEntry> pending_;
    std::vector<InstId> readyNow_;
};

} // namespace csim

#endif // CSIM_CORE_CLUSTER_HH
