/**
 * @file
 * Shared annotated-trace cache for experiment sweeps.
 *
 * Every (workload, seed, instructions) combination maps to exactly
 * one annotated trace, which is built once and then shared immutably
 * (shared_ptr<const Trace>) across all experiment cells that need
 * it — the trace-build passes (emulation, producer linking, branch
 * and cache annotation) are deterministic, so a cached trace is
 * bit-identical to a fresh build. The cache is
 * thread-safe: concurrent requests for a trace that is still being
 * built block on the in-flight build instead of duplicating it.
 *
 * Entries live until clear() or the cache's destruction; a trace a
 * cell still holds outlives both through its shared_ptr. Cache
 * activity (requests, builds, hits, bytes held) is reported through a
 * StatsRegistry so bench JSON reports can show how much redundant work
 * the cache removed.
 *
 * Host-side latency (wall time spent building entries, waiting for the
 * cache lock, or blocking on another thread's in-flight build) lives in
 * a separate time registry ("traceCache.time.*", timeSnapshot()). Wall
 * times vary run to run, so they are surfaced only under the report's
 * "host" block, never mixed into the deterministic simulation stats.
 */

#ifndef CSIM_HARNESS_TRACE_CACHE_HH
#define CSIM_HARNESS_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/stats_registry.hh"
#include "workloads/registry.hh"

namespace csim {

class TraceCache
{
  public:
    TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The annotated trace for this cell key, building it on first use.
     * Blocks if another thread is currently building the same trace.
     */
    std::shared_ptr<const Trace>
    get(const std::string &workload, const WorkloadConfig &cfg);

    /** Drop every cached entry (in-flight builds must have finished). */
    void clear();

    // Activity counters (all monotonic except bytesHeld/entries).
    std::uint64_t requests() const;
    std::uint64_t builds() const;
    std::uint64_t hits() const;
    std::size_t bytesHeld() const;
    std::size_t entries() const;

    /** Frozen view of the cache's stats registry ("traceCache.*"). */
    StatsSnapshot statsSnapshot() const;

    /** Frozen view of the host-latency registry ("traceCache.time.*").
     *  Nondeterministic wall times; report under "host" only. */
    StatsSnapshot timeSnapshot() const;

    /**
     * Identity of every trace this cache holds, as key-sorted
     * (cacheKey, fnv1a64 hex) pairs. The digest is FNV-1a over the
     * cache key, i.e. over the build inputs (workload, seed, length,
     * memory and predictor config), not over the trace bytes: equal
     * hashes mean equal inputs, which the deterministic build turns
     * into equal traces. Provenance manifests embed this list.
     */
    std::vector<std::pair<std::string, std::string>>
    contentHashes() const;

  private:
    struct Slot
    {
        std::shared_future<std::shared_ptr<const Trace>> future;
        /** Approximate footprint; known once the build finished. */
        std::size_t bytes = 0;
        bool ready = false;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Slot> slots_;
    std::size_t bytesHeld_ = 0;
    std::size_t peakBytes_ = 0;

    StatsRegistry registry_;
    Counter *statRequests_ = nullptr;
    Counter *statBuilds_ = nullptr;
    Counter *statHits_ = nullptr;
    Counter *statBytesBuilt_ = nullptr;

    StatsRegistry timeRegistry_;
    Counter *statBuildNs_ = nullptr;
    Counter *statLockWaitNs_ = nullptr;
    Counter *statHitWaitNs_ = nullptr;
};

} // namespace csim

#endif // CSIM_HARNESS_TRACE_CACHE_HH
