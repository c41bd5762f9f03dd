#include "harness/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "frontend/gshare.hh"
#include "obs/host_prof.hh"

namespace csim {

namespace {

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The build inputs: workload, seed and length, then the fixed L1,
 *  load latencies and gshare history of the paper's machine. */
std::string
cacheKey(const std::string &workload, const WorkloadConfig &cfg)
{
    const CacheConfig l1;
    std::ostringstream key;
    key << workload << '|' << cfg.seed << '|' << cfg.targetInstructions
        << '|' << l1.sizeBytes << ',' << l1.assoc << ',' << l1.lineBytes
        << '|' << l1LoadToUse << ',' << l2MissLatency << '|'
        << gshareHistoryBits;
    return key.str();
}

} // anonymous namespace

TraceCache::TraceCache()
{
    // Lookups (hits + builds).
    statRequests_ = &registry_.addCounter("traceCache.requests");
    statBuilds_ = &registry_.addCounter("traceCache.builds");
    statHits_ = &registry_.addCounter("traceCache.hits");
    statBytesBuilt_ = &registry_.addCounter("traceCache.bytesBuilt");
    registry_.addFormula("traceCache.bytesHeld", [this] {
        return static_cast<double>(bytesHeld_);
    });
    registry_.addFormula("traceCache.peakBytes", [this] {
        return static_cast<double>(peakBytes_);
    });
    registry_.addFormula("traceCache.entriesHeld", [this] {
        return static_cast<double>(slots_.size());
    });
    registry_.addFormula("traceCache.hitRate", [this] {
        const double reqs = static_cast<double>(statRequests_->value());
        return reqs > 0.0 ?
            static_cast<double>(statHits_->value()) / reqs : 0.0;
    });

    statBuildNs_ = &timeRegistry_.addCounter("traceCache.time.buildNs");
    statLockWaitNs_ =
        &timeRegistry_.addCounter("traceCache.time.lockWaitNs");
    // Wall nanoseconds blocked on another thread's in-flight build.
    statHitWaitNs_ = &timeRegistry_.addCounter("traceCache.time.hitWaitNs");
    timeRegistry_.addFormula("traceCache.time.buildMsMean", [this] {
        const double builds = static_cast<double>(statBuilds_->value());
        return builds > 0.0 ?
            static_cast<double>(statBuildNs_->value()) / builds / 1e6 :
            0.0;
    });
}

std::shared_ptr<const Trace>
TraceCache::get(const std::string &workload, const WorkloadConfig &cfg)
{
    const std::string key = cacheKey(workload, cfg);

    std::promise<std::shared_ptr<const Trace>> promise;
    {
        const std::uint64_t lock_start = wallNs();
        std::unique_lock<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        ++*statRequests_;
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            ++*statHits_;
            auto future = it->second.future;
            if (it->second.ready)
                return future.get();
            // Still in flight on another thread: wait on the shared
            // future outside the lock and charge the blocked time.
            const std::uint64_t wait_start = wallNs();
            lock.unlock();
            std::shared_ptr<const Trace> trace = future.get();
            const std::uint64_t wait_ns = wallNs() - wait_start;
            lock.lock();
            *statHitWaitNs_ += wait_ns;
            return trace;
        }
        ++*statBuilds_;
        Slot slot;
        slot.future = promise.get_future().share();
        slots_.emplace(key, std::move(slot));
    }

    // Build outside the lock so unrelated builds proceed in parallel.
    const std::uint64_t build_start = wallNs();
    std::shared_ptr<const Trace> trace;
    {
        HOST_PROF_SCOPE("traceCache.build");
        trace = std::make_shared<const Trace>(
            buildAnnotatedTrace(workload, cfg));
    }
    const std::uint64_t build_ns = wallNs() - build_start;
    promise.set_value(trace);

    {
        const std::uint64_t lock_start = wallNs();
        std::lock_guard<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        *statBuildNs_ += build_ns;
        auto it = slots_.find(key);
        CSIM_ASSERT(it != slots_.end()); // only clear() drops slots
        it->second.ready = true;
        it->second.bytes = trace->footprintBytes();
        bytesHeld_ += it->second.bytes;
        peakBytes_ = std::max(peakBytes_, bytesHeld_);
        *statBytesBuilt_ += it->second.bytes;
    }
    return trace;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, slot] : slots_)
        CSIM_ASSERT(slot.ready);
    slots_.clear();
    bytesHeld_ = 0;
}

std::uint64_t
TraceCache::requests() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statRequests_->value();
}

std::uint64_t
TraceCache::builds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statBuilds_->value();
}

std::uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statHits_->value();
}

std::size_t
TraceCache::bytesHeld() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytesHeld_;
}

std::size_t
TraceCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

StatsSnapshot
TraceCache::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return registry_.snapshot();
}

StatsSnapshot
TraceCache::timeSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timeRegistry_.snapshot();
}

std::vector<std::pair<std::string, std::string>>
TraceCache::contentHashes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::string>> hashes;
    hashes.reserve(slots_.size());
    for (const auto &[key, slot] : slots_)
        hashes.emplace_back(key, fnvHex(fnv1a64(key)));
    std::sort(hashes.begin(), hashes.end());
    return hashes;
}

} // namespace csim
