/**
 * @file
 * Simulator-wide statistics registry.
 *
 * Components register named scalar counters, distributions and derived
 * formulas under hierarchical dotted names ("sim.cluster0.issue.int",
 * "steer.stallCycles"). A registry belongs to one simulation run; at
 * the end of the run it is frozen into a StatsSnapshot, a plain value
 * type that the harness aggregates across seeds and the JSON reporter
 * serializes. This replaces the ad-hoc counter members that used to be
 * scattered through TimingSim and the policies.
 */

#ifndef CSIM_OBS_STATS_REGISTRY_HH
#define CSIM_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace csim {

/** A registered scalar event counter. */
class Counter
{
  public:
    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t d)
    {
        value_ += d;
        return *this;
    }

    void inc(std::uint64_t d = 1) { value_ += d; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

enum class StatKind : std::uint8_t
{
    Counter,
    Distribution,
    Formula,
};

/** One frozen stat inside a StatsSnapshot. */
struct StatValue
{
    StatKind kind = StatKind::Counter;
    /** Counter value or formula result (counters fit a double up to
     *  2^53, far beyond any simulated event count). */
    double value = 0.0;
    /** Distribution payload (empty for scalars). */
    std::vector<std::uint64_t> buckets;
    double lo = 0.0;
    double hi = 0.0;
    /** Snapshots merged into this value; formulas merge by mean. */
    std::uint64_t mergeCount = 1;
};

/**
 * A frozen, order-preserving view of a registry: the interchange format
 * between a finished run, the seed-averaging harness and the JSON
 * reporter.
 */
class StatsSnapshot
{
  public:
    void add(const std::string &name, StatValue v);

    bool has(const std::string &name) const;

    /** Scalar value of a stat; panics when the name is unknown. */
    double value(const std::string &name) const;

    /** Full stat record; panics when the name is unknown. */
    const StatValue &at(const std::string &name) const;

    /**
     * Merge another snapshot (e.g. another seed's run): counters and
     * distribution buckets sum; formulas average across the merged
     * snapshots. Names unknown to this snapshot are adopted.
     */
    void merge(const StatsSnapshot &other);

    /**
     * Copy containing only the stats whose name starts with one of
     * the given prefixes, in the original order. An empty prefix list
     * keeps everything (filtering is opt-in). Used by the stat dumpers
     * so profiler-heavy runs can be cut down to e.g. "profiler.".
     */
    StatsSnapshot filtered(
        const std::vector<std::string> &prefixes) const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Stats in registration order. */
    const std::vector<std::pair<std::string, StatValue>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string, StatValue>> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

/**
 * The live registry one simulation run writes into. Registration
 * panics on duplicate or malformed names (stat names are API).
 * Counter/Histogram references stay valid for the registry's lifetime.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    Counter &addCounter(const std::string &name);

    Histogram &addDistribution(const std::string &name, unsigned buckets,
                               double lo, double hi);

    /** A derived stat, evaluated lazily at snapshot time. */
    void addFormula(const std::string &name, std::function<double()> fn);

    bool has(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }

    StatsSnapshot snapshot() const;

    /**
     * Zero every counter and distribution (formulas recompute from
     * them and need no reset). This is the phase-boundary operation:
     * a warmup phase's events are discarded while the components that
     * own the counters — predictors, caches, steering state — keep
     * their trained microarchitectural state untouched.
     */
    void resetMeasurement();

  private:
    struct Entry
    {
        std::string name;
        StatKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Histogram> dist;
        std::function<double()> formula;
    };

    Entry &newEntry(const std::string &name, StatKind kind);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace csim

#endif // CSIM_OBS_STATS_REGISTRY_HH
